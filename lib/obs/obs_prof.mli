(** The divergence profiler: per-block/per-kernel attribution of the
    engine's simulated clock, lane-utilization accounting, and
    folded-stacks flamegraph export.

    It is the only utilization accounting in the repository: the
    runtimes count nothing themselves, they emit one {!Obs_sink.Occupancy}
    per superstep and this profiler keeps the per-block lane sums.
    Per-primitive lane counts and stack push/pop counts follow from those
    rows and the program's static per-block op table (every op of a block
    runs over the same lanes), see [Harness.Profile.derive]. Attach only
    the VM sink (no engine) when attribution of time is not needed.

    Feed it events by installing {!sink} both as the VM's sink (for
    [Step]/[Occupancy]) and as the engine's sink via [Engine.set_sink]
    (for [Launched] spans) — the same double-wiring tracing uses. The
    profiler never perturbs the run: it only reads events, so outputs and
    the simulated clock are bitwise identical with it attached.

    {b Attribution-context rules.} [Launched] spans don't say which block
    charged them, so the profiler pairs each fused-block span with the
    most recent [Step]/[Occupancy]: the VMs emit Step, then Occupancy,
    then execute the block (which charges the engine) before anything
    else reports, and a multi-shard run steps its pools one after another,
    each with its own engine. Kernel spans are attributed by kernel name;
    [Collective] spans sit on the mesh timeline and are tallied
    separately. There is no gap bucket: an engine charge without a span,
    or a block span before any [Step], is not booked, so {!attributed}
    falls short of the engine clock and the conservation checks catch
    it. *)

type t

type block_row = {
  block : int;  (** merged (global) block id *)
  execs : int;  (** fused-block spans attributed to this block *)
  charged : float;  (** simulated seconds charged by those spans *)
  effective : float;
      (** lane-weighted useful seconds: each span's duration scaled by its
          superstep's [active/total] *)
  steps : int;  (** supersteps that scheduled this block *)
  active_lanes : int;  (** Σ active over those supersteps *)
  live_lanes : int;  (** Σ live *)
  total_lanes : int;  (** Σ total *)
  issued_lanes : int;
      (** Σ width: lanes each of the block's operations was issued over,
          summed over its supersteps ([total_lanes] unless the runtime
          gathers active rows) *)
}

type kernel_row = { kernel : string; launches : int; charged : float }

type collective_row = {
  collective : string;
  count : int;
  charged : float;
  bytes : float;
}

val create : ?frames:string array array -> unit -> t
(** [frames.(b)] is the root-first call-stack frame list for merged block
    [b] (see [Harness.Profile.flame_frames]), used by {!folded}; blocks
    without frames fall back to ["block_<b>"]. Default: no frames. *)

val sink : t -> Obs_sink.t
(** Install on every VM config {e and} engine involved in the run (the
    shard-tagged sinks of a multi-shard run land here too). *)

(** {1 Attribution readout} — sorted by charged time, descending. *)

val block_rows : t -> block_row list
val kernel_rows : t -> kernel_row list
val collective_rows : t -> collective_row list

val collective_time : t -> float

val attributed : t -> float
(** Blocks + kernels; equals the summed engine clock(s) plus
    {!rolled_back}, up to float addition error, when every engine charge
    has a span (collectives are excluded — they overlap compute on the
    mesh timeline). *)

val rolled_back : t -> float
(** Engine seconds rewound by restores ({!Obs_sink.Restore}). The spans
    a restore rewound stay booked in the rows — that work ran before the
    fault and was run again — so the engine clock is
    [attributed t -. rolled_back t]. *)

(** {1 Utilization accounting} — over all [Occupancy] events. *)

val supersteps : t -> int
(** Number of [Occupancy] events: supersteps executed. *)

val utilization : t -> float
(** Σ active / Σ total (1.0 when no occupancy events were seen). *)

val effective_utilization : t -> float
(** Time-weighted: Σ effective / Σ charged over block rows. *)

val divergence_waste : t -> float
(** Σ (live − active) / Σ total: live lanes masked off by divergence. *)

val idle_waste : t -> float
(** Σ (total − live) / Σ total: lanes already halted (batch drain). *)

val mean_occupancy : t -> float
(** Σ live / Σ total (1.0 when no occupancy events were seen). Distinct
    from {!utilization}: a lane is {e live} until it halts, even while
    waiting out a block it does not execute. *)

val occupancy_series : t -> (int * float) list
(** The live-lane gauge: [(first_step, live/total)] buckets over the
    [Occupancy] events in arrival order — at most 256 points spanning the
    whole run (adjacent buckets merge as it grows, so memory stays
    constant). Empty before the first event. Meaningful for one lane
    pool; a multi-shard run interleaves its pools' steps. *)

val max_depth : t -> int
(** The largest [depth] seen on any [Occupancy] event (0 when none). *)

(** {1 Migration attribution} — over all [Migration] events, so a
    before/after utilization comparison (see [Harness.Profile]'s compare
    readout) can attribute occupancy gains to the lane moves that bought
    them. *)

val migrations : t -> int
(** All lane moves, defragmentation and steals alike. *)

val steals : t -> int
(** Cross-shard moves only ([src_shard <> dst_shard]). *)

val migration_bytes : t -> float
(** Total migrated payload. *)

(** {1 Export} *)

val folded : t -> string
(** flamegraph.pl-compatible folded stacks: one ["frame;frame;... N"]
    line per block stack (plus synthetic [(kernel)] and [(collective)]
    roots), weights in integer nanoseconds
    of simulated time, lines sorted, zero-weight lines dropped. *)

val to_json : t -> Obs_json.t
