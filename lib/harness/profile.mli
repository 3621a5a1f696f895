(** The [experiments profile] harness: batched NUTS on a built-in target
    under the program-counter VM with the divergence profiler
    ({!Obs_prof}) attached — per-block attribution of simulated time,
    lane-utilization accounting, hot-block tables, and folded-stacks
    flamegraph export. Attaching the profiler does not perturb the run:
    outputs and the simulated clock are bitwise identical either way
    (gated by [bench observe]). *)

type result = {
  model_name : string;
  batch : int;
  n_iter : int;
  policy : Sched_policy.t;  (** the scheduling policy the run used *)
  sim_seconds : float;  (** the engine's total simulated time *)
  wall : Obs_wall.sample;
      (** host wall-clock/GC cost of the run itself ({!Obs_wall.time}
          around the VM execution) — reporting only, never part of the
          simulated cost *)
  snapshot : Engine.snapshot;
  stack : Stack_ir.program;
  cfg : Cfg.program;
  fuse_report : Fuse.report option;
  prof : Obs_prof.t;
}

val known_models : string list
(** ["eight_schools"], ["gaussian"], ["funnel"], ["logistic"]. *)

val flame_frames : Stack_ir.program -> Cfg.program -> string array array
(** Per merged block: the root-first canonical call-stack frames used by
    {!Obs_prof.folded}. Functions sit at their shortest direct-call path
    from the CFG entry; the leaf frame is ["fn#k"] with [k] the
    function-local block index (from [Stack_ir.origin]). *)

(** {1 Derived lane counts}

    The profiler keeps per-block lane sums only. Every operation of a
    block runs over the same active set and is issued over the same
    [width] lanes, so primitive [p]'s useful lanes are
    Σ_b count_b(p) × active_lanes_b, its issued lanes
    Σ_b count_b(p) × issued_lanes_b, its batched calls
    Σ_b count_b(p) × steps_b, and stack pushes/pops
    Σ_b n_b × steps_b — exact integers, from the compiled program's
    static per-block op table. *)

type op_table
(** Per block id (as the runtime reports it on [Occupancy] events): the
    block's primitive op counts by name, and its push and pop ops. *)

val pc_ops : Stack_ir.program -> op_table
(** For {!Pc_vm} (and the runtimes built on its lane pool): merged block
    ids. *)

val local_ops : Cfg.program -> op_table
(** For {!Local_vm}: ids {!Cfg.block_base}[ f + k]. No pushes or pops —
    that runtime recurses on the host. *)

type lanes = {
  calls : int;  (** batched primitive calls *)
  useful : int;  (** Σ active lanes over those calls *)
  issued : int;  (** Σ issued lanes over those calls *)
}

type derived = {
  prims : (string * lanes) list;  (** sorted by primitive name *)
  pushes : int;  (** variable-stack push ops executed *)
  pops : int;
}

val derive : op_table -> Obs_prof.t -> derived
(** Read the counts off a profiler that observed runs of the table's
    program (rows for unknown block ids are ignored). *)

val prim : derived -> string -> lanes
(** One primitive's counts; all zero if it never ran. *)

val lane_utilization : lanes -> float
(** useful / issued; 1.0 when nothing was issued. *)

val run :
  ?dim:int ->
  ?batch:int ->
  ?n_iter:int ->
  ?seed:int64 ->
  ?trace:Obs_trace.t ->
  ?fuse:Fuse.options ->
  ?policy:Sched_policy.t ->
  model:string ->
  unit ->
  result
(** Compile NUTS against [model] (dim 10, batch 64, 2 trajectories and
    seed [0x5EED] by default; [dim] is ignored by [eight_schools], whose
    dimension is fixed), run it on a fused GPU engine with profiler —
    and, optionally, trace — sinks installed on both the VM and the
    engine, and return the profile. [policy] picks the block scheduling
    policy (default [Earliest]); outputs are policy-invariant, only the
    schedule and hence the simulated cost change. Raises
    [Invalid_argument] for an unknown model name. *)

val folded : result -> string
(** {!Obs_prof.folded} on the run's profiler: flamegraph.pl input. *)

val print : ?top:int -> result -> unit
(** Attribution summary, utilization accounting, and the top-[top]
    (default 12) hot-block table, plus kernel/collective tables when
    non-empty. *)

val to_json : result -> Obs_json.t

(** {1 Compare readout}

    One row per profiled run, with speedup and effective-utilization
    factors against the first (baseline) row. Shared by
    [experiments ... --compare-policies] and the [bench sched] gate, so
    the scoreboard and the gate agree on what an utilization factor
    means. *)

type view = {
  v_label : string;
  v_policy : string;
  v_sim_seconds : float;
  v_wall_s : float;
      (** host wall seconds; shown in {!print_compare} but deliberately
          absent from {!compare_to_json} — that output is diffed against
          committed bench baselines, and wall time is nondeterministic *)
  v_utilization : float;
  v_effective : float;  (** {!Obs_prof.effective_utilization} *)
  v_divergence_waste : float;
  v_idle_waste : float;
  v_supersteps : int;
  v_migrations : int;
  v_steals : int;
  v_migration_bytes : float;
}

val view : ?label:string -> result -> view

val view_of_prof :
  ?label:string ->
  ?wall_s:float ->
  policy:string ->
  sim_seconds:float ->
  Obs_prof.t ->
  view
(** For runs not driven by {!run} (e.g. the [Sched_sweep] defrag arms):
    build a row straight from a profiler and a simulated clock. *)

val print_compare : view list -> unit
(** Delta table; the first view is the baseline (speedup 1.00). Prints
    nothing for an empty list. *)

val compare_to_json : view list -> Obs_json.t
