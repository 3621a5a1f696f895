(** The multi-tenant serving runtime: admission, SLO-aware preemption,
    shard pools, and mid-traffic recovery, composed over the serving
    and scheduling seams.

    The server owns one {!Pc_vm.Lanes} pool per mesh device ("shard"),
    each bound at any moment to one program digest (the {!Prog_cache}
    identity). A deterministic round loop drives everything on the
    simulated clock:

    + ingest due arrivals through the tenant token buckets and
      {!Admission};
    + retire finished flights;
    + apply the {!Pool} controller (activate an idle shard / drain one);
    + migrate lanes off draining shards to same-digest shards through
      the {!Pc_vm.Lanes} export/import seam, priced as
      {!Collectives.p2p_time} transfers;
    + rebind empty shards toward the neediest digest and bind idle
      shards on demand up to the controller's target;
    + refill free lanes from admission (weighted-fair pop, one shared
      lane-selection path via {!Sched_plan.choose_lanes});
    + preempt: when a latency-bound head cannot start, export the lanes
      of the weakest, most-recently-started victim flights
      ({!Pc_vm.Lanes.export_lane}), park them, and start the head in the
      freed lanes; parked jobs re-import later and continue
      bitwise-exactly — the RNG keys on (seed, member, counter), never
      on lane, shard, or wall time;
    + checkpoint each shard every [checkpoint_interval] rounds (plus a
      forced checkpoint after any preemption, resume, or migration
      touched it, which keeps every lane's authoritative home
      unambiguous);
    + step every live shard one superstep; the clock advances by the
      {e maximum} per-shard engine delta — shards serve independent
      traffic in parallel, there is no cross-shard barrier;
    + tick the fault injector: a [Device_kill] restores only that shard
      from its last checkpoint, re-queues the requests it had admitted
      since, and discards its not-yet-flushed completions — the rest of
      the fleet never notices, and re-execution is bitwise identical.

    Every completed request's outputs are bitwise-identical to running
    it alone with [member_base = member] — cache hit or miss, preempted
    or not, migrated or not, killed or not. The acceptance gate
    ([bench tenant]) checks exactly that. *)

(** When a shard takes new work. [Continuous] (continuous batching)
    refills free lanes every round, the moment they open. [Synchronous]
    is the paper's fixed-batch regime: a shard refills only once it has
    no live flight, so every batch waits for its slowest member (the
    E5 baseline). *)
type refill = Continuous | Synchronous

type config = {
  lanes_per_shard : int;
  mesh : Mesh.t;             (** one potential shard per device *)
  mode : Engine.mode;
  policy : Sched_policy.t;
  admission : Admission.config;
  pool : Pool.config;
  preempt : bool;            (** enable latency-bound preemption *)
  refill : refill;
  checkpoint_interval : int; (** per-shard rounds; 0 = bind-time baseline only *)
  faults : Fault.event list;
      (** device-kill plan on the round clock ([superstep] = round,
          [device] = shard); non-kill kinds are ignored *)
  keep_outputs : bool;
      (** store every completion's output tensors (the bitwise gate
          needs them; million-request sweeps turn this off) *)
  max_rounds : int;          (** safety valve; raises when exceeded *)
  metrics : Obs_metrics.t option;
  sink : Obs_sink.t option;
      (** Beyond the engine/VM event stream, the server emits
          [Obs_sink.Span] trees here — one per completed request (root
          ["request"] with ["queue"]/["service"] children and
          ["preempted"]/["migrate"] marks), emitted exactly once when the
          completion leaves the rollback window; plus server-lifecycle
          instants (["pool-grow"], ["pool-shrink"], ["checkpoint"],
          ["restore"]) on {!Obs_span.ops_trace}, [Obs_sink.Ladder]
          transition events, and [Obs_sink.Slo_alert] edges. Attaching a
          sink charges no simulated cost and leaves outputs bitwise
          identical. *)
  slo : Obs_slo.t option;
      (** burn-rate monitor, keyed by {!Tenant.slo_name}. Completions
          feed it at retire time (total latency vs its class threshold);
          sheds and ladder rejections feed as unconditionally bad; it is
          polled once per round and alert edges go to [sink]. *)
  slo_drive : bool;
      (** let a firing alert pin the admission ladder at
          [Shed_best_effort] ({!Admission.set_floor}) until it resolves.
          Off: the monitor only observes — outputs stay bitwise identical
          to running without it. *)
}

val default_config : mesh:Mesh.t -> config
(** 8 lanes per shard, [Hybrid] engines, [Sched_policy.Earliest],
    {!Admission.default}, {!Pool.default}, preemption on, [Continuous]
    refill, checkpoint every 32 rounds, no faults, outputs kept, no SLO
    monitor. *)

type completion = {
  c_item : Admission.item;
  c_outputs : Tensor.t list option;
      (** width-leading, exactly {!Autobatch.run_pc}'s layout; [None]
          when [keep_outputs] is off *)
  c_started : float;
  c_finished : float;
  c_shard : int;   (** where it retired *)
  c_preempted : int;  (** times parked *)
  c_marks : (string * float * float) list;
      (** chronological lifecycle marks [(name, t0, t1)] gathered while
          in flight: ["preempted"] park→resume intervals and ["migrate"]
          instants — the same marks that become children of the
          request's ["service"] span *)
}

type stats = {
  completions : completion list;  (** completion order *)
  throttled : Admission.item list;   (** refused by token bucket/quota *)
  rejected : (Admission.item * Admission.reason) list;
  shed : Admission.item list;     (** dropped after admission *)
  rounds : int;
  makespan : float;               (** simulated seconds, arrival of first
                                      work to last completion *)
  preemptions : int;
  resumes : int;
  migrations : int;
  migration_bytes : float;
  binds : int;
  rebinds : int;
  grows : int;
  shrinks : int;
  checkpoints : int;
  restores : int;
  wasted_rounds : int;  (** re-executed after restores *)
  peak_active : int;    (** most simultaneously active shards *)
  counters : Engine.Counters.t;  (** merged across every shard engine *)
}

(** A pull-based arrival stream in nondecreasing arrival order, so
    million-request traces never materialize in memory. *)
type source

val source_of_fun : (unit -> Admission.item option) -> source
val source_of_list : Admission.item list -> source

val run :
  ?config:config -> ?on_complete:(completion -> Admission.item option) -> source -> stats
(** Drive the stream to completion: every arrival is eventually
    completed, throttled, rejected, or shed; no work is lost to
    scaling, preemption, or injected kills.

    [on_complete] closes the loop: it may return one follow-up request
    per completion, which joins the arrivals with its arrival time
    clamped to the current clock. It fires once per completion, when
    the completion leaves the rollback window (at the shard's next
    checkpoint, or at retire once no planned kill can still reach the
    shard), so a kill never fires it twice.

    A request is refused at ingest as [Invalid_input] when its inputs
    disagree with the program's declared shapes, or with the row shapes
    fixed by the first admitted request of the same program digest; as
    [Too_wide] when it is wider than a shard. When [config.metrics] is
    set, per-class latency histograms
    (["latency_total_" ^ Tenant.slo_name], queue/service variants) are
    populated from the completion records at the end — after fault
    rollback, so replayed work is counted exactly once. *)
