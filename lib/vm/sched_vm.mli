(** The multi-shard runtime (DESIGN.md S20): the one runner that spreads
    a batch over a {!Mesh} of simulated devices.

    Runs the merged stack-machine program over a batch on a mesh of lane
    pools — one {!Pc_vm.Lanes} pool per mesh device — in lockstep
    rounds. Under a refilling plan each pool has [lanes] lanes and every
    round starts with a planning step: finished lanes retire, pending
    members refill the freed lanes ({!Sched_plan.refill}), live members
    compact within a pool and migrate across pools ({!Sched_plan.move}),
    and then every pool executes one scheduled block. Refill and
    migration costs are charged through each device's {!Engine} —
    cross-shard steals additionally pay {!Collectives.p2p_time} on the
    receiving device — so the simulated clock reflects what moving work
    actually costs.

    {b The static partition.} Under {!Sched_plan.off} (refills off) the
    run is plain SPMD sharding: the batch is split by
    {!Sched_plan.partition}, each device's pool is exactly as wide as its
    contiguous slice ([lanes] is not read), every member is loaded before
    round 1 as {!Pc_vm.run} loads it, with no refill or retire charge,
    and each round steps every pool once. Hence

    {v
    sim_time = max over devices of device compute time
             + supersteps × all_reduce(flag)
             + all_gather(outputs)
    v}

    where supersteps is the longest pool's step count.

    {b Determinism.} Migration never perturbs results: the RNG keys every
    draw on the member identity the lane carries, per-lane state is
    exactly one row of every variable plus one pc-stack column, and the
    planner is a pure function of the observable lane occupancy. Outputs
    are therefore bitwise identical to the unsharded {!Pc_vm.run} under
    {e every} plan, policy, mesh size and migration schedule — the
    property the migration differentials and [bench sched] gate enforce.
    To keep the schedule itself reproducible, every pool steps on the
    calling domain, shard 0 first; the measurement is the per-device
    simulated clock, not host wall time. *)

type config = {
  policy : Sched_policy.t;
  plan : Sched_plan.config;
      (** Planner knobs. With [plan.refill] off the run is the static
          partition described above. *)
  lanes : int;
      (** lanes per mesh device under a refilling plan; capacity is
          [lanes × size mesh] *)
  mesh : Mesh.t;
  mode : Engine.mode option;
      (** [Some mode] prices the run on one engine per mesh device;
          [None] runs uncosted (differential tests). *)
  collective : Collectives.algorithm;
  max_steps : int;  (** per-pool superstep bound *)
  sink : Obs_sink.t option;
      (** Sees shard-tagged [Step]/[Occupancy] from every pool, each
          device's [Launched] spans, one {!Obs_sink.Migration} per
          applied move, and the closing [Collective] spans. *)
}

val default_config : config
(** [Earliest] policy, {!Sched_plan.default} plan, 8 lanes on a
    single-device mesh, uncosted. *)

type result = {
  outputs : Tensor.t list;
      (** Whole-batch layout (leading batch dimension, member order) —
          bitwise equal to [Pc_vm.run]'s outputs. *)
  counters : Engine.Counters.t;  (** summed over devices; zero if uncosted *)
  supersteps : int;
      (** rounds; under the static partition, the rounds in which some
          pool stepped *)
  vm_steps : int;  (** blocks executed, summed over pools *)
  refills : int;
  migrations : int;  (** applied moves, defrag and steals alike *)
  steals : int;  (** cross-shard moves only *)
  migration_bytes : float;
  shard_times : float array;
      (** per-pool simulated seconds, in device order; zero if uncosted *)
  compute_time : float;  (** max per-device simulated seconds *)
  collective_time : float;
      (** per-round sync all-reduce + final output all-gather *)
  sim_time : float;  (** [compute_time + collective_time] *)
}

val run :
  ?config:config ->
  Prim.registry ->
  Stack_ir.program ->
  batch:Tensor.t list ->
  result
(** [finish] after stepping a {!create}d run until {!step} returns
    [false]. *)

(** {2 The steppable run} — for drivers that act between rounds (the
    recovery layer checkpoints and rewinds individual pools). *)

type t

val create :
  ?config:config -> Prim.registry -> Stack_ir.program -> batch:Tensor.t list -> t
(** Build one pool per device (static partition: one per non-empty part,
    so [min (size mesh) z] pools) and queue or load the members. Raises
    [Invalid_argument] on an empty batch, or [lanes <= 0] under a
    refilling plan. *)

val step : t -> bool
(** One round; [false] (and no effect) once nothing is left to run.
    Raises {!Ir_util.Step_limit_exceeded} past [max_steps]. *)

val pools : t -> Pc_vm.Lanes.t array
(** The live pools, in device order. A driver may {!Pc_vm.Lanes.capture}
    and {!Pc_vm.Lanes.restore} them between rounds. *)

val finish : t -> result
(** Join the outputs by rows and price the collectives; emits the closing
    [Collective] spans. Call once, after {!step} returned [false]. *)
