(** The defragmenting scheduler runtime (DESIGN.md S20).

    Runs the merged stack-machine program over a batch on a mesh of lane
    pools — one {!Pc_vm.Lanes} pool of [lanes] lanes per mesh device —
    with a planning round between supersteps: finished lanes retire,
    pending members refill the freed lanes ({!Sched_plan.refill}), live
    members compact within a pool and migrate across pools
    ({!Sched_plan.move}), and then every pool executes one scheduled
    block. Refill and migration costs are charged through each device's
    {!Engine} — cross-shard steals additionally pay
    {!Collectives.p2p_time} on the receiving device — so the simulated
    clock reflects what moving work actually costs.

    {b Determinism.} Migration never perturbs results: the RNG keys every
    draw on the member identity the lane carries, per-lane state is
    exactly one row of every variable plus one pc-stack column, and the
    planner is a pure function of the observable lane occupancy. Outputs
    are therefore bitwise identical to the unsharded {!Pc_vm.run} under
    {e every} policy, mesh size and migration schedule — the property the
    migration differentials and [bench sched] gate enforce. To keep the
    schedule itself reproducible, the rounds run sequentially on the
    calling domain (shard 0 first); the measurement is the per-device
    simulated clock, not host wall time. {!Shard_vm} keeps the
    free-running one-domain-per-shard path for migration-free runs. *)

type config = {
  policy : Sched_policy.t;
  plan : Sched_plan.config;
      (** Planner knobs. [plan.refill] must be on — members enter
          execution through refills ({!Sched_plan.off} is rejected). *)
  lanes : int;  (** lanes per mesh device; capacity is [lanes × size mesh] *)
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
  supersteps : int;  (** planning rounds *)
  vm_steps : int;  (** blocks executed, summed over pools *)
  refills : int;
  migrations : int;  (** applied moves, defrag and steals alike *)
  steals : int;  (** cross-shard moves only *)
  migration_bytes : float;
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
(** Raises [Invalid_argument] on an empty batch, [lanes <= 0], or a plan
    with refills disabled; {!Ir_util.Step_limit_exceeded} past
    [max_steps]. *)
