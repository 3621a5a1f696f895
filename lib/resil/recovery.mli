(** Checkpoint/restore drivers with deterministic replay.

    Each [run_*] below executes a workload under a fault {!Fault.injector}
    while checkpointing every [interval] supersteps through {!Snapshot}
    (a genuine serialization round trip: every restore {e decodes} the
    stored blob). A checkpoint is each pool's {!Pc_vm.Lanes.image} — the
    state of every occupied lane (variable rows, and the pc's and every
    stacked variable's column of saved frames and top, all in one column
    format; RNG member identity; RNG counters live in variables), the
    scheduler cursor and the step count — plus the engine tallies. That
    is all the state the execution depends on, so a faulted-and-recovered
    run produces output bitwise identical to the fault-free run, and its
    engine state reports true cumulative cost from time zero.

    [interval = 0] (the default) keeps only the initial checkpoint:
    a fault restarts the run from the beginning. Checkpoint cost is
    {e not} charged to the engine — harnesses account for it analytically
    from {!stats.checkpoint_bytes} so the replayed trace stays identical
    to the fault-free one. *)

type stats = {
  supersteps : int;  (** total supersteps executed, including replay *)
  useful_supersteps : int;  (** supersteps surviving into the final run *)
  wasted_supersteps : int;  (** re-executed (or retried) after faults *)
  checkpoints : int;  (** snapshots taken, including the initial one *)
  checkpoint_bytes : int;  (** total serialized size of all snapshots *)
  restores : int;  (** recoveries performed *)
  faults_injected : int;  (** events that actually fired *)
  link_retries : int;  (** collectives retried after a link drop *)
}

val young_interval : checkpoint_cost:float -> mtbf:float -> float
(** Young's first-order optimal checkpoint interval
    [sqrt (2 * cost * mtbf)], with cost and mean-time-between-failures in
    the same unit (supersteps here). Raises [Invalid_argument] unless both
    are positive. *)

val run_pc :
  ?config:Pc_vm.config ->
  ?interval:int ->
  ?plan:Fault.event list ->
  Prim.registry ->
  Stack_ir.program ->
  batch:Tensor.t list ->
  Tensor.t list * stats
(** Batched interpreter under faults. Composes {!Fault.sink} after any
    sink already in [config] (so tracing observes the superstep the fault
    aborts) and installs it as the engine's sink when [config.engine] is
    set (cleared again on exit). The user's own sink additionally receives
    a [Checkpoint] event per snapshot and a [Restore] per recovery. Lane
    [i] runs member [config.member_base + i] on [batch] row [i], as
    {!Pc_vm.run} does. *)

type sharded_result = {
  sh_outputs : Tensor.t list;  (** rows reassembled in shard order *)
  sh_rounds : int;  (** lockstep rounds driven across the shard set *)
  sh_stats : stats;
}

val run_sharded :
  ?sched:Sched_policy.t ->
  ?shards:int ->
  ?interval:int ->
  ?plan:Fault.event list ->
  Prim.registry ->
  Stack_ir.program ->
  batch:Tensor.t list ->
  sharded_result
(** Domain-decomposed execution under faults: {!Sched_vm}'s static
    partition ({!Sched_plan.off}) on a [shards]-device mesh, one lane
    pool per part of {!Sched_plan.partition}, driven round by round
    through {!Sched_vm.step} with a checkpoint of every pool between
    rounds. A [Device_kill] on device [d] rewinds {e only} pool
    [d mod (min shards z)] to the last checkpoint — localized recovery; a [Link_drop] costs one retried
    collective round with no state lost. No engine is attached, so
    [Kernel_poison] events expire unfired. [stats.useful_supersteps] sums
    per-shard supersteps. Default [shards = 2]. *)
