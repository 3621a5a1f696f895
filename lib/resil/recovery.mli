(** Checkpoint/restore drivers with deterministic replay.

    Each [run_*] below executes a workload under a fault {!Fault.injector}
    while checkpointing every [interval] supersteps through {!Snapshot}
    (a genuine serialization round trip: every restore {e decodes} the
    stored blob). Because all state the execution depends on — stacks,
    storage, scheduler cursors, RNG counters, engine tallies — lives in
    the checkpoint, a faulted-and-recovered run produces output bitwise
    identical to the fault-free run, and its engine/instrument state
    reports true cumulative cost from time zero.

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

val pp_stats : Format.formatter -> stats -> unit

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
(** Domain-decomposed execution under faults: one lane pool per shard
    (member identities offset by the shard's batch offset, matching
    {!Shard_vm.partition}), stepped in lockstep rounds. A [Device_kill]
    on device [d] rewinds {e only} shard [d mod shards] to the last
    checkpoint — localized recovery; a [Link_drop] costs one retried
    collective round with no state lost. No engine is attached, so
    [Kernel_poison] events expire unfired. [stats.useful_supersteps] sums
    per-shard supersteps. Default [shards = 2]. *)

val run_server :
  ?config:Server.config ->
  ?on_complete:(Server.record -> Request.t option) ->
  ?interval:int ->
  ?plan:Fault.event list ->
  program:Autobatch.compiled ->
  Request.t list ->
  Server.stats * stats
(** Continuous-batching server under faults. Ticks ride the VM config's
    observability sink (so idle clock jumps do not advance the fault
    clock), composed after any sink already present, which also receives
    the [Checkpoint]/[Restore] lifecycle;
    checkpoints capture the {e whole} server — queue, in-flight lanes,
    completions, clock — at server-superstep boundaries, and a fault
    restores all of it. [on_complete] is construction state, not
    checkpoint state: pass the same deterministic callback to replay
    closed-loop traces. *)
