(** The scheduling-policy sweep harness behind [bench sched] and the
    [--compare-policies] CLI flag.

    Three readouts over one compiled workload:

    - {!profiled_pc}: a profiled program-counter run under one policy
      (profiler + fused-GPU engine, wired as {!Profile.run} wires them),
      as a {!Profile.view} row for {!Profile.print_compare};
    - {!defrag_view}: the defragmenting {!Sched_vm} runtime on a mesh of
      small lane pools — the before/after utilization comparison the
      [bench sched] gate scores;
    - {!bitwise_matrix}: outputs of every runtime × policy × migration
      plan checked bitwise against the [Earliest] program-counter
      baseline — the determinism half of the gate. *)

val profiled_pc :
  ?label:string ->
  policy:Sched_policy.t ->
  Autobatch.compiled ->
  batch:Tensor.t list ->
  Tensor.t list * Profile.view
(** One profiled whole-batch PC run; returns the outputs (for bitwise
    checks) and the utilization view. [label] defaults to the policy
    name. *)

val defrag_view :
  ?label:string ->
  ?policy:Sched_policy.t ->
  ?plan:Sched_plan.config ->
  shards:int ->
  lanes:int ->
  Autobatch.compiled ->
  batch:Tensor.t list ->
  unit ->
  Sched_vm.result * Profile.view
(** Run the batch through {!Sched_vm} on a [shards]-device mesh with
    [lanes] lanes per device (capacity below the batch size forces
    continuous refill — where retiring drained lanes pays). Default
    [Earliest] policy and {!Sched_plan.default}; [label] defaults to
    ["<policy>+defrag"]. *)

(** {1 Bitwise matrix} *)

type check = {
  c_runtime : string;  (** pc | local | shard | server | sched *)
  c_policy : string;
  c_plan : string;  (** migration plan name; ["-"] for plain runtimes *)
  c_ok : bool;
}

val bitwise_matrix :
  ?policies:Sched_policy.t list ->
  ?plans:(string * Sched_plan.config) list ->
  ?lanes:int ->
  ?shards:int ->
  Autobatch.compiled ->
  batch:Tensor.t list ->
  check list
(** Run the batch through every runtime under every policy — plus
    {!Sched_vm} under every (policy, plan) pair on a [shards]-device
    mesh with [lanes] lanes each, and the server as one width-1 request
    per member — and compare outputs bitwise against the [Earliest] PC
    baseline. *)

val failures : check list -> check list
