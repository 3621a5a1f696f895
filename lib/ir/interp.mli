(** Single-example reference interpreter for the surface language.

    This is the semantic ground truth that both autobatching runtimes are
    differential-tested against: running a batch of inputs member-by-member
    through this interpreter must agree exactly with one batched run.

    [member] is the batch-member identity used by the counter-based RNG
    primitives, so randomized programs are reproducible and comparable
    across the three execution paths. *)

val run :
  ?max_steps:int ->
  Prim.registry ->
  Lang.program ->
  member:int ->
  args:Tensor.t list ->
  Tensor.t list
(** Execute the entry function on one example. [max_steps] (default
    [1_000_000]) bounds the number of executed statements and raises
    {!Ir_util.Step_limit_exceeded} beyond it (used when fuzzing random
    programs). Raises [Invalid_argument]/[Failure] on malformed
    programs — run {!Validate.check_program} first for good error
    messages. *)
