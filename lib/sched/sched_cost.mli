(** Static per-block cost tables for the table-driven policies.

    Costs come from the IR itself: each op contributes its registry
    [flops] estimate (element shapes permitting) or unit weight, plus a
    unit launch charge per block. A {!Fuse_profile} observed on an
    earlier run can re-weight blocks toward the historically hot path.
    Depths are cost-weighted longest distances to halt over *forward*
    control-flow edges — back edges are dropped, which makes the
    recurrence a DAG pass and means a loop's depth reflects one trip,
    exactly the "remaining road if this lane exits now" the
    [Critical_path] policy wants to prioritize. *)

val stack_tables :
  ?registry:Prim.registry ->
  ?profile:Fuse_profile.t ->
  Stack_ir.program ->
  Sched_policy.tables

val func_costs : Cfg.program -> fn:string -> float array
(** Per-block costs of one function of the pre-merge CFG, from
    {!Optimize.block_op_counts} (the local VM schedules function-local
    blocks). Raises [Invalid_argument] for an unknown function. *)

val func_tables : Cfg.program -> fn:string -> Sched_policy.tables
