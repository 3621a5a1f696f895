(** Single-example interpreter for the Figure-2 CFG.

    The third semantic reference point: {!Interp} executes the surface
    AST, this module executes the lowered CFG (host recursion for calls,
    one logical thread). Differential agreement between the two localizes
    a failure to {!Lower_cfg}; agreement with the batched runtimes
    localizes it to the VMs. *)

val run :
  ?max_steps:int ->
  Prim.registry ->
  Cfg.program ->
  member:int ->
  args:Tensor.t list ->
  Tensor.t list
(** Execute the entry function on one example (element-shaped inputs, no
    batch dimension); [member] selects RNG streams. *)
