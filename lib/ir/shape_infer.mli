(** Interprocedural element-shape inference on the CFG.

    Assigns every reachable variable a static element shape (no batch
    dimension), mirroring XLA's static-shape requirement that motivates the
    paper's masking-style execution. Inference is a fixpoint: recursive
    functions get their result shapes from their base cases.

    The runtimes use the result to preallocate batched storage and to price
    bookkeeping traffic; variables left unresolved (possible only in dead
    or never-returning code) get no storage, and the program-counter VM
    refuses to touch them. *)

exception Error of string

val infer :
  Prim.registry -> Cfg.program -> inputs:Shape.t list -> Shape.t Ir_util.Smap.t
(** [infer reg p ~inputs] maps (namespaced) variables to element shapes,
    seeding the entry function's parameters with [inputs]. Raises {!Error}
    on arity mismatch, conflicting assignments, a primitive shape error, or
    a non-scalar branch condition. *)
