(** Semantics-preserving CFG optimizations.

    Run between {!Lower_cfg} and {!Lower_stack} to shrink the per-block op
    lists the batching runtimes execute — every removed op saves a batched
    kernel on every VM step that runs its block.

    - {b constant folding}: a deterministic primitive whose arguments are
      all block-local constants is evaluated at compile time (exactly the
      arithmetic the runtime would do, so results stay bitwise identical);
    - {b common-subexpression elimination}: a deterministic primitive
      recomputing an expression already available in the block becomes a
      move from the earlier result;
    - {b copy propagation}: uses of a moved variable read the source
      directly, within the block;
    - {b dead code elimination}: pure ops (primitives, constants, moves)
      whose destination is dead are dropped. Calls are never dropped.

    RNG primitives are never folded ([Prim.deterministic = false]): their
    value depends on the batch member. *)

val run : ?rounds:int -> Prim.registry -> Cfg.program -> Cfg.program
(** Iterate fold → CSE → propagate → eliminate until a fixpoint or
    [rounds] (default 4) iterations. *)

val count_ops : Cfg.program -> int
(** Total ops across all functions (for measuring shrinkage). *)

val func_op_counts : Cfg.program -> (string * int) list
(** Op count per function, in program order. *)

val block_op_counts : Cfg.program -> (string * int array) list
(** Op count per block of each function, in program order — the
    per-block granularity the fusion reports attribute shrinkage with. *)
