(** Lowering from the Figure-2 CFG to the Figure-4 stack IR.

    All function CFGs are merged into one block array (entry function
    first, blocks in source order — preserving the "earliest block"
    scheduling heuristic). Each [Call] op splits its block:

    - before the jump: argument staging (through fresh temporaries only
      when an argument aliases a callee parameter), caller-saves [Spush]es
      of the variables in the call's save set, parameter moves, and a
      [Spushjump] whose return address is the continuation segment;
    - the continuation segment starts with the matching [Spop]s and moves
      of the callee's result variables into the call destinations.

    The save set of a call site is the set of caller variables live after
    the call (minus its destinations), filtered — when optimization O3 is
    enabled — to call sites whose callee can re-enter the caller
    ({!Callgraph.may_clobber_caller}).

    Storage classes: a variable is [Stacked] iff it appears in some save
    set; [Temp] (with O2) iff it is never live across a block boundary nor
    across any call site of its function; otherwise [Masked]. *)

type options = {
  detect_temporaries : bool;  (** O2; off ⇒ no [Temp] class *)
  save_live_only : bool;
      (** O3; off ⇒ every call site saves all non-temporary caller
          variables (except call destinations and result variables), so
          every one of them becomes [Stacked]. *)
}

val default_options : options

val lower :
  ?options:options ->
  ?shapes:Shape.t Ir_util.Smap.t ->
  Cfg.program ->
  Stack_ir.program
(** [shapes] (from {!Shape_infer.infer}) is threaded through for storage
    preallocation; argument-staging temporaries inherit their source's
    shape. *)
