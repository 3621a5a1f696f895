(** Static call graph of a CFG program.

    Drives optimization O3: at a call site in [caller] targeting [callee],
    the caller's live variables need stack saves only when [callee] can
    transitively call back into [caller] (otherwise the callee cannot
    clobber the caller's variables, since variables are per-function). *)

type t

val build : Cfg.program -> t

val callees : t -> string -> Ir_util.Sset.t
(** Direct callees of a function. *)

val may_clobber_caller : t -> caller:string -> callee:string -> bool
(** Whether a call from [caller] to [callee] can re-enter [caller]
    (i.e. [caller] is reachable from [callee]). *)
