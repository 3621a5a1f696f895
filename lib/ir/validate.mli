(** Static validation of surface programs.

    [check_program reg p] collects every error it can find:
    - the entry function exists; function names are unique;
    - identifiers contain neither ['/'] nor ['$'] (reserved for the
      compiler's namespacing and generated variables);
    - parameter lists and call destination lists have no duplicates;
    - every call targets a known function with matching argument count and
      destination count (destination count = callee's return arity);
    - every function returns, all its returns have the same arity, and its
      top-level body ends in a [Return] (so control cannot fall off the
      end);
    - every primitive exists in [reg] with the right arity;
    - after lowering, every variable is defined before use along all
      reachable control-flow paths (a must-defined dataflow on the CFG).

    Returns [Ok ()] or [Error msgs]. *)

val check_program : Prim.registry -> Lang.program -> (unit, string list) result

val check_exn : Prim.registry -> Lang.program -> unit
(** Raises [Invalid_argument] with the concatenated messages. *)

val lower_exn : Prim.registry -> Lang.program -> Cfg.program
(** {!check_exn}, returning the program's {!Lower_cfg.lower}ed CFG — the
    one the dataflow check ran on — so a compile lowers once. Raises as
    {!check_exn} does. *)

val must_defined : Cfg.func -> Var_index.t -> Var_index.bits option array
(** The must-defined analysis behind the dataflow check, on [vars] (the
    function's {!Var_index.number}ing): per block, [Some] the variables
    every path from the entry has defined before the block starts, [None]
    for a block the entry cannot reach. {!Fuse_cfg}'s if-conversion reads
    it to prove a select's incoming value exists. *)

val check_defined_before_use : Cfg.func -> string list
(** The CFG-level must-defined check on one function; returns error
    messages (exposed for testing). *)
