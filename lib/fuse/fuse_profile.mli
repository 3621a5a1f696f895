(** Execution profiles consumed by the fusion compiler ({!module:Fuse}).

    Profile-guided fusion weighs candidate regions by how hot they ran: a
    profile maps source locations to attributed simulated time (or any
    non-negative weight). Two interchange formats are accepted:

    - {b folded stacks}, the [experiments profile --folded FILE] export
      ({!Obs_prof.folded}): one [frame;frame;...;fn#k <weight>] line per
      stack, where the leaf frame [fn#k] names a function and its
      function-local block index;
    - {b JSON}: either a list of [{"fn": .., "block": .., "weight": ..}]
      objects or an object [{"blocks": [...]}] wrapping the same list
      ([block] may be omitted to weight a whole function).

    Block indices refer to the program the profile was taken on; after a
    re-compile with fusion the block numbering shifts, so fusion decisions
    key on the stable identifier — the function name — via
    {!func_weight}, and per-block weights are kept for reporting. *)

type t

val is_empty : t -> bool

val of_blocks : ((string * int) * float) list -> t
(** Build a profile from explicit [((fn, block), weight)] pairs. *)

val of_folded : string -> t
(** Parse folded-stacks contents. Unparseable lines are skipped; a leaf
    frame without [#k] weights the whole function. *)

val parse : string -> (t, string) result
(** Sniff the contents: JSON when the first non-blank byte is ['{'] or
    ['['], folded stacks otherwise. *)

val load : path:string -> (t, string) result
(** [parse] on a file's contents; [Error] on IO failure. *)

val func_weight : t -> string -> float
(** Total weight attributed to a function (0. when absent). *)

val block_weight : t -> fn:string -> block:int -> float
