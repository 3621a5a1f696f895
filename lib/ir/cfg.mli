(** The control-flow-graph IR of the paper's Figure 2 (n-ary form).

    A program is a set of functions; each function is an array of basic
    blocks of straight-line operations ending in a terminator. Variables
    are function-local and globally namespaced as ["fname/var"] by
    {!Lower_cfg}. Function results are communicated through designated
    result variables (["fname/$ret0" ...]) that hold the return values at
    every [Return] terminator.

    Block [Array.length blocks] (one past the last block) is the
    conventional "function exited" program-counter value, as in the
    paper's Algorithm 1. *)

type op =
  | Prim_op of { dst : string; prim : string; args : string list }
  | Const_op of { dst : string; value : Tensor.t }
      (** [value] is an element tensor (no batch dimension). *)
  | Mov of { dst : string; src : string }
  | Call_op of { dsts : string list; func : string; args : string list }

type terminator =
  | Jump of int
  | Branch of { cond : string; if_true : int; if_false : int }
  | Return

type block = { ops : op list; term : terminator }

type func = {
  name : string;
  params : string list;           (** namespaced *)
  result_vars : string list;      (** namespaced; hold return values at [Return] *)
  blocks : block array;
}

type program = { funcs : (string * func) list; entry : string }

val find_func : program -> string -> func option
val find_func_exn : program -> string -> func
val entry_func : program -> func

val block_base : program -> string -> int
(** Program-unique numbering of every function's blocks: block [k] of
    function [f] is [block_base p f + k], with functions laid end to end
    in [funcs] order. Raises [Invalid_argument] for an unknown name. *)

val exit_index : func -> int
(** The "done" program-counter value: [Array.length blocks]. *)

val op_defs : op -> string list
val op_uses : op -> string list
val term_uses : func -> terminator -> string list
(** [Return] uses the function's result variables. *)

val successors : func -> int -> int list
(** Successor block indices ([Return] has none). *)

val all_vars : func -> string list
(** Every variable defined or used in the function (params first, sorted
    and deduplicated after). *)

val n_ops : func -> int

val pp_op : Format.formatter -> op -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
