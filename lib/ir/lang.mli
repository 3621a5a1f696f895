(** The surface language: a small imperative language with data-dependent
    control flow and (mutual) recursion, embedded in OCaml.

    This plays the role of the paper's Python frontend: user programs are
    written against this AST (most conveniently with the {!Infix}
    combinators) and then mechanically batched by compiling to the
    control-flow-graph IR of the paper's Figure 2 ({!Cfg}) and onward to
    the stack-machine IR of Figure 4 ({!Stack_ir}).

    Values are tensors (per-example element shapes; the batch dimension is
    added by the runtimes, never written by the user). Conditions are
    scalar tensors, false iff 0. *)

type expr =
  | Var of string
  | Const of float                 (** scalar literal *)
  | Vec of float array             (** rank-1 literal *)
  | Prim of string * expr list     (** primitive application *)

type stmt =
  | Assign of string * expr
  | Call_stmt of string list * string * expr list
      (** [Call_stmt (dsts, f, args)]: multi-result user-function call.
          Function calls are statements, not expressions, because they are
          control flow (the batching runtimes schedule them). *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of stmt_return

and stmt_return = expr list

type func = { fname : string; params : string list; body : stmt list }

type program = { funcs : func list; main : string }

(** {1 Builders} *)

val func : string -> params:string list -> stmt list -> func
val program : main:string -> func list -> program

val var : string -> expr
val flt : float -> expr
val vec : float array -> expr
val prim : string -> expr list -> expr

val assign : string -> expr -> stmt
val call : string list -> string -> expr list -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt
val while_ : expr -> stmt list -> stmt
val return_ : expr list -> stmt

(** Infix operators over {!expr}; open locally when writing programs. *)
module Infix : sig
  val ( + ) : expr -> expr -> expr
  val ( - ) : expr -> expr -> expr
  val ( * ) : expr -> expr -> expr
  val ( / ) : expr -> expr -> expr
  val ( ~- ) : expr -> expr
  val ( = ) : expr -> expr -> expr
  val ( <> ) : expr -> expr -> expr
  val ( < ) : expr -> expr -> expr
  val ( <= ) : expr -> expr -> expr
  val ( > ) : expr -> expr -> expr
  val ( >= ) : expr -> expr -> expr
  val ( && ) : expr -> expr -> expr
  val ( || ) : expr -> expr -> expr
  val not_ : expr -> expr
end

(** {1 Inspection} *)

val find_func : program -> string -> func option
val func_names : program -> string list

val pp_program : Format.formatter -> program -> unit
