(** The flat stack-machine IR of the paper's Figure 4.

    All functions' control-flow graphs are merged into one block array;
    [Call] is gone, replaced by explicit per-variable stack saves
    ([Spush]/[Spop], caller-saves discipline) and program-counter stack
    manipulation ([Spushjump]/[Sreturn]).

    Writes ([Sprim]/[Sconst]/[Smov]) update the destination's *top* value
    in place — this is the post-O5 form in which pop–push pairs have been
    cancelled into updates; the runtime can optionally execute the naive
    pre-O5 form for the ablation study.

    The conventional halt program-counter value is [Array.length blocks];
    the runtime seeds each batch member's pc stack with [halt; entry]. *)

type op =
  | Sprim of { dst : string; prim : string; args : string list }
  | Sconst of { dst : string; value : Tensor.t }
  | Smov of { dst : string; src : string }
  | Spush of string  (** duplicate the variable's top (caller save) *)
  | Spop of string   (** drop the top, restoring the saved value *)

type terminator =
  | Sjump of int
  | Sbranch of { cond : string; if_true : int; if_false : int }
  | Spushjump of { ret : int; entry : int }
      (** replace pc top with [ret], then push [entry] *)
  | Spushbranch of { ret : int; cond : string; if_true : int; if_false : int }
      (** replace pc top with [ret], then push [if_true] or [if_false]
          per lane by [cond] — a call whose callee entry has been fused
          into the call site ({!module:Fuse} entry duplication), so the
          superstep that makes the call also executes the callee's first
          block and takes its branch *)
  | Sreturn  (** pop the pc stack *)

type block = { ops : op list; term : terminator }

type program = {
  blocks : block array;
  classes : Var_class.t Ir_util.Smap.t;
  shapes : Shape.t Ir_util.Smap.t;  (** element shapes, where inferred *)
  inputs : string list;             (** entry parameters (namespaced) *)
  outputs : string list;            (** entry result variables *)
  origin : (string * int) array;    (** per block: source function and its local block *)
  func_entries : (string * int) list;  (** function name -> merged entry block *)
}

val halt : program -> int
val class_of : program -> string -> Var_class.t
(** Defaults to [Masked] for variables missing from the map. *)

val op_defs : op -> string list

val stats : program -> int * int * int
(** Counts of (temp, masked, stacked) variables. *)

val pp_op : Format.formatter -> op -> unit
val pp_program : Format.formatter -> program -> unit
