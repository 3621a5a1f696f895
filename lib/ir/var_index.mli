(** One CFG function's variables numbered [0 .. n-1] once, each op's
    definitions and uses as index arrays, and bitsets over that
    numbering: the dense form the dataflow passes ({!Liveness},
    {!Validate.check_defined_before_use}) run their fixpoints on instead
    of string sets. *)

type t

val number : Cfg.func -> t
(** Numbers every variable defined or used in the function, the set of
    {!Cfg.all_vars}, in first-occurrence order: parameters, then each
    block's ops and terminator. *)

val name : t -> int -> string

val params : t -> int array

val op_defs : t -> block:int -> int array array
(** Per op of block [block], in order: its {!Cfg.op_defs} as indices. *)

val op_uses : t -> block:int -> int array array
(** Per op of block [block], in order: its {!Cfg.op_uses} as indices. *)

val term_uses : t -> block:int -> int array
(** The block's {!Cfg.term_uses} as indices. *)

(** {1 Bitsets over the numbering}

    A bitset is a fixed-width word array; every operation takes sets of
    one numbering. *)

type bits = int array

val empty : t -> bits
val full : t -> bits
(** Every numbered variable. *)

val mem : bits -> int -> bool
val add_all : bits -> int array -> unit
val remove_all : bits -> int array -> unit

val union_into : bits -> bits -> unit
(** [union_into dst src]: [dst := dst ∪ src]. *)

val to_sset : t -> bits -> Ir_util.Sset.t
