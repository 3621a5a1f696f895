(** Ablation studies for the design choices the paper discusses
    qualitatively (DESIGN.md A1–A3). All run auto-batched NUTS on the
    correlated Gaussian.

    Each function returns a (header, rows) table, printed by {!print}. *)

type table = { header : string list; rows : string list list }

val masking_vs_gather :
  ?dim:int -> ?batch:int -> ?n_iter:int -> ?seed:int64 -> unit -> table
(** The paper's "first free choice" (§2): execute primitives on all lanes
    and mask, or gather active lanes, compute small, and scatter back.
    Columns: simulated seconds on CPU-eager, arithmetic performed,
    bookkeeping traffic, and gradient-lane waste. *)

val schedulers :
  ?dim:int -> ?batch:int -> ?n_iter:int -> ?seed:int64 -> unit -> table
(** The paper's "second free choice" (§2): which runnable block to execute
    next, under the program-counter VM. *)

val stack_optimizations :
  ?dim:int -> ?batch:int -> ?n_iter:int -> ?seed:int64 -> unit -> table
(** The five compiler optimizations of §3, toggled individually:
    O2 temporaries, O3 save-liveness, O4 top-of-stack cache,
    O5 pop–push cancellation. *)

val print : Format.formatter -> title:string -> table -> unit
