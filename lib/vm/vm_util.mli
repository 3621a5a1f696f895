(** Shared helpers for the autobatching runtimes (mask bookkeeping, the
    whole-batch input check, and the cost model's byte accounting). *)

val bytes_per_elem : float
(** Every element is a float64. *)

val tensors_bytes : Tensor.t list -> float
(** The bytes the tensors hold: what a lane refill writes or a retire
    reads back. *)

val batch_size : who:string -> Tensor.t list -> int
(** The common leading dimension of a runtime's whole-batch inputs.
    Raises [Invalid_argument], prefixed with [who], when there is no
    input, an input is a scalar, the batch is empty, or the inputs
    disagree on it. *)

val indices_of_mask : bool array -> int array
(** Positions of the set lanes, in order. *)

val count_mask : bool array -> int

val blit_active_rows : active:int array -> n:int -> src:Tensor.t -> dst:Tensor.t -> unit
(** Copy rows [active.(0)] .. [active.(n-1)] of [src] into the same rows
    of [dst] (equal shapes), leaving every other row of [dst] untouched.
    The work is proportional to [n], not to the row count: rows of one
    element are assigned directly, and [n] equal to the row count (the
    list then names every row) is one whole-array blit. *)

val masked_write_bytes : lanes:int -> row:int -> float
(** Traffic of a masked write in a static-shape (XLA-style) system: a
    select reads old and new and writes the result. *)

val stack_move_bytes : lanes:int -> row:int -> float
(** Traffic of a batched stack push/pop: one row per lane moves between
    the stack body and the cached top, read plus write. *)

val elem_shape_of_batched : Tensor.t -> Shape.t
(** Drop the leading batch dimension. *)
