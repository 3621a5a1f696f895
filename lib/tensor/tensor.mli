(** Dense row-major float64 tensors with numpy-style broadcasting.

    This is the data substrate the autobatching runtimes execute on: every
    program variable holds one tensor whose leading dimension is the batch
    dimension. Booleans are represented as 0.0/1.0 and small integers
    exactly in float64 (exact up to 2^53); see DESIGN.md section 1.

    Kernel contract. Every operation returns a fresh tensor, except
    {!create} (wraps the given array), {!reshape} (a view of the same
    buffer), {!data} (the buffer itself) and the in-place {!set},
    {!blit_rows_masked} and {!blit_rows_indexed}.
    Each output element sees a fixed sequence of IEEE operations on fixed
    operands, independent of layout, broadcasting and fast paths:
    elementwise ops apply their float function once to the operands that
    meet at that element; broadcasting only decides which operand elements
    meet, never the order or the operations; {!matmul} sums
    [a.(i).(l) *. b.(l).(j)] in ascending [l] starting from [0.] (bitwise
    equal to {!matvec} on each column); axis reductions fold from the
    identity in ascending index order. So results are bitwise
    reproducible, signed zeros and NaN payloads included. *)

type t

(** {1 Construction} *)

val create : Shape.t -> float array -> t
(** [create shape data] wraps [data] (not copied). Raises
    [Invalid_argument] if [Array.length data <> Shape.numel shape]. *)

val zeros : Shape.t -> t
val ones : Shape.t -> t
val full : Shape.t -> float -> t
val scalar : float -> t
(** Rank-0 tensor. *)

val of_array : Shape.t -> float array -> t
(** Like {!create} but copies the data. *)

val of_list : float list -> t
(** Rank-1 tensor from a list. *)

val init : Shape.t -> (int array -> float) -> t
(** [init shape f] fills each multi-index [i] with [f i]. *)

val arange : int -> t
(** [arange n] is the rank-1 tensor [0.; 1.; ...; n-1.]. *)

val eye : int -> t
(** Identity matrix of size [n]. *)

(** {1 Inspection} *)

val shape : t -> Shape.t
val rank : t -> int
val numel : t -> int
val data : t -> float array
(** The underlying buffer (shared, not a copy). Use with care. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val item : t -> float
(** The single element of a one-element tensor; raises otherwise. *)

val copy : t -> t
val reshape : t -> Shape.t -> t
(** Same buffer, new shape; raises if element counts differ. *)

val to_flat_list : t -> float list

(** {1 Elementwise with broadcasting} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Numpy-style broadcasting; raises on incompatible shapes. The result
    shape is always [Shape.broadcast2] of the operand shapes. [map] and
    [map2] call their closure per element; the named operations below run
    the same loops with the float function inlined. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> t -> t
val maximum : t -> t -> t
val minimum : t -> t -> t
val neg : t -> t
val abs : t -> t
val sign : t -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val square : t -> t
val sigmoid : t -> t
val tanh : t -> t
val tan : t -> t
val log1p : t -> t
val floor : t -> t
val ceil : t -> t
val round : t -> t
(** [Float.round]: half away from zero. *)

val log_sigmoid : t -> t
(** Numerically stable [log (sigmoid x)]. *)

val sigmoid_f : float -> float
val log_sigmoid_f : float -> float
val logaddexp_f : float -> float -> float
(** Scalar versions of the stable sigmoid/log-sigmoid/log-sum-exp-of-two,
    for reuse in primitive definitions. *)

val logaddexp : t -> t -> t
(** Elementwise stable [log (exp a + exp b)] with broadcasting. *)

val add_scalar : t -> float -> t
val mul_scalar : t -> float -> t

(** {1 Comparison and logic (results are 0/1 tensors)} *)

val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t
val where : t -> t -> t -> t
(** [where cond a b]: elementwise [a] where [cond] is non-zero else [b],
    all three broadcast together. *)

(** {1 Reductions} *)

val sum : ?axis:int -> t -> t
val mean : ?axis:int -> t -> t
(** Without [axis]: full reduction to a scalar tensor. With [axis]: that
    dimension is removed. Reducing an empty axis yields 0 (or NaN for
    mean). *)

(** {1 Linear algebra (rank-2 / rank-1)} *)

val matmul : t -> t -> t
(** [matmul a b] for [a : [n;k]] and [b : [k;m]] is [[n;m]]. It runs in
    register tiles of two rows by four columns, and each output still
    sums in ascending [l] from [0.], with [a]'s element the first
    operand of each product. *)

val matvec : t -> t -> t
(** [matvec a x] for [a : [n;k]] and [x : [k]] is [[n]]. *)

val dot : t -> t -> t
(** Inner product of two rank-1 tensors of equal length (scalar result). *)

val transpose : t -> t
(** Rank-2 transpose. *)

val outer : t -> t -> t
(** Outer product of two rank-1 tensors. *)

(** {1 Rows: operations along the leading (batch) axis} *)

val nrows : t -> int
(** Size of the leading dimension; 1 for scalars. *)

val row_numel : t -> int
(** Elements per leading-axis slice. *)

val take_rows : t -> int array -> t
(** [take_rows t idx] gathers rows [idx] along axis 0. *)

val blit_rows_masked : mask:bool array -> src:t -> dst:t -> unit
(** In-place masked row update: [dst.(i) <- src.(i)] where [mask.(i)].
    This is the VM's hot-path masked write. *)

val blit_rows_indexed : idx:int array -> src:t -> dst:t -> unit
(** In-place scatter: row [i] of [src] overwrites row [idx.(i)] of [dst].
    The gather/scatter execution style's hot-path write. *)

val stack_rows : t list -> t
(** Stack equal-shaped tensors along a new leading axis. *)

val concat_rows : t list -> t
(** Concatenate along the existing leading axis. *)

val slice_row : t -> int -> t
(** [slice_row t i] is slice [i] along axis 0 (rank decreases by one). *)

val broadcast_rows : t -> int -> t
(** [broadcast_rows t z]: tile a tensor of shape [s] to shape [z :: s]. *)

(** {1 Comparison helpers} *)

val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Shape-equal and elementwise [|a-b| <= atol + rtol*|b|]; NaNs compare
    equal to NaNs (so reference comparisons survive masked junk lanes must
    not — NaN vs number is unequal). Defaults: rtol 1e-9, atol 1e-12. *)

val equal : t -> t -> bool
(** Exact structural equality (shape and bits, NaN = NaN). *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
(** Shape-prefixed, elided for large tensors. *)

val to_string : t -> string
