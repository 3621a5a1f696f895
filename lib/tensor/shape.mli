(** Tensor shapes and index arithmetic.

    A shape is an array of non-negative dimension sizes, outermost first
    (row-major layout). The empty array [[||]] is the shape of a scalar. *)

type t = int array

val scalar : t
(** Shape of a scalar tensor. *)

val numel : t -> int
(** Total number of elements: product of dimensions (1 for a scalar). *)

val rank : t -> int
(** Number of dimensions. *)

val equal : t -> t -> bool

val validate : t -> unit
(** Raise [Invalid_argument] if any dimension is negative. *)

val strides : t -> int array
(** Row-major strides; [strides s].(i) is the linear-offset step for a unit
    move along dimension [i]. The stride of a size-1 dimension is still its
    mathematical stride (broadcast handling is done separately). *)

val ravel : t -> int array -> int
(** [ravel shape idx] is the linear offset of multi-index [idx].
    Raises [Invalid_argument] on rank mismatch or out-of-bounds. *)

val unravel : t -> int -> int array
(** Inverse of {!ravel} for in-range linear offsets. *)

val broadcast2 : t -> t -> t
(** Numpy-style broadcast of two shapes. Dimensions are aligned at the
    trailing end; a dimension broadcasts against an equal one or against 1,
    and 1 against 0 gives 0. Raises [Invalid_argument] when the shapes are incompatible. *)

val remove_axis : t -> int -> t
(** Shape with dimension [axis] removed, e.g. for a reduction along it. *)

val concat_outer : int -> t -> t
(** [concat_outer n s] prepends a leading dimension of size [n]. *)

val drop_outer : t -> t
(** Remove the leading dimension. Raises [Invalid_argument] on scalars. *)

val to_string : t -> string
(** E.g. ["[2;3]"]; ["[]"] for scalars. *)
