(** Dense Cholesky factorization and triangular solves.

    Used by the correlated-Gaussian evaluation model: sampling needs the
    lower factor [L] with [L Lᵀ = Σ], and the log-density needs
    [Σ⁻¹ (q - μ)] and [log det Σ]. *)

val factor : Tensor.t -> Tensor.t
(** [factor a] returns the lower-triangular [l] with [l lᵀ = a] for a
    symmetric positive-definite rank-2 [a]. Raises [Invalid_argument] on a
    non-square input and [Failure] if a pivot is not positive. *)

val solve_lower : Tensor.t -> Tensor.t -> Tensor.t
(** [solve_lower l b] solves [l x = b] by forward substitution
    ([l] lower triangular, [b] rank-1). *)

val solve_upper : Tensor.t -> Tensor.t -> Tensor.t
(** [solve_upper u b] solves [u x = b] by back substitution
    ([u] upper triangular, [b] rank-1). *)

val inverse_from_factor : Tensor.t -> Tensor.t
(** [inverse_from_factor l] is [(l lᵀ)⁻¹], i.e. Σ⁻¹ given the factor. *)

val log_det_from_factor : Tensor.t -> float
(** [log det (l lᵀ) = 2 Σᵢ log lᵢᵢ]. *)
