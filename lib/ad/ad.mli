(** Reverse-mode automatic differentiation over {!Tensor}.

    A classic tape: forward evaluation records each operation; a backward
    sweep from a scalar output accumulates adjoints. Used to derive and
    cross-check the evaluation models' hand-written gradients and available
    to users who want gradients of their own target densities.

    Binary operations broadcast like {!Tensor.map2}; the backward pass sums
    adjoints over the broadcast axes so gradients always match the primal
    input shapes. *)

type tape
type var

val new_tape : unit -> tape

val input : tape -> Tensor.t -> var
(** A differentiable input (leaf). *)

val const : tape -> Tensor.t -> var
(** A non-differentiated constant. *)

val value : var -> Tensor.t

(** {1 Operations} *)

val add : var -> var -> var
val sub : var -> var -> var
val mul : var -> var -> var
val div : var -> var -> var
val neg : var -> var
val exp : var -> var
val log : var -> var
val sqrt : var -> var
val square : var -> var
val sigmoid : var -> var
val log_sigmoid : var -> var
val tanh : var -> var
val sum : var -> var
(** Full reduction to a scalar. *)

val dot : var -> var -> var
(** Rank-1 inner product. *)

val matvec : var -> var -> var
(** [matvec a x] with [a : [n;k]], [x : [k]]. *)

val matmul : var -> var -> var
val mul_scalar : var -> float -> var
val add_scalar : var -> float -> var

(** {1 Differentiation} *)

val grad : output:var -> inputs:var list -> Tensor.t list
(** Backward sweep from a one-element [output]; returns [d output / d x]
    for each input, shaped like the input. Raises [Invalid_argument] if
    [output] is not one element or an input is a constant of another
    tape. *)

val grad1 : (tape -> var -> var) -> Tensor.t -> Tensor.t
(** [grad1 f x]: gradient of the scalar function [fun x -> f tape x] at
    [x] — convenience wrapper building its own tape. *)

val finite_diff : (Tensor.t -> float) -> ?eps:float -> Tensor.t -> Tensor.t
(** Central finite differences, for testing gradients against. *)
