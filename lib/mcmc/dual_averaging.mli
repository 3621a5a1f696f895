(** Nesterov-style dual averaging for step-size adaptation
    (Hoffman & Gelman 2014, §3.2).

    Drives the acceptance statistic of an HMC/NUTS chain toward a target
    by adapting [log eps]; after warmup, {!adapted_eps} returns the
    averaged iterate to freeze for sampling. *)

type t

val create :
  ?target_accept:float ->
  ?gamma:float ->
  ?t0:float ->
  ?kappa:float ->
  mu:float ->
  unit ->
  t
(** Defaults: target 0.8, gamma 0.05, t0 10, kappa 0.75.
    [mu] is the shrinkage point, conventionally [log (10 * eps0)]. *)

val update : t -> accept_stat:float -> unit
(** Feed one iteration's acceptance statistic (clamped to [0,1]). *)

val current_eps : t -> float
(** The exploring step size for the next warmup iteration. *)

val adapted_eps : t -> float
(** The averaged step size to use after warmup. *)
