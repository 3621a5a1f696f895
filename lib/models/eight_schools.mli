(** The eight-schools hierarchical model (Rubin 1981; Gelman et al.), on
    the canonical dataset — the textbook posterior with a funnel-shaped
    geometry that NUTS was built for, here in the standard non-centered
    parameterization:

    {v
    y_j ~ N(mu + tau * t_j, sigma_j^2)      (observed effects)
    t_j ~ N(0, 1)                           (standardized school effects)
    mu  ~ N(0, 25^2) (weak),  tau ~ half-Cauchy(5),  tau = exp(log_tau)
    v}

    Position vector (10 coordinates): [[mu; log_tau; t_1; …; t_8]], with
    the Jacobian of the [log_tau] transform included in the density. *)

val model : unit -> Model.t
(** The model on the classic data: y = 28, 8, -3, 7, -1, 1, 18, 12 and
    sigma = 15, 10, 16, 11, 9, 11, 10, 18. Carries a handler-DSL [spec]
    with latent sites [mu], [log_tau] and [t] (8-vector). *)

val y : float array
(** Observed treatment effects. *)

val sigma : float array
(** Their standard errors. *)

val school_effects : Tensor.t -> Tensor.t
(** Map a position (or posterior-mean) vector to the 8 school effects
    [theta_j = mu + exp(log_tau) * t_j]. *)
