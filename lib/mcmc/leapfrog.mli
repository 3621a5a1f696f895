(** The leapfrog (Störmer–Verlet) integrator for Hamiltonian dynamics with
    identity mass matrix.

    The step size carries the integration direction in its sign. The
    arithmetic is written to match {!Nuts_dsl}'s generated program
    operation-for-operation, so reference and autobatched samplers agree
    bitwise. *)

val steps :
  grad:(Tensor.t -> Tensor.t) ->
  n:int ->
  eps:float ->
  q:Tensor.t ->
  p:Tensor.t ->
  Tensor.t * Tensor.t
(** [n] full leapfrog steps from [(q, p)] with identity mass; returns the
    new state. Uses [n + 1] gradient evaluations (no caching across
    calls). Bitwise equal to {!steps_mass} with a unit [minv]. *)

val steps_mass :
  grad:(Tensor.t -> Tensor.t) ->
  minv:Tensor.t ->
  n:int ->
  eps:float ->
  q:Tensor.t ->
  p:Tensor.t ->
  Tensor.t * Tensor.t
(** As {!steps} with a diagonal inverse mass matrix [minv] (the estimated
    posterior variances): positions advance along the velocity
    [minv ⊙ p]. *)

val log_joint : logp:(Tensor.t -> float) -> q:Tensor.t -> p:Tensor.t -> float
(** [logp q - 0.5 p·p] — the negative Hamiltonian (identity mass). *)

val log_joint_mass :
  logp:(Tensor.t -> float) -> minv:Tensor.t -> q:Tensor.t -> p:Tensor.t -> float
