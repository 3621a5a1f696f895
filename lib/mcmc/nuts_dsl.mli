(** NUTS written in the autobatching surface language — the paper's
    centrepiece workload ("the standard presentation is a complex
    recursive function, prohibitively difficult to batch by hand").

    The generated program contains the recursive [build_tree] of Hoffman &
    Gelman's Algorithm 3 (with the paper's multi-step leaves), a trajectory
    doubling loop, and an outer chain loop; the batching runtimes do the
    rest mechanically. Every expression mirrors {!Nuts}, so a chain run
    under either VM is bitwise identical to the reference sampler with the
    same RNG key and member index.

    Program signature:
    {v
    nuts_chain(q0 : [d], eps : [], n_iter : [], n_burn : [], cnt0 : [],
               minv : [d])
      -> (q : [d], sum_q : [d], sum_qsq : [d], cnt : [])
    v}
    [minv] is the diagonal inverse mass matrix (pass ones for identity —
    the identity is bitwise-exact, see {!Nuts.config}).
    [sum_q]/[sum_qsq] accumulate the position and its square after each
    trajectory with index ≥ [n_burn] — enough for posterior means and
    variances without per-iteration output storage. *)

type params = {
  max_depth : int;
  leaf_steps : int;
  delta_max : float;
  variant : Nuts.variant;  (** the paper's slice sampler, or multinomial *)
}

val program : ?params:params -> unit -> Lang.program

val params_of_config : Nuts.config -> params
(** Drop the step size (a runtime input of the generated program). *)

val setup : ?seed:int64 -> model:Model.t -> unit -> Prim.registry * Counter_rng.key
(** A standard registry extended with the model's [logp]/[grad] primitives,
    plus the RNG key that {!Nuts} must use to reproduce the same chains. *)

val input_shapes : model:Model.t -> Shape.t list
(** Element shapes of the six program inputs, for compilation. *)

val inputs :
  ?minv:Tensor.t ->
  q0:Tensor.t ->
  eps:float ->
  n_iter:int ->
  n_burn:int ->
  batch:int ->
  unit ->
  Tensor.t list
(** Build the batched input tensors: [q0] (shape [[d]]) and [minv]
    (default ones) are shared by all chains, counters start at 0. *)
