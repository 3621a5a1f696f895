(** The paper's second test problem: Bayesian logistic regression on
    synthetic data (the paper uses 10,000 data points and 100 regressors).

    Model: y_i ~ Bernoulli(σ(x_i · β)), prior β ~ N(0, I).
    Log density: Σ_i [y_i log σ(z_i) + (1-y_i) log σ(-z_i)] − βᵀβ/2,
    gradient: Xᵀ(y − σ(z)) − β, with z = X β.

    The batched forms are two dense matmuls per evaluation, which is what
    gives the GPU its linear batch scaling in Figure 5.

    Each row of a batched form carries the bits of the single-chain form
    on that row ([models-rows]); the kernels keep the order and operands
    of the [Tensor] operations they replace. For a batch of [zb] members
    and [n] data points, [grad_batch] allocates two [[zb; n]] buffers (the
    logits and their sigmoid, overwritten in place by the residual
    [y - σ(z)]) and its [[zb; dim]] result (the residual times [X],
    minus [β] in place). [logp_batch] allocates three [[zb; n]] buffers
    (the logits, their negation and its log-sigmoid) and its [[zb]]
    result, filled in one pass per row: the data term, then the prior. *)

type data = {
  x : Tensor.t;         (** design matrix [n; dim] *)
  y : Tensor.t;         (** labels [n], entries 0/1 *)
  beta_true : Tensor.t; (** generating coefficients [dim] *)
}

val synth : ?seed:int64 -> n:int -> dim:int -> unit -> data
(** Synthesize a dataset: true β ~ N(0,1), x ~ N(0,1)/√dim (unit-scale
    logits), y ~ Bernoulli(σ(x·β)). Deterministic in [seed]. *)

val model_of_data : data -> Model.t
(** The posterior for a dataset. The handler-DSL [spec] declares the
    latent site [beta], applies the design matrix through a
    {!Eff.data_matvec} primitive, and observes [y] under
    [Dist.Bernoulli_logit]. *)

val model : ?seed:int64 -> n:int -> dim:int -> unit -> Model.t
(** [model_of_data (synth ?seed ~n ~dim ())]. *)
