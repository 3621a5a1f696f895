(** The paper's second test problem: Bayesian logistic regression on
    synthetic data (the paper uses 10,000 data points and 100 regressors).

    Model: y_i ~ Bernoulli(σ(x_i · β)), prior β ~ N(0, I).
    Log density: Σ_i [y_i log σ(z_i) + (1-y_i) log σ(-z_i)] − βᵀβ/2,
    gradient: Xᵀ(y − σ(z)) − β, with z = X β.

    The batched forms are two dense matmuls per evaluation, which is what
    gives the GPU its linear batch scaling in Figure 5. *)

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
