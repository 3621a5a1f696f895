(** Symbolic distributions for the effect-handler model DSL ({!Eff}).

    A distribution's parameters are IR expressions ({!Lang.expr}), so a
    model body can use program variables, data constants, or arbitrary
    primitive expressions as locations and scales. [log_prob] produces the
    *per-element* log density as an expression over the standard primitive
    vocabulary; {!Eff} sum-reduces it over vector sites when scoring.

    All densities are normalized (constants included). The hand-written
    reference densities in [lib/models] drop some constants, so elaborated
    and hand log densities agree on *differences* (and therefore on every
    MCMC acceptance decision), not necessarily on absolute values. *)

type value = Lang.expr

type t =
  | Normal of value * value
      (** [Normal (loc, scale)] — elementwise; parameters broadcast
          against the site shape. *)
  | Half_cauchy of value
      (** [Half_cauchy scale] on (0, ∞). *)
  | Log_half_cauchy of value
      (** The site value is [log tau] with [tau ~ Half_cauchy scale]; the
          density includes the exp-transform Jacobian. Sampling in
          unconstrained space, as eight-schools does with [log_tau]. *)
  | Exponential of value  (** [Exponential rate]. *)
  | Uniform  (** Uniform on (0,1); zero log density on its support. *)
  | Bernoulli_logit of value
      (** [Bernoulli_logit logit] over values in {0,1};
          [log_prob v = log_sigmoid (-logit) + v * logit]. *)
  | Flat
      (** Improper flat density (score 0) — for sites whose "density" is
          supplied separately via {!Eff.factor}, and for pure
          control-flow programs with no probabilistic semantics. *)

val log_prob : t -> value -> value
(** Per-element log density at a value expression. *)

val to_string : t -> string
