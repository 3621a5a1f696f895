(** High-level batched MCMC: the one-call API a downstream user wants.

    [run] adapts (step size + diagonal metric, {!Warmup}), compiles the
    autobatched NUTS program for the model, executes all chains in lockstep
    under the program-counter VM, and summarizes the posterior.

    Two collection modes expose the paper's central trade-off:

    - [`Moments] (default): the whole chain — all trajectories — runs as
      one autobatched program, so gradient evaluations batch across
      trajectory boundaries (maximum utilization, Figure 6's
      program-counter curve). Only running moments come back.
    - [`Samples]: the driver invokes the program one trajectory at a time
      and collects every position, enabling ESS and split R-hat — at the
      cost of synchronizing chains on trajectory boundaries, exactly the
      local-static limitation the paper describes. *)

type summary = {
  mean : Tensor.t;             (** posterior mean, shape [dim] *)
  variance : Tensor.t;         (** posterior variance, shape [dim] *)
  chains : int;
  kept_draws : int;            (** total post-burn draws across chains *)
  eps : float;                 (** step size used *)
  minv : Tensor.t;             (** inverse mass used *)
  grad_utilization : float;    (** useful / issued gradient lanes *)
  ess : float array option;    (** per-coordinate ESS ([`Samples] only) *)
  split_rhat : float array option;  (** per-coordinate ([`Samples] only) *)
  samples : Tensor.t array array option;
      (** [`Samples] only: [samples.(chain).(iter)] *)
}

val run :
  ?seed:int64 ->
  ?variant:Nuts.variant ->
  ?adapt:bool ->
  ?collect:[ `Moments | `Samples ] ->
  ?devices:int ->
  ?q0:Tensor.t ->
  model:Model.t ->
  chains:int ->
  n_iter:int ->
  n_burn:int ->
  unit ->
  summary
(** Defaults: slice variant, adaptation on, [`Moments], one device,
    [q0] zero. [n_iter] counts post-warmup trajectories per chain; the
    first [n_burn] of them are excluded from the summary. With
    [devices > 1] the chain dimension is sharded across that many
    simulated devices ({!Sched_vm}'s static partition); the summary is
    bitwise identical to the single-device run. *)

val pp_summary : Format.formatter -> summary -> unit
