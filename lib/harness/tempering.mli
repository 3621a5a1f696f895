(** Parallel tempering with replica exchange — the workload behind
    [experiments temper] and part of [bench eff].

    One handler-DSL sweep program (unrolled random-walk Metropolis with
    elaborated accept/reject branches) runs all temperature chains as
    batch members; the host attempts even-odd exchanges between
    adjacent temperatures from a counter-based key, pricing accepted
    exchanges as point-to-point transfers and the per-round cold-chain
    collection as an all-gather ({!Collectives}). Gated on the
    mixture's closed-form moments and on both modes being visited. *)

type config = {
  mu0 : float;  (** mode offset: 0.5 N(-mu0,1) + 0.5 N(mu0,1) *)
  chains : int;
  beta_min : float;  (** coldest-to-hottest geometric ladder floor *)
  sweep_steps : int;  (** RWM steps per elaborated sweep *)
  rounds : int;
  base_step : float;  (** RWM step sd at beta = 1 (scaled by 1/sqrt beta) *)
}

val default_config : config
(** mu0 3, 8 chains, beta floor 0.12, 10-step sweeps, 400 rounds. *)

val second_moment : config -> float
(** Closed form: [1 + mu0^2]. *)

type result = {
  config : config;
  swaps_attempted : int;
  swaps_accepted : int;
  cold_mean : float;  (** cold-chain sample mean (target: 0) *)
  cold_second_moment : float;  (** target: [second_moment c] *)
  mode_balance : float;  (** min(frac left, frac right) of cold samples *)
  exchange_seconds : float;  (** p2p pricing of accepted exchanges *)
  gather_seconds : float;  (** all-gather pricing of collection *)
  bitwise : (string * bool) list;  (** local/shard vs pc *)
}

val run : ?seed:int64 -> ?c:config -> ?mesh:Mesh.t -> unit -> result
(** Deterministic given [seed]; chains are laid out round-robin over
    the mesh (default 4-device GPU pod) for exchange pricing. *)

val passes :
  ?mean_tol:float -> ?m2_tol:float -> ?min_balance:float -> result -> bool
(** The [bench eff] gate: exchanges happened, cold-chain moments within
    tolerance of the closed form, both modes visited, all runtimes
    bitwise identical to the pc baseline. *)

val to_json : result -> Obs_json.t
val print : result -> unit
