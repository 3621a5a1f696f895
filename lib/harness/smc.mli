(** Bootstrap particle filter on a 1-D linear-Gaussian state-space
    model — the SMC workload behind [experiments smc] and [bench eff].

    The per-step transition + weighting program is elaborated from the
    handler DSL ({!Eff.run} in the seed interpretation), compiled once,
    and run over the particle batch by every runtime. Multinomial
    resampling happens on the host from a dedicated counter-based key;
    the resampled state is additionally round-tripped through the
    DESIGN.md S20 lane-migration seam ({!Pc_vm.Lanes.export_lane} /
    [import_lane] across pools), with each ancestor<>self move priced
    as a point-to-point transfer on the mesh. The Kalman filter's exact
    log marginal likelihood is the closed-form gate. *)

type params = {
  a : float;  (** transition coefficient *)
  q_sd : float;  (** transition noise sd *)
  r_sd : float;  (** observation noise sd *)
}

type result = {
  n_particles : int;
  steps : int;
  log_z : float;  (** particle estimate of the log marginal *)
  log_z_exact : float;  (** Kalman closed form *)
  ess_min : float;  (** worst effective sample size over steps *)
  migrations : int;  (** resampling moves with ancestor <> self *)
  migrated_bytes : float;  (** lane-state payload moved through S20 *)
  migration_seconds : float;  (** priced as p2p transfers on [mesh] *)
  bitwise : (string * bool) list;  (** local/shard/lanes vs pc *)
}

val run :
  ?seed:int64 ->
  ?n_particles:int ->
  ?steps:int ->
  ?p:params ->
  ?mesh:Mesh.t ->
  unit ->
  result
(** Run the filter (defaults: 256 particles, 25 steps, 2-device GPU
    mesh for migration pricing). Deterministic given [seed]. *)

val log_z_error : result -> float

val passes : ?tol:float -> result -> bool
(** The [bench eff] gate: finite estimate within [tol] (default 1.0)
    of the Kalman value, at least one migration, all runtimes bitwise
    identical to the pc baseline. *)

val to_json : result -> Obs_json.t
val print : result -> unit
