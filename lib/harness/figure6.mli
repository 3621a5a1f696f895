(** Figure 6 reproduction: utilization of batched gradient computation on
    the correlated-Gaussian test problem.

    Both strategies run the *same* auto-batched chain of consecutive NUTS
    trajectories; the difference is structural, exactly as in the paper:

    - under local static autobatching, a chain cannot start its next
      trajectory until every chain in the batch finishes the current one
      (the batch's control structure follows the user program), so the
      whole batch synchronizes on trajectory boundaries;
    - program-counter autobatching recomputes the active set from program
      counters each step, so chains at different trajectory indices and
      tree depths batch their gradient evaluations together.

    Utilization of a primitive = useful lanes / issued lanes over all its
    executions, derived from the runs' {!Obs_prof} rows
    ({!Profile.derive}); we report the [grad] primitive. *)

type point = {
  batch : int;
  local_util : float;   (** trajectory-boundary synchronization *)
  pc_util : float;      (** gradient-level synchronization *)
}

type stats = {
  policy : string;  (** scheduling policy the sweep ran under *)
  points : point list;
  mean_grads_per_trajectory : float;
  max_grads_per_trajectory : float;
  (** per-trajectory gradient-count statistics from reference chains; the
      paper reads the local-static curve as "the longest trajectory tends
      to be about four times longer than the average". *)
  pc_occupancy : (int * float) list;
  (** live-lane occupancy time series (downsampled) from the widest
      program-counter run — the lanes draining as chains finish *)
  pc_mean_occupancy : float;
}

val run :
  ?dim:int ->
  ?rho:float ->
  ?batch_sizes:int list ->
  ?n_iter:int ->
  ?seed:int64 ->
  ?fuse:Fuse.options ->
  ?policy:Sched_policy.t ->
  unit ->
  stats
(** Defaults: dim 100, rho 0.7, batch sizes 1…256, 10 trajectories.
    [fuse] compiles through the superblock fusion passes ({!Fuse});
    [policy] (default [Earliest]) sets both VMs' block scheduling
    policy. *)

val print : stats -> unit

val print_occupancy : stats -> unit
(** The occupancy time series as a text sparkline (one row per bucket). *)

val to_csv : stats -> string
(** [batch,local_util,pc_util,policy] rows plus a trailing comment line
    with the trajectory statistics. *)

val to_json : stats -> Obs_json.t
(** Points, trajectory statistics, and the occupancy time series as one
    JSON object, for {!Obs_report} documents. *)
