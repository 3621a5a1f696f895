(** Figure 5 reproduction: auto-batched NUTS throughput on Bayesian
    logistic regression, gradient evaluations per (simulated) second vs
    batch size.

    Series, as in the paper:
    - [pc-xla-gpu] / [pc-xla-cpu]: program-counter autobatching, whole
      runtime fused (XLA-style);
    - [local-eager-gpu] / [local-eager-cpu]: local static autobatching,
      every kernel dispatched eagerly, recursion through the host;
    - [hybrid-gpu] / [hybrid-cpu]: local static autobatching with fused
      basic blocks but host-dispatched control;
    - [eager-unbatched]: one member at a time through the reference
      interpreter with eager dispatch (flat in batch size);
    - [stan]: the reference sampler priced as hand-optimized native code
      with zero framework overhead (flat in batch size).

    Reported gradients are *useful* ones — waste from synchronization
    (masked-out lanes) is excluded, as in the paper. *)

type scale = {
  n_data : int;
  dim : int;
  batch_sizes : int list;
  n_iter : int;        (** trajectories measured per batch member *)
  seed : int64;
}

val default_scale : scale
(** A laptop-runnable instance: 500 data points, 30 regressors, batch
    sizes 1…512, 2 trajectories. *)

val paper_scale : scale
(** The paper's instance: 10,000 points, 100 regressors, batch sizes
    1…4096. Expensive to execute on a host CPU; use from the CLI. *)

type point = {
  strategy : string;
  batch : int;
  policy : string;  (** scheduling policy the sweep ran under *)
  useful_grads : int;
  sim_seconds : float;
  grads_per_sec : float;
}

val run :
  ?scale:scale ->
  ?trace:Obs_trace.t ->
  ?fuse:Fuse.options ->
  ?policy:Sched_policy.t ->
  unit ->
  point list
(** With [trace], the smallest-batch run of every strategy is recorded on
    its own track — superstep spans from the VM and kernel/fused-launch
    spans from the engine, on the engine's simulated clock. With [fuse],
    the NUTS program is compiled through the superblock fusion passes
    ({!Fuse}) — the [--fuse] A/B knob on the CLI. [policy] (default
    [Earliest]) sets the block scheduling policy of the batched VMs; the
    flat baselines don't schedule but are stamped with it anyway, so
    every point in a sweep names its policy. *)

val print : Format.formatter -> point list -> unit
(** Batch-size × strategy table of gradients/second. *)

val strategies : string list
(** Series names in display order. *)

val rate : point list -> strategy:string -> batch:int -> float option
(** Look up one throughput value (used by tests and EXPERIMENTS.md). *)

val to_csv : point list -> string
(** One row per (strategy, batch) point:
    [strategy,batch,useful_grads,sim_seconds,grads_per_sec,policy]. *)

val to_json : point list -> Obs_json.t
(** The same series as a JSON array, for {!Obs_report} documents. *)
