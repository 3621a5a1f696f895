(** "Figure 7": weak- and strong-scaling study of sharded batched NUTS on
    a device mesh — the multi-device extension of the paper's Figure 5
    argument. Batching amortizes dispatch overhead on one device; sharding
    the chain dimension across a mesh ({!Sched_vm}'s static partition)
    buys more arithmetic at the price of per-superstep collective
    synchronization, which this harness measures with the {!Collectives}
    cost model (simulated time). The shards are stepped one after another
    on the host, so the [wall_seconds] column is host cost, not
    parallelism.

    - {e Weak scaling}: chains per device fixed ([per_device]); the batch
      grows with the mesh. Ideal: throughput scales with devices.
    - {e Strong scaling}: total chains fixed ([total]); each device gets a
      smaller shard. Ideal: simulated time drops as 1/devices, until
      collective cost and shard imbalance bite. *)

type scale = {
  dim : int;                           (** Gaussian target dimension *)
  per_device : int;                    (** weak-scaling chains per device *)
  total : int;                         (** strong-scaling total chains *)
  n_iter : int;                        (** trajectories per chain *)
  devices : int list;                  (** mesh sizes to sweep *)
  link : Mesh.link;
  collective : Collectives.algorithm;
  seed : int64;
}

val default_scale : scale
(** dim 20, 16 chains/device weak, 64 chains strong, devices 1/2/4/8,
    NVLink ring. *)

type point = {
  series : [ `Weak | `Strong ];
  devices : int;
  batch : int;                 (** total chains in this run *)
  useful_grads : int;
  compute_time : float;        (** max over shards, simulated *)
  collective_time : float;
  sim_time : float;
  grads_per_sec : float;       (** useful gradients per simulated second *)
  speedup : float;             (** vs the 1-device point of the series *)
  efficiency : float;          (** speedup / devices *)
  wall_seconds : float;        (** real host time of the run *)
  shard_times : float array;   (** per-shard simulated seconds *)
}

val run : ?scale:scale -> unit -> point list
(** Both series, weak first; within a series, ascending device count. *)

val print : point list -> unit

val to_csv : point list -> string
(** The simulated columns only — every field but [wall_seconds] and
    [shard_times] — so the CSV is byte-stable across hosts (it is the
    [scaling] bench stage's document). The host time stays in {!print}
    and {!to_json}. *)

val to_json : point list -> Obs_json.t
(** Both series as a JSON array; each point carries its per-shard
    simulated-time vector, the report's per-shard timeline. *)
