(** Analytic cost model for the collectives a sharded run needs.

    Costs follow the standard alpha-beta (latency-bandwidth) model on a
    {!Mesh}: a step moving [b] bytes over one link costs
    [b / bytes_per_sec + latency]. Every collective is free on a
    single-device mesh.

    Formulas (N devices, payload [bytes], bandwidth [bw], latency [lat]):

    - ring all-reduce:   [2(N-1)/N · bytes/bw + 2(N-1) · lat]
      (reduce-scatter + all-gather, the bandwidth-optimal schedule)
    - tree all-reduce:   [2·ceil(log2 N) · (bytes/bw + lat)]
    - ring all-gather:   [(N-1)/N · bytes/bw + (N-1) · lat]
    - tree all-gather:   [(N-1)/N · bytes/bw + ceil(log2 N) · lat]
      (recursive doubling)
    - point-to-point:    [bytes/bw + lat]

    Ring wins on bandwidth for large payloads; tree wins on latency for
    the small per-superstep convergence reductions. *)

type algorithm = Ring | Tree

val all_reduce_time : Mesh.t -> algorithm -> bytes:float -> float
(** Every device ends with the reduction of all devices' [bytes]-sized
    contributions. *)

val all_gather_time : Mesh.t -> algorithm -> bytes:float -> float
(** [bytes] is the {e total} gathered payload (each device contributes
    [bytes/N] and ends with all of it). *)

val p2p_time : Mesh.t -> bytes:float -> float
(** A single point-to-point transfer over one mesh link:
    [bytes/bw + lat]. This is what a work-steal pays to move one lane's
    state between shards ([Sched_vm]); free on a single-device mesh. *)
