(** A mesh of simulated devices joined by a uniform interconnect.

    The multi-shard runtime ({!Sched_vm}) splits the batch dimension
    across the mesh, one lane pool per device, and prices cross-device communication
    with {!Collectives} using the mesh's per-link bandwidth and latency.
    The mesh is homogeneous — every device identical, every link
    identical — which matches the SPMD execution the paper's platforms
    (and their multi-device descendants) expose. *)

type link = {
  name : string;
  bytes_per_sec : float;  (** per-direction link bandwidth *)
  latency : float;        (** per-hop message latency, seconds *)
}

val nvlink : link
(** Intra-node GPU interconnect: 300 GB/s, 2 µs. *)

val pcie : link
(** Host bus: 32 GB/s, 5 µs. *)

val ethernet : link
(** Cross-node 100 GbE: 12.5 GB/s, 30 µs. *)

type t

val create : ?name:string -> device:Device.t -> link:link -> n:int -> unit -> t
(** [n] identical devices; raises [Invalid_argument] when [n <= 0]. *)

val gpu_pod : ?link:link -> n:int -> unit -> t
(** [n] simulated GPUs over NVLink (the default scaling-study mesh). *)

val cpu_cluster : ?link:link -> n:int -> unit -> t
(** [n] simulated CPUs over Ethernet. *)

val size : t -> int
val device : t -> int -> Device.t
val link : t -> link
val name : t -> string
val pp : Format.formatter -> t -> unit
