(** Resilience experiment: checkpoint-interval x fault-rate sweep over
    the recovery drivers ({!Recovery}).

    The workload is batched recursive Fibonacci — pure control flow with
    divergent lane lifetimes, the hardest case for snapshot fidelity. For
    each runtime (the pc VM and the sharded runtime under the
    {!Recovery} drivers; the serving runtime, {!Tenant_server} on one
    shard, which checkpoints and restores itself from its
    [config.faults]) the harness first runs fault-free, then replays the
    same seeded fault plan at every checkpoint interval and reports:

    - {e overhead}: analytic checkpoint cost (bytes / bandwidth, in
      superstep-equivalents) over useful supersteps — the checkpoint I/O
      is {e not} charged to the engine, so the replayed trace stays
      bitwise comparable;
    - {e recovered work}: useful / (useful + wasted) supersteps;
    - {e bitwise}: whether the faulted-and-recovered run's outputs (and
      engine clock, where attached) are bit-identical to the fault-free
      run — the deterministic-replay guarantee, checked live; for the
      serving runtime, which requests completed and their outputs;
    - Young's first-order optimal interval [sqrt (2 delta MTBF)] next to
      the measured sweep. *)

type point = {
  vm : string;  (** ["pc"], ["shard"], or ["server"] *)
  interval : int;  (** checkpoint interval in supersteps; 0 = initial only *)
  rate : float;  (** per-superstep fault probability *)
  faults : int;
  restores : int;
  link_retries : int;
  checkpoints : int;
  ckpt_bytes : int;
  useful : int;
  wasted : int;
  overhead_pct : float;
  recovered_pct : float;
  identical : bool;  (** bitwise equal to the fault-free run *)
}

type stats = {
  z : int;
  ckpt_bandwidth : float;  (** modelled checkpoint bytes per superstep *)
  delta_steps : float;  (** per-checkpoint cost in superstep-equivalents *)
  young : (float * float) list;  (** (rate, Young's T_opt) per nonzero rate *)
  points : point list;
}

val run :
  ?z:int ->
  ?intervals:int list ->
  ?rates:float list ->
  ?vms:string list ->
  ?shards:int ->
  ?server_lanes:int ->
  ?n_requests:int ->
  ?ckpt_bandwidth:float ->
  ?seed:int ->
  unit ->
  stats
(** Defaults: z 32, intervals [[1; 8; 64; 0]] (0 = initial checkpoint
    only), rates [[0.; 0.02; 0.1]], all three VMs, 4 shards, 4 server
    lanes, 12 requests, bandwidth 256 KiB per superstep. Raises
    [Invalid_argument] on a negative interval, an unknown VM name, or a
    non-positive bandwidth. *)

val print : stats -> unit
val to_csv : stats -> string

val to_json : stats -> Obs_json.t
(** The sweep (points, Young intervals, calibration constants) as one JSON
    object, for {!Obs_report} documents. *)
