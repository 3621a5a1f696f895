(** Serving experiment: stream NUTS sampling requests through the
    serving runtime ({!Tenant_server} with one tenant, one shard,
    preemption off and no periodic checkpoints) and measure what
    continuous refill buys over the fixed-batch regime.

    Each request is a single NUTS chain on the correlated-Gaussian test
    problem with a randomized trajectory count, so service times genuinely
    vary — the regime where a synchronous fixed batch pays the
    wait-for-slowest tax (Figure 6) and continuous refill does not.

    Two load generators: open-loop Poisson arrivals at a rate calibrated
    so load 1.0 saturates the device ([rate = load * lanes /
    solo_service]), and a closed loop of [closed_clients] clients that
    each issue a fresh request on completion. Every policy sees the same
    trace at the same load, so comparisons are paired.

    Times are simulated seconds on the shard engine's clock. The
    policies are settings of that one runtime: ["fifo"] (FIFO
    admission, continuous refill), ["shortest"]
    ({!Admission.Shortest_first}) and ["synchronous"] (FIFO with
    {!Tenant_server.Synchronous} refill). *)

val policies : string list
(** Every policy name, in the default sweep order:
    [["synchronous"; "fifo"; "shortest"]]. *)

type point = {
  mode : string;  (** ["open"] or ["closed"] *)
  policy : string;  (** one of {!policies} *)
  load : float;  (** offered load as a fraction of device capacity *)
  offered : float;  (** requests per clock unit (closed loop: measured) *)
  completed : int;
  shed : int;
  throughput : float;  (** completions per clock unit *)
  mean_occupancy : float;  (** mean live-lane fraction *)
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** total (queueing + service) latency percentiles *)
  makespan : float;
  latency_hist : Obs_json.t;
      (** log-bucketed total-latency summary ({!Obs_metrics.hist_to_json}):
          count/sum/mean/min/max plus p50/p90/p99 estimates *)
  verified : int;
      (** completions drawn by a seeded sample and compared bitwise
          against running the request alone *)
  mismatches : int;  (** of those, how many differed (0 is the contract) *)
}

type stats = {
  lanes : int;
  n_requests : int;
  solo_service : float;
      (** mean clock units to serve one request alone — the capacity
          calibration constant *)
  sched_policy : string;
      (** the lane VM's block scheduling policy (distinct from the
          admission [policy] above) *)
  points : point list;
}

val run :
  ?dim:int ->
  ?rho:float ->
  ?lanes:int ->
  ?n_requests:int ->
  ?max_iter:int ->
  ?loads:float list ->
  ?policies:string list ->
  ?queue_depth:int ->
  ?closed_clients:int ->
  ?seed:int64 ->
  ?trace:Obs_trace.t ->
  ?sched:Sched_policy.t ->
  unit ->
  stats
(** Defaults: dim 10, rho 0.7, 8 lanes, 48 requests of 1–3 trajectories,
    loads [0.6; 0.9; 1.3], all three policies, queue depth 1024,
    [closed_clients = lanes] (0 disables the closed-loop runs). With
    [trace], every measured serving run gets its own track — VM superstep
    spans plus the request lifecycle, on the server clock (the calibration
    probes are not traced). [sched] (default [Earliest]) sets the lane
    VM's block scheduling policy for the measured runs. Raises
    [Invalid_argument] on a policy name outside {!policies}. *)

val print : stats -> unit
val to_csv : stats -> string

val to_json : stats -> Obs_json.t
(** The whole sweep as one JSON object, each point carrying its
    latency histogram — the payload of [experiments serve --json]. *)
