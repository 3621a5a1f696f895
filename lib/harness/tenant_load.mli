(** Multi-tenant load experiment: a seeded open-loop request generator
    (bursty, diurnal, or adversarial; Zipf-popular tenants) driven
    through {!Tenant_server}, paired against a no-admission FIFO
    baseline on the identical trace.

    The generator is streaming — requests are built one at a time from
    a pull source, so million-request sweeps hold O(tenants) state — and
    purely seeded: the same [seed] regenerates bitwise the same trace
    for both arms, which is what makes the arms paired and the whole
    experiment replayable under [--seed].

    Programs come from a small structurally-varied family of
    while-loop programs (distinct constants, chain depths, divergent
    branches, and RNG use), compiled on demand through {!Prog_cache} —
    tenant popularity is Zipf and each tenant pins one family member, so
    the digest stream is Zipf too and the cache's hit rate is the
    experiment's cache readout. The adversarial pattern additionally
    floods best-effort traffic and sprinkles cache-busting one-off
    programs.

    Every kept completion is verified bitwise against
    {!Autobatch.run_pc} with [member_base] set to the request's member —
    the solo reference — so admission, preemption, migration,
    autoscaling, and injected device kills are all covered by the same
    equivalence check the serving layer already makes. *)

val family_program : k:int -> Lang.program
(** Member [k] of the structurally-varied program family (tests and the
    bench gate build requests from it directly). Parameters [n; x; cnt],
    all scalar; two outputs. *)

val element_shapes : Shape.t list
(** The family's element input shapes ([ [||]; [||]; [||] ]). *)

val matches_solo : Tenant_server.completion -> bool
(** [true] when the completion's outputs are bitwise-identical to
    {!Autobatch.run_pc} run alone with [member_base] at the request's
    member (vacuously true when outputs were not kept). The bench gate
    and the property tests both lean on this. *)

val percentile : float array -> float -> float
(** [percentile sorted q]: the nearest-rank [q]th percentile of an
    ascending array; [nan] when empty. *)

type pattern = Uniform | Bursty | Diurnal | Adversarial

val pattern_name : pattern -> string
val pattern_of_string : string -> pattern option

(** One serving arm's readout. *)
type arm = {
  arm_name : string;
  completed : int;
  throttled : int;
  rejected : int;
  shed : int;
  preempted : int;  (** completions that were parked at least once *)
  makespan : float;
  mean_latency : float;
  p50_latency : float;   (** latency-bound class, total latency *)
  p99_latency : float;   (** latency-bound class, total latency *)
  p99_all : float;       (** all classes *)
  stats : Tenant_server.stats;
}

type result = {
  seed : int64;
  pattern : pattern;
  n_requests : int;
  n_tenants : int;
  n_programs : int;
  load : float;
  solo_service : float;  (** calibration constant, like {!Serving} *)
  hit_rate : float;      (** fair arm's program-cache hit rate *)
  hits : int;
  misses : int;
  evictions : int;
  verified : int;        (** completions compared bitwise to solo *)
  mismatches : int;      (** must be 0 *)
  fair : arm;
  baseline : arm option; (** FIFO admission, preemption off *)
}

val run :
  ?seed:int64 ->
  ?pattern:pattern ->
  ?n_requests:int ->
  ?n_tenants:int ->
  ?n_programs:int ->
  ?cache_capacity:int ->
  ?load:float ->
  ?mesh_size:int ->
  ?lanes_per_shard:int ->
  ?checkpoint_interval:int ->
  ?kill_round:int ->
  ?baseline:bool ->
  ?verify:bool ->
  ?keep_outputs:bool ->
  ?sink:Obs_sink.t ->
  unit ->
  result
(** Defaults: seed [0x7E47L], [Bursty], 2000 requests, 24 tenants, an
    8-program family, cache capacity [n_programs] (so steady state is
    all hits and the cold misses bound the rate), base load 0.35 with 8x
    best-effort burst floods (transient overload, so the admission
    ladder, preemption, and the pool all engage), a 4-device mesh with
    8 lanes per shard, checkpoints every 16 rounds, one device kill at
    round [kill_round] (default 40; pass a negative round for none),
    baseline arm on, bitwise verification on (against
    {!Autobatch.run_pc} solo; turn off for million-request sweeps, which
    should also turn off [keep_outputs] — {!run} does this
    automatically when [verify] is false; pass [keep_outputs] explicitly
    to override, e.g. [~verify:false ~keep_outputs:true] for bitwise
    sink-on/off comparisons without the solo re-runs).

    [sink] attaches to the {e fair arm only} (the baseline stays a clean
    pair): it receives the fair server's full event stream — spans and
    [Round]s included — plus the program cache's hit/miss/compile
    instants stamped with the trace clock. A burn-rate monitor rides in
    it as {!Obs_slo.sink}. It only observes: attaching it leaves outputs
    and the simulated clock bitwise unchanged. *)

val to_json : result -> Obs_json.t
val print_table : result -> unit
