(** The multi-tenant serving runtime: admission, SLO-aware preemption,
    shard pools, and mid-traffic recovery, composed over the serving
    and scheduling seams.

    The server binds each mesh device ("shard") at any moment to one
    program digest (the {!Prog_cache} identity) and runs it on a
    {!Pc_vm.Lanes} pool for that digest; a shard keeps up to
    {!max_retained} of the pools it built, admitted as {!Prog_cache}
    admits programs, and reuses one when it binds that digest again.
    The server is one explicit state {!t}; {!step_round} runs one
    deterministic round on the simulated clock, in this order:

    + ingest due arrivals (the source's and [on_complete]'s follow-ups):
      refuse malformed or too-wide requests, then pass the tenant token
      buckets and {!Admission};
    + retire finished flights on every shard;
    + apply the {!Pool} controller (raise the target / start draining
      one shard);
    + migrate lanes off draining shards to same-digest shards through
      the {!Pc_vm.Lanes} export/import seam, priced as
      {!Collectives.p2p_time} transfers, and unbind emptied ones;
    + rebind empty shards toward the neediest digest and bind idle
      shards on demand up to the controller's target, reading the
      per-digest backlog tallies ({!backlog});
    + refill free lanes from admission (weighted-fair pop, one shared
      lane-selection path via {!Sched_plan.choose_lanes});
    + preempt: when a latency-bound head cannot start, export the lanes
      of the weakest, most-recently-started victim flights
      ({!Pc_vm.Lanes.export_lane}), park them, and start the head in the
      freed lanes;
    + resume parked jobs wherever a same-digest shard has room; they
      re-import and continue
      bitwise-exactly — the RNG keys on (seed, member, counter), never
      on lane, shard, or wall time;
    + checkpoint each shard every [checkpoint_interval] rounds (plus a
      forced checkpoint after any preemption, resume, or migration
      touched it, which keeps every lane's authoritative home
      unambiguous);
    + step every live shard one superstep;
    + tick the fault injector: a [Device_kill] restores only that shard
      from its last checkpoint, re-queues the requests it had admitted
      since, and discards its not-yet-flushed completions — the rest of
      the fleet never notices, and re-execution is bitwise identical;
    + advance the clock by the {e maximum} per-shard engine delta —
      shards serve independent traffic in parallel, there is no
      cross-shard barrier — and emit [Obs_sink.Round] at the new clock;
    + when nothing is queued, parked or in flight, jump the clock to the
      next arrival, or end the run once none is left.

    A migration is one lane state landing on a shard other than the one
    that exported it, by a drain or by a resume: each is counted in
    {!stats}' [migrations] and [migration_bytes] and reported as one
    [Obs_sink.Migration] event, so the two always agree. A job resumed
    on the shard it was parked from moves no state between shards and
    is neither counted nor reported.

    Every completed request's outputs are bitwise-identical to running
    it alone with [member_base = member] — cache hit or miss, preempted
    or not, migrated or not, killed or not. The acceptance gate
    ([bench tenant]) checks exactly that. *)

(** When a shard takes new work. [Continuous] (continuous batching)
    refills free lanes every round, the moment they open. [Synchronous]
    is the paper's fixed-batch regime: a shard refills only once it has
    no live flight, so every batch waits for its slowest member (the
    E5 baseline). *)
type refill = Continuous | Synchronous

type config = {
  lanes_per_shard : int;
  mesh : Mesh.t;
      (** one potential shard per device, priced on a [Hybrid] engine *)
  policy : Sched_policy.t;
  admission : Admission.config;
  pool : Pool.config;
  preempt : bool;            (** enable latency-bound preemption *)
  refill : refill;
  checkpoint_interval : int; (** per-shard rounds; 0 = bind-time baseline only *)
  faults : Fault.event list;
      (** device-kill plan on the round clock ([superstep] = round,
          [device] = shard); non-kill kinds are ignored *)
  keep_outputs : bool;
      (** store every completion's output tensors (the bitwise gate
          needs them; million-request sweeps turn this off) *)
  sink : Obs_sink.t option;
      (** Beyond the engine/VM event stream, the server emits
          [Obs_sink.Span] trees here — one per completed request (root
          ["request"] with ["queue"]/["service"] children and
          ["preempted"]/["migrate"] marks), emitted exactly once when the
          completion leaves the rollback window; plus server-lifecycle
          instants (["pool-grow"], ["pool-shrink"], ["checkpoint"],
          ["restore"]) on {!Obs_span.ops_trace}, [Obs_sink.Ladder]
          transition events, and one [Obs_sink.Round] per round. Request
          events carry the request's class key ({!Tenant.slo_name}), and
          a rejection its reason, so a burn-rate monitor is one more sink
          on this stream. Attaching a sink charges no simulated cost
          and leaves outputs bitwise identical. *)
}

val default_config : mesh:Mesh.t -> config
(** 8 lanes per shard, [Sched_policy.Earliest],
    {!Admission.default}, {!Pool.default}, preemption on, [Continuous]
    refill, checkpoint every 32 rounds, no faults, outputs kept, no
    sink. *)

type completion = {
  c_item : Admission.item;
  c_outputs : Tensor.t list option;
      (** width-leading, exactly {!Autobatch.run_pc}'s layout; [None]
          when [keep_outputs] is off *)
  c_started : float;
  c_finished : float;
  c_shard : int;   (** where it retired *)
  c_preempted : int;  (** times parked *)
  c_marks : (string * float * float) list;
      (** chronological lifecycle marks [(name, t0, t1)] gathered while
          in flight: ["preempted"] park→resume intervals and ["migrate"]
          instants — the same marks that become children of the
          request's ["service"] span *)
}

type stats = {
  completions : completion list;  (** completion order *)
  throttled : Admission.item list;   (** refused by token bucket/quota *)
  rejected : (Admission.item * Admission.reason) list;
  shed : Admission.item list;     (** dropped after admission *)
  rounds : int;
  makespan : float;               (** simulated seconds, arrival of first
                                      work to last completion *)
  preemptions : int;
  resumes : int;
  migrations : int;  (** lanes landed on another shard (drain or resume) *)
  migration_bytes : float;  (** their lane-state bytes *)
  binds : int;
  rebinds : int;
  grows : int;
  shrinks : int;
  checkpoints : int;
  restores : int;
  wasted_rounds : int;  (** supersteps restores rolled back (re-executed) *)
  peak_active : int;    (** most simultaneously active shards *)
  counters : Engine.Counters.t;  (** merged across every shard engine *)
}

(** A pull-based arrival stream in nondecreasing arrival order, so
    million-request traces are never held whole in memory. *)
type source

val source_of_fun : (unit -> Admission.item option) -> source
val source_of_list : Admission.item list -> source

type t
(** A server mid-run: its configuration, shards and their bindings,
    admission queue, clock and round, parked jobs, pending follow-ups,
    fault injector, and counters. *)

val create :
  ?config:config -> ?on_complete:(completion -> Admission.item option) -> source -> t
(** A server at round 0 with every shard idle. Raises [Invalid_argument]
    unless [lanes_per_shard] is positive.

    [on_complete] closes the loop: it may return one follow-up request
    per completion, which joins the arrivals with its arrival time
    clamped to the current clock. It fires once per completion, when
    the completion leaves the rollback window (at the shard's next
    checkpoint, or at retire once no planned kill can still reach the
    shard), so a kill never fires it twice. *)

val step_round : t -> bool
(** One round, in the order listed at the top of this interface;
    [false] (and no effect) once the run is over. Raises [Failure] past
    10,000,000 rounds (the safety valve against a run that makes no
    progress).

    A request is refused at ingest as [Invalid_input] when its inputs
    disagree in number or row shape with the program's declared input
    shapes; as [Too_wide] when it is wider than a shard. *)

val finish : t -> stats
(** Flush every completion still in a rollback window and total the
    run. Call once, after {!step_round} returned [false]. *)

val run :
  ?config:config -> ?on_complete:(completion -> Admission.item option) -> source -> stats
(** [create], then {!step_round} until it returns [false], then
    [finish]: every arrival is eventually completed, throttled,
    rejected, or shed; no work is lost to scaling, preemption, or
    injected kills. *)

(** Where the arrivals handed to a server are between rounds, each in
    exactly one place: taken from the source or [on_complete] but not
    yet ingested ([arriving]), queued, parked, in flight, retired but
    still in a rollback window ([unflushed]), completed, throttled,
    rejected or shed. *)
type census = {
  arriving : int; queued : int; parked : int; in_flight : int; unflushed : int;
  completed : int; throttled : int; rejected : int; shed : int;
}

val census : t -> census

val max_retained : int
(** How many lane pools a shard keeps (8). A shard rebinding to a digest
    it kept resets that pool to its empty image ({!Pc_vm.Lanes.restore})
    instead of building one. A pool the shard keeps is bound from the
    program's {!Autobatch.template}; one it will drop after the binding
    builds a template of its own, so a one-off program carries none. A
    reused pool is indistinguishable from a fresh one.

    Below the bound every pool built is kept. Past it, a shard admits
    pools as {!Prog_cache} admits programs ({!Doorkeeper}): a digest
    whose pool the shard does not keep gets a new pool, which serves that
    binding and is dropped when the shard unbinds, displacing nothing —
    unless the digest was one of the last {!max_retained} such misses on
    this shard, in which case its pool replaces the least recently bound
    one. So one-off digests never push a hot digest's pool out. *)

val retained_pools : t -> int array
(** The number of lane pools each shard keeps, at most {!max_retained}. *)

val pools_built : t -> int array
(** The number of lane pools each shard has built (every other binding
    restored a kept one). *)

val backlog : t -> (int64 * int * float) list
(** The per-digest backlog the binding pass reads, ascending by digest:
    [(digest, need, earliest)] over the queued and parked items, where
    [need] sums the items' scores (their class's {!Admission.weight}
    under [Fair] admission, 1 otherwise) and [earliest] is their
    earliest arrival. The server keeps it as running tallies, updated
    where items enter and leave the queue and the parked set. *)

val waiting : t -> Admission.item list
(** The queued items in admission order, then the parked ones: the
    items {!backlog} tallies. *)
