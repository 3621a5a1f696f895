(** Execution engine with a simulated clock.

    The autobatching runtimes execute every primitive for real (on the host
    CPU, via the primitive registry) and report what they did to an engine,
    which prices the work under a device model and execution mode. This
    mirrors the paper's three execution configurations:

    - [Eager]: every primitive is a separately dispatched kernel, plus
      host-language (Python-analogue) dispatch per op — TensorFlow Eager.
    - [Fused]: each executed basic block costs one fused launch; control
      flow and masked state updates live inside the fused program — XLA.
    - [Hybrid]: basic blocks are fused, but control decisions (masks,
      program-counter updates, host recursion) are dispatched from the
      host — the paper's "Eager control + XLA blocks" configuration.

    Reading an engine back out goes through exactly one door: {!snapshot},
    which captures the cumulative {!Counters.t} record and the per-op
    tally together. Snapshots merge ({!merge}), restore ({!restore}), and
    serialize (lib/resil); there is no separate counters-only or
    tally-only readout.

    The tally is kept by interned op id, not by name: an engine assigns
    each op name an id on first sight and never reassigns it, and a block
    charged repeatedly is priced once into a {!priced} handle
    ({!price}/{!charge_priced}), so charging it bumps an int array with no
    hashing. *)

type mode = Eager | Fused | Hybrid

val mode_to_string : mode -> string

(** Cumulative cost counters. A plain record: shardable, serializable,
    and summable without touching an engine. *)
module Counters : sig
  type t = {
    kernel_launches : int;  (** individually dispatched kernels *)
    fused_launches : int;   (** fused-block launches *)
    host_ops : int;         (** host-language dispatch actions *)
    host_calls : int;       (** host-language function calls (local-VM recursion) *)
    blocks : int;           (** basic blocks executed *)
    lane_refills : int;     (** serving: lanes recycled with a new request *)
    lane_retires : int;     (** serving: finished lanes drained of outputs *)
    flops : float;          (** arithmetic performed *)
    traffic_bytes : float;  (** stack gather/scatter + masked-update traffic *)
    elapsed_seconds : float;  (** simulated seconds accumulated *)
  }

  val zero : t

  val add : t -> t -> t
  (** Fieldwise sum; the identity is {!zero}. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> Obs_json.t
end

type counters = Counters.t
(** Compatibility alias: the resilience layer's snapshot codec round-trips
    this record by name. New code should spell [Engine.Counters.t]. *)

type t

val create : device:Device.t -> mode:mode -> unit -> t
val device : t -> Device.t
val mode : t -> mode

val charge_block :
  t -> ops:(string * float) list -> control_ops:int -> traffic_bytes:float -> unit
(** Price one executed basic block: [(name, flops)] per primitive, the
    number of control actions (branch evaluation, mask and program-counter
    updates), and the bookkeeping bytes moved (masked writes, stack
    gathers/scatters). Equivalent to [charge_priced t (price t ...)];
    callers that run the same block repeatedly should keep the handle. *)

type priced
(** A block priced once, ahead of execution, for one engine: its ops as
    the engine's interned op ids, its summed flops, control actions and
    traffic, and the simulated-time terms a charge adds. Op ids are stable
    for an engine's lifetime (across {!reset}, {!restore} and {!merge}),
    so a handle stays valid as long as its engine does — and only on that
    engine. *)

val price :
  t -> ops:string list -> flops:float -> control_ops:int -> traffic_bytes:float -> priced
(** Price a block for [t]: [ops] names its primitives in order and [flops]
    is their summed flops (summed left to right, as {!charge_block}
    would). Charges nothing; interns any op name [t] has not seen. *)

val charge_priced : t -> priced -> unit
(** Charge one execution of a priced block: bitwise the same counters,
    simulated time and {!Obs_sink} events as {!charge_block} on the same
    block, with no per-op name lookup. Raises [Invalid_argument] if the
    handle was priced by a different engine (op ids are per-engine). *)

val charge_kernel : t -> name:string -> flops:float -> unit
(** One standalone eagerly dispatched kernel (used by the unbatched
    reference execution), priced as launch + host dispatch + arithmetic. *)

val charge_host_call : t -> unit
(** A host-language function call (the local VM's recursion into Python). *)

val charge_refill : t -> bytes:float -> unit
(** A continuous-batching lane refill: one host dispatch plus writing the
    incoming request's input rows ([bytes]) to the device. *)

val charge_retire : t -> bytes:float -> unit
(** A continuous-batching lane retirement: one host dispatch plus reading
    the finished lane's output rows ([bytes]) back. *)

val charge_transfer : t -> name:string -> bytes:float -> seconds:float -> unit
(** A named lane-state transfer (scheduler migration): one host dispatch,
    [bytes] of device traffic, plus [seconds] of extra link time priced by
    the caller — [Collectives.p2p_time] for a cross-shard work steal, [0.]
    for a same-device defragmentation move. Emits a [Launched] span under
    [name] and adds to [traffic_bytes]; deliberately no dedicated
    {!Counters} field (the resilience codec round-trips that record by
    field), so migration tallies ride with [Sched_vm]'s result. *)

val charge_traffic : t -> bytes:float -> unit
(** The bookkeeping charges above each emit an {!Obs_sink.Launched} span
    (["host-call"], ["lane-refill"], ["lane-retire"], ["transfer"]) so the
    profiler can attribute every simulated second, but no
    {!Obs_sink.Launch} fault point — host-side bookkeeping is not a
    poisonable kernel launch, and fault-injection schedules must not shift
    when a profiler is attached. *)

val elapsed : t -> float
(** Simulated seconds so far. *)

val reset : t -> unit

type snapshot = {
  at : Counters.t;             (** cumulative counters at capture time *)
  ops : (string * int) list;   (** per-op tally, sorted by name *)
}

val snapshot : t -> snapshot
(** The engine's complete readout — counters {e and} the per-op tally.
    Snapshots of equal states are structurally equal, so they compare,
    merge and serialize directly. *)

val restore : t -> snapshot -> unit
(** Overwrite the engine's state with a snapshot (counts, simulated time,
    tally), so a run recovered from a checkpoint reports the true
    cumulative cost from time zero. Device and mode are not part of the
    snapshot: restore into an engine built with the same [create]
    arguments. *)

val merge : into:t -> snapshot -> unit
(** Fold another engine's snapshot into [into]'s mutable state: counts,
    simulated time and per-op tallies all accumulate. This is how
    per-shard engines combine after a multi-device run without reaching
    into each other's state. Same shape as [Obs_metrics.merge ~into]. *)

val set_sink : t -> Obs_sink.t -> unit
(** Install a structured event sink observing every launch. Each
    {!charge_kernel}/{!charge_block} emits [Obs_sink.Launch] {e before}
    any cost is charged — the fault-injection seam: raising from the sink
    poisons the launch — and [Obs_sink.Launched] after, carrying the
    launch's span on the simulated clock for tracing. Zero cost when
    unset (one [None] match per launch). *)

val clear_sink : t -> unit
