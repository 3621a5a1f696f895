(** SLO-aware admission: per-class bounded queues, weighted-fair
    dispatch, and a graceful-degradation ladder.

    Each {!Tenant.slo} class has its own bounded
    FIFO; dispatch is deficit-weighted fair across the classes (so
    best-effort work still drains under load, at its configured share);
    shedding under pressure always victimizes the *weakest* queued class
    first — the invariant the property tests pin down is that drop-oldest
    never drops a request while a strictly weaker one is queued.

    Everything here is pure bookkeeping over the simulated clock: no
    randomness, no wall time. The same offer/pop sequence replays
    identically under any [--seed], because the seed only shapes the
    trace upstream. *)

type item = {
  tenant : Tenant.t;
  request : Request.t;
  digest : int64;  (** {!Prog_cache} identity of the request's program *)
}

val item_slo : item -> Tenant.slo
val item_rank : item -> int

(** The degradation ladder, mildest first. Each level keeps everything
    the previous level rejected and adds one more refusal. *)
type level =
  | Normal
  | Shed_best_effort  (** new best-effort arrivals are refused *)
  | Cap_width         (** … and arrivals wider than [cap_width] lanes *)
  | Reject_new        (** … and everything else *)

val level_name : level -> string

type reason =
  | Queue_full   (** the class queue was full and the offer was weakest *)
  | Overloaded of level  (** refused by the ladder at this level *)
  | Invalid_input
      (** the request's inputs disagree with its program (count or
          per-row shape), or with the row shapes fixed by the first
          admitted request of the same program; refused at ingest,
          before it can reach a lane *)
  | Too_wide  (** wider than a whole shard: unservable by construction *)

val reason_name : reason -> string

(** [Fair] is the tenant stack: per-class queues, weighted-fair pop,
    rung-by-rung degradation. [Fifo] is the no-admission baseline arm:
    one arrival-ordered queue, SLO-blind, with only reject-new when
    full. [Shortest_first] is [Fifo]'s queue with a different pop: the
    fitting item with the smallest {!Request.cost_hint}, ties broken by
    arrival (shortest-expected-first admission). *)
type mode = Fair | Fifo | Shortest_first

type config = {
  mode : mode;
  depth : int;
      (** per-class nominal share of the buffer. The classes share one
          buffer of [3 * depth] slots ([Fifo], [Shortest_first]: a
          single queue of [depth] slots), so a strong class can borrow a weak class's share
          under pressure — the shed-victim rule is what keeps the
          borrowing honest. *)
  weights : int array;  (** dispatch share per {!Tenant.rank}; length 3 *)
  cap_width : int;      (** max request width admitted at [Cap_width] *)
  high_water : float;
      (** ladder climbs one rung when total occupancy (queued / total
          capacity) reaches this fraction … *)
  low_water : float;
      (** … and descends one rung when it falls back below this (strictly
          lower) fraction — the hysteresis band that keeps the ladder
          from flapping. *)
}

val default : config
(** [Fair], depth 64 per class, weights [|6; 3; 1|], cap_width 1,
    high_water 0.75, low_water 0.5. *)

val fifo : ?depth:int -> unit -> config
(** The baseline arm; [depth] defaults to [3 * default.depth] so both
    arms hold the same total backlog. The ladder never engages. *)

val capacity : config -> int
(** Total buffered slots: [3 * depth] in [Fair] mode, [depth] in the
    single-queue modes. *)

type t

val create :
  ?config:config ->
  ?on_transition:
    (old_level:level -> new_level:level -> occupancy:float -> cause:string -> unit) ->
  unit ->
  t
(** [on_transition] fires whenever the {e effective} level (the max of
    the occupancy rung and the SLO floor) changes, with the occupancy at
    the transition and the cause — ["occupancy"] for ladder moves,
    ["slo-floor"] for {!set_floor}. A rung move masked by a higher floor
    is not a transition. The callback runs inside queue operations:
    it must not call back into this [t]. *)

val level : t -> level
(** The effective level: the occupancy rung or the SLO floor, whichever
    is more protective. *)

val set_floor : t -> level -> unit
(** Pin the ladder at or above a level regardless of occupancy — the
    burn-rate monitor's lever: a firing latency SLO holds the ladder at
    [Shed_best_effort] even while the queue looks healthy, and resolving
    releases it ([set_floor t Normal]). No-op outside [Fair] mode (the
    single-queue modes have no ladder). *)

val floor_level : t -> level
(** The current floor (not the effective level). *)

val occupancy : t -> float
(** Queued / total capacity, the quantity the ladder thresholds read. *)

val length : t -> int
val class_length : t -> Tenant.slo -> int

val offer : t -> item -> [ `Admitted | `Shed of item | `Rejected of reason ]
(** Queue the item, advancing the ladder first. [`Shed victim] means the
    item was admitted by dropping [victim], the oldest item of the
    weakest non-empty class — never a class strictly stronger than the
    offer's; if the offer itself is weakest, the victim is the offer.
    [`Rejected] refuses the offer without touching the queues. *)

val pop : t -> fits:(item -> bool) -> item option
(** Dispatch one item. [Fair]: deficit-weighted round-robin over the
    classes — each class accumulates [weights.(rank)] credit per round
    and the strongest positive-credit class dispatches its oldest item
    passing [fits] (a non-fitting item never wedges fitting work queued
    behind it; arrival order per program is preserved, so replay is
    deterministic). [Fifo]: the oldest fitting item in strict arrival
    order across all classes — SLO-blind, which is the baseline's
    defining pathology. [Shortest_first]: the fitting item with the
    smallest cost hint, the oldest among equals. *)

val push_front : t -> item -> unit
(** Re-queue an item at the head of its class (recovery replays admitted
    work after a device kill; does not move the ladder). *)

val peek_strongest_waiting : t -> item option
(** The head of the strongest non-empty class (preemption looks here). *)

val iter : t -> (item -> unit) -> unit
(** Every queued item, strongest class first, FIFO within class (the
    server's demand-binding scans this for needy digests). *)

val requeue_order : item list -> item list
(** Sort a batch of recovered items back into deterministic re-admission
    order: by arrival, then request id. *)
