(** Trace recording over {!Obs_sink} events, exported as Chrome
    trace-event JSON (load in Perfetto / [chrome://tracing]) or CSV.

    A trace holds named tracks; {!sink} adapts a track into an event sink
    whose timestamps come from a caller-supplied monotonic clock (usually
    [Engine.elapsed], i.e. simulated seconds). Events that already carry
    their own simulated-time span ({!Obs_sink.Launched}, [Collective], the
    request lifecycle) are stamped from their payload instead of the clock.
    Recording is mutex-protected; {!Obs_sink.Step} events from the pools
    of a multi-shard run are split onto per-shard Chrome threads at export
    time. *)

type t

type entry = { track : int; ts : float; ev : Obs_sink.event }

val create : ?limit:int -> unit -> t
(** [limit] bounds the number of recorded entries (default 500_000);
    entries past the limit are counted in {!dropped}, not stored, and the
    drop count is exported in the Chrome document's [otherData]. *)

val track : t -> string -> int
(** Register a named track (a Chrome thread). *)

val record : t -> track:int -> ts:float -> Obs_sink.event -> unit

val sink : t -> track:int -> clock:(unit -> float) -> Obs_sink.t
(** Record events onto [track]. [clock] supplies timestamps (in simulated
    seconds) for events without an intrinsic one; it must be monotone for
    the exported track to be well-formed. [Launch] events are not recorded
    — their paired [Launched] carries the span. *)

val entries : t -> entry list
(** In recording order. *)

val tracks : t -> (int * string) list
val dropped : t -> int

val to_chrome : t -> Obs_json.t
(** Chrome trace-event document: [{"traceEvents": [...]}] with
    thread-name metadata per track, B/E span pairs for supersteps (one
    span per scheduled block), X complete events for launches, collectives
    and request queue/service phases, instant events for enqueue/shed/
    reject/checkpoint/restore, and C counter tracks from
    {!Obs_sink.Occupancy} events (stacked active/masked/halted lane
    counts plus a utilization-percent series, per track/shard).
    Timestamps are microseconds. *)

val to_chrome_string : t -> string

val to_csv : ?policy:string -> t -> string
(** One row per entry: [track,ts,kind,name,detail]. When [policy] is
    given (a {!Sched_policy.to_string} name) a trailing [policy] column
    is appended to the header and every row, so sweep CSVs from
    different scheduling policies concatenate cleanly. *)

val write : t -> path:string -> unit
(** Write the Chrome document (compact JSON) to [path]. *)
