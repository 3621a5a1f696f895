(** Request-scoped span traces: the consumer side of
    {!Obs_sink.event.Span}.

    Emitters (the tenant server, {!Prog_cache}, ...) publish completed
    spans on the simulated clock as ordinary sink events. This module
    collects them into a bounded recorder, checks that every request's
    spans form one properly-nested tree, and exports Perfetto
    track-per-tenant traces plus a flat JSON document.

    Everything is deterministic: span ids, timestamps, and ordering all
    come from the emitter's simulated clock and deterministic counters,
    so a recorded trace is bitwise replayable under the same seed. *)

(** The trace context carried on a {!Request}: which trace the request's
    spans belong to and, optionally, an upstream parent span to hang the
    request's root under (so a caller can stitch serving traces into its
    own). *)
type ctx = { trace : int; parent : int }

val no_parent : int
(** [-1]: the parent id of a root span. *)

val ops_trace : int
(** [-1]: the operational trace — server-lifecycle instants (pool
    scaling, checkpoint/restore, ladder moves) that belong to no single
    request. Negative traces are exempt from the one-root rule. *)

val cache_trace : int
(** [-2]: the program cache's operational trace (hit/miss/compile). *)

val ops_track : int
(** [-1]: the Perfetto track operational spans render on. *)

val ctx : ?parent:int -> trace:int -> unit -> ctx
(** [parent] defaults to {!no_parent}. *)

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_track : int;
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

type t

val create : ?limit:int -> unit -> t
(** Bounded recorder; spans past [limit] (default 2M) are counted in
    {!dropped} and discarded. Thread-safe (mutex-protected). *)

val sink : t -> Obs_sink.t
(** Collects {!Obs_sink.event.Span} events; every other event is
    ignored, so this composes with {!Obs_sink.fanout} next to a tracer
    or profiler. *)

val record : t -> span -> unit
val spans : t -> span list  (** in recording order *)

val length : t -> int
val dropped : t -> int

val count_named : t -> string -> int
(** Spans with exactly this name (the gate counts "preempted",
    "migrate", "restore"). *)

(** Tree validation over the request traces ([trace >= 0]): each must
    have exactly one root, no orphaned parent references, and every
    child interval nested within its parent (1ns slack). [inverted]
    counts [t1 < t0] spans across {e all} traces, operational ones
    included. *)
type tree_stats = {
  traces : int;
  well_formed : int;
  multi_root : int;
  orphans : int;
  nest_violations : int;
  inverted : int;
}

val validate : t -> tree_stats

val all_well_formed : t -> bool
(** Every request trace is a single properly-nested tree and no span is
    inverted. *)

val to_chrome : ?track_names:(int * string) list -> t -> Obs_json.t
(** Perfetto/Chrome trace-event document: one thread per track ("X"
    complete events, "i" instants), thread names from [track_names]
    (default ["tenant %d"], ["ops"] for {!ops_track}). *)

val to_json : t -> Obs_json.t
(** Flat list of span records, for {!Obs_report} embedding. *)

val stats_to_json : tree_stats -> Obs_json.t
val write : t -> path:string -> unit  (** {!to_chrome} to a file. *)
