(** Request-scoped span traces: the identity and the tree rule of
    {!Obs_sink.event.Span}.

    Emitters (the tenant server, {!Prog_cache}, ...) publish completed
    spans on the simulated clock as ordinary sink events, and
    {!Obs_trace} records and exports them like every other event (one
    Perfetto thread per span track). This module owns what a span
    {e means}: the reserved root parent, operational traces and track,
    and the validator that checks every request's spans form one
    properly-nested tree. A request's spans live on the trace named by
    its [Request] id.

    Everything is deterministic: span ids, timestamps, and ordering all
    come from the emitter's simulated clock and deterministic counters,
    so a recorded trace is bitwise replayable under the same seed. *)

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

val sink : Obs_trace.t -> Obs_sink.t
(** Records {!Obs_sink.event.Span} events into the trace (on a track
    named ["spans"], stamped at the span's start) and ignores every
    other event: a span recorder without the superstep stream. *)

(** Tree validation over the request traces ([trace >= 0]) among the
    trace's {!Obs_sink.event.Span} entries (every other entry is
    ignored): each must have exactly one root, no orphaned parent
    references, and every child interval nested within its parent (1ns
    slack). [inverted] counts [t1 < t0] spans across {e all} traces,
    operational ones included. *)
type tree_stats = {
  traces : int;
  well_formed : int;
  multi_root : int;
  orphans : int;
  nest_violations : int;
  inverted : int;
}

val validate : Obs_trace.t -> tree_stats

val all_well_formed : tree_stats -> bool
(** Every request trace {!validate} saw is a single properly-nested tree
    and no span is inverted. *)

val stats_to_json : tree_stats -> Obs_json.t
