(** A typed metrics registry: counters and log-bucketed latency
    histograms with quantile readout. An instrument is identified by its
    name within the registry; asking for the same name twice returns the
    same instrument. *)

type t
type counter
type histogram

val create : unit -> t

(** {1 Counters} — monotonically increasing integers. *)

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int

(** {1 Histograms}

    Log-bucketed at 8 buckets per power of two (≈ 9% relative resolution),
    spanning [2^-32, 2^32] with underflow/overflow clamping; non-positive
    observations land in a dedicated zero bucket. Exact count, sum, min and
    max are tracked alongside the buckets, and quantile estimates are
    clamped to the observed [min, max]. *)

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
(** [nan] when empty. *)

val hist_min : histogram -> float
val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1] (clamped); [nan] when empty. The
    estimate is the geometric midpoint of the bucket holding the rank-[q]
    observation, so its relative error is bounded by the bucket width.
    The edges are exact rather than bucket artifacts: one observation
    reads itself at every [q], and the extreme ranks (rank 1 and rank
    [n], e.g. any [q] with a two-observation histogram) read the tracked
    exact min/max. *)

val hist_to_json : histogram -> Obs_json.t
(** [{count; sum; mean; min; max; p50; p90; p99}]. *)

val to_json : t -> Obs_json.t
(** Whole-registry document: counters and histogram summaries, each
    section sorted by instrument name. *)
