(** A typed metrics registry: counters, gauges, and log-bucketed latency
    histograms with quantile readout.

    A registry created with [~enabled:false] hands out dead instruments:
    every [incr]/[set]/[observe] is a single boolean test and no storage is
    allocated for histogram buckets, so instrumented code can keep its
    metric handles unconditionally and pay nothing when observability is
    off. An instrument is identified by its name within the registry; asking
    for the same name twice returns the same instrument. *)

type t
type counter
type gauge
type histogram

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to [true]. *)

val enabled : t -> bool

(** {1 Counters} — monotonically increasing integers. *)

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int

(** {1 Gauges} — last-write-wins floats. *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

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

(** {2 Bucket geometry}

    The shared log-bucket layout, exposed for {!Obs_window}'s rolling
    histograms so windowed and cumulative quantiles agree bucket-for-
    bucket. *)

val n_buckets : int
val bucket_of : float -> int
(** Bucket index for a value; bucket 0 holds zero/negative values. *)

val bucket_value : int -> float
(** Geometric midpoint of a bucket (0 for bucket 0) — the minimax
    representative under relative error. *)

val hist_to_json : ?buckets:bool -> histogram -> Obs_json.t
(** [{count; sum; mean; min; max; p50; p90; p99}]. With [~buckets:true],
    adds a ["buckets"] list of [{lo; hi; count}] rows — the raw occupied
    bucket boundaries and counts, for downstream plotting. The zero bucket
    is reported as the degenerate range [\[0, 0\]]. Default [false]. *)

val to_json : t -> Obs_json.t
(** Whole-registry document: counters, gauges and histogram summaries,
    each section sorted by instrument name. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s instruments into [into], matching by
    name and creating missing instruments, in the style of
    [Engine.Counters.merge]: counters add, gauges sum, histograms add
    bucket-wise with count/sum accumulated and min/max combined. Used to
    aggregate per-shard registries. A disabled [into] absorbs nothing. *)
