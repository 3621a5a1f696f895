(** Hash-consed program identity and an LRU of compiled programs.

    Serving traffic repeats programs: many tenants run the same model, and
    one tenant runs the same model many times. Compiling through
    {!Autobatch.compile} on every request would dominate serving cost, so
    the cache keys compiled artifacts on a *structural* 64-bit digest of
    the source {!Lang.program} (plus the input element shapes, which
    change what [compile] preallocates).

    The digest is one streaming post-order fold: each expression,
    statement, function and program node mixes its constructor tag, its
    scalar payloads, its hashed strings and its children's digests, in
    that order, through {!Splitmix.hash2} — no table, no intermediate
    node records. The values are those of the earlier table-interned
    walk, bit for bit (the tests pin them): the tenant server breaks
    placement ties on digests, so changing them would move scheduling.
    Alpha-renamed programs hash differently by design — identity is the
    source text's structure, not semantics.

    Physical sharing matters beyond speed: the tenant server binds each
    shard pool to one digest and runs every request of that digest on
    the compiled program the pool was bound with, so handing every
    same-digest request the same [Autobatch.compiled] value makes that
    substitution exact by construction. *)

val digest_program : Lang.program -> int64
(** Structural digest of the program alone (no shapes). *)

val digest : ?input_shapes:Shape.t list -> Lang.program -> int64
(** The cache key: {!digest_program} combined with the input element
    shapes (their absence hashes differently from an empty list). *)

type t

val create :
  ?metrics:Obs_metrics.t -> ?registry:Prim.registry -> ?sink:Obs_sink.t ->
  ?clock:(unit -> float) -> capacity:int -> unit -> t
(** An empty cache holding at most [capacity] compiled programs
    (capacity 0 disables caching: every lookup compiles and nothing is
    retained). All compilations share [registry] (default
    [Prim.standard ()]), so same-digest requests share RNG seeding and
    primitive identity. Hit/miss/evict counters are registered in
    [metrics] as ["prog_cache_hits"], ["prog_cache_misses"],
    ["prog_cache_evictions"]. With a [sink], every lookup additionally
    emits a zero-width [Obs_sink.Span] instant (["cache-hit"],
    ["cache-miss"], ["compile"]) on {!Obs_span.cache_trace}, stamped
    from [clock] (the owner's simulated clock; defaults to a constant
    0). *)

val find_or_compile :
  t -> ?optimize:bool -> ?fuse:Fuse.options -> ?input_shapes:Shape.t list ->
  Lang.program -> Autobatch.compiled * [ `Hit | `Miss ]
(** Return the cached artifact for the program's digest, or compile,
    insert (evicting the least-recently-used entry when full) and return
    it. Every same-digest call returns the {e physically same}
    [Autobatch.compiled]. The compile options are trusted to be
    uniform per digest — callers with conflicting options must use
    separate caches. *)

val find : t -> int64 -> Autobatch.compiled option
(** Peek by digest; counts and refreshes like a lookup, but never
    compiles. *)

val length : t -> int
val capacity : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; [nan] before the first lookup. *)
