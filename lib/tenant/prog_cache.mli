(** Hash-consed program identity and a cache of compiled programs.

    Serving traffic repeats programs: many tenants run the same model, and
    one tenant runs the same model many times. Compiling through
    {!Autobatch.compile} on every request would dominate serving cost, so
    the cache keys compiled artifacts on a *structural* 64-bit digest of
    the source {!Lang.program} plus the input element shapes, from which
    [compile] infers every variable's shape.

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
    same-digest request the same [Autobatch.compiled] value (or, for a
    digest the cache does not keep, an equal one from the same
    deterministic compile) makes that substitution exact. *)

val digest_program : Lang.program -> int64
(** Structural digest of the program alone (no shapes). *)

val digest : ?input_shapes:Shape.t list -> Lang.program -> int64
(** The cache key: {!digest_program} combined with the input element
    shapes (their absence hashes differently from an empty list). *)

type t

val create :
  ?registry:Prim.registry -> ?sink:Obs_sink.t -> ?clock:(unit -> float) ->
  capacity:int -> unit -> t
(** An empty cache holding at most [capacity] compiled programs
    (capacity 0 disables caching: every lookup compiles and nothing is
    retained). Below [capacity] every miss is kept. A miss into a full
    cache is admitted by a {!Doorkeeper} of [capacity] digests: it is
    compiled and returned but not kept, evicting nothing, unless the same
    digest missed the full cache recently — that second miss evicts the
    least-recently-used entry and keeps the artifact. One-off programs
    therefore never push a hot program out. All compilations share [registry] (default
    [Prim.standard ()]), so same-digest requests share RNG seeding and
    primitive identity. {!hits}, {!misses} and {!evictions} count the
    lookups. With a [sink], every lookup additionally
    emits a zero-width [Obs_sink.Span] instant (["cache-hit"],
    ["cache-miss"], ["compile"]) on {!Obs_span.cache_trace}, stamped
    from [clock] (the owner's simulated clock; defaults to a constant
    0). *)

val find_or_compile :
  t -> ?optimize:bool -> ?fuse:Fuse.options -> input_shapes:Shape.t list ->
  Lang.program -> Autobatch.compiled * [ `Hit | `Miss ]
(** Return the cached artifact for the program's digest, or compile and
    return it, keeping it as {!create} describes. While a digest is
    cached every same-digest call returns the {e physically same}
    [Autobatch.compiled]; a digest compiled again (after an eviction, or
    a miss the cache did not keep) gets an equal artifact — compilation
    is deterministic and shares the registry. The compile options are trusted to be
    uniform per digest — callers with conflicting options must use
    separate caches.

    {b The identity memo.} Sources usually hand the same program value
    to the cache again and again, so before digesting, the lookup checks
    the most recent [capacity] programs it digested whose digest the
    cache holds: a physically identical program ([==]) with equal input
    shapes is a hit without a walk, and only a memo miss walks the
    program. A program the cache did not keep is not remembered, and an
    eviction forgets the evicted digest's programs. The memo changes no count,
    event or digest value; a structurally equal copy misses it and finds
    its entry through the digest. A submitted program is therefore
    treated as a value: mutating it in place after a lookup (say, a
    [Lang.Vec] array) is unsupported, as the memo would keep its old
    digest. *)

val find : t -> int64 -> Autobatch.compiled option
(** Peek by digest; counts and refreshes like a lookup, but never
    compiles. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val length : t -> int
(** The number of artifacts the cache holds, at most [capacity]. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [nan] before the first lookup. *)
