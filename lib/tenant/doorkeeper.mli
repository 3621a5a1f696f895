(** The admission rule of {!Prog_cache} and of each {!Tenant_server}
    shard's retained pools: a digest that misses a full cache is used
    but not kept, unless it already missed recently. A doorkeeper is that
    record of recent misses — the last [capacity] digests that missed
    while the cache was full, newest first (the doorkeeper of TinyLFU,
    Einziger et al. 2017) — so one-off programs never push out the hot
    set, while a digest that keeps coming back is kept on its second
    miss. *)

type t

val create : capacity:int -> t
(** An empty record of at most [capacity] digests (0: nothing is ever
    admitted). *)

val admit : t -> int64 -> bool
(** A miss of [digest] into a full cache. [true] when the digest is in
    the record — it missed recently, so the cache should keep it — and
    forgets it; otherwise [false], recording the digest as the newest
    and dropping the oldest past [capacity]. *)
