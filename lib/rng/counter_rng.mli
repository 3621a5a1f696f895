(** Counter-based (stateless, splittable) random numbers.

    Every draw is a pure function of [(seed, member, counter, slot)]:
    - [seed] identifies the whole experiment;
    - [member] is the batch member (chain) index;
    - [counter] is a *program-managed* draw counter — in autobatched
      programs it is an ordinary program variable that the program itself
      increments, so masked execution of inactive lanes cannot perturb any
      member's stream (the masked lane's counter never advances);
    - [slot] indexes elements within one logical draw (e.g. the [d]
      components of a momentum vector).

    This is the property that lets us demand *bitwise* agreement between
    the single-example reference sampler and both autobatching runtimes. *)

type key

val key : int64 -> key
(** Make a key from an experiment seed. *)

val uniform : key -> member:int -> counter:int -> slot:int -> float
(** Uniform in the open interval (0,1). *)

val normal : key -> member:int -> counter:int -> slot:int -> float
(** Standard normal (Box–Muller over two slot-derived uniforms). *)

val exponential : key -> member:int -> counter:int -> slot:int -> float
(** Rate-1 exponential. *)
