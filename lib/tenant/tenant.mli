(** Per-tenant identity, SLO class, and rate limiting.

    A tenant is one paying user of the serving stack: it carries the SLO
    class that admission and preemption key on, a token-bucket rate limit
    refilled on the *simulated* clock (so traces replay bitwise), and
    cumulative quota accounting. Tenants never touch wall time. *)

(** Service classes, strongest first. [rank] orders them: a lower rank is
    a stronger promise, and every cross-class decision in the stack
    (weighted-fair pop, shed-victim selection, preemption) compares
    ranks, never constructor order. *)
type slo = Latency_bound | Throughput | Best_effort

val n_slos : int

val rank : slo -> int
(** [0] for [Latency_bound], [1] for [Throughput], [2] for
    [Best_effort]. *)

val of_rank : int -> slo
(** Inverse of {!rank}; raises [Invalid_argument] out of range. *)

val slo_name : slo -> string
(** ["latency" | "throughput" | "best-effort"] — stable, used in metric
    names and JSON reports. *)

type t = {
  id : int;
  name : string;
  slo : slo;
  rate : float;  (** token refill rate, tokens per simulated second *)
  burst : float; (** bucket capacity, tokens *)
  quota : float; (** lifetime cost budget; [infinity] = unmetered *)
  mutable tokens : float;
  mutable refilled_at : float;  (** simulated time of the last refill *)
  mutable submitted : int;   (** requests offered by this tenant *)
  mutable throttled : int;   (** requests refused by the bucket or quota *)
  mutable completed : int;
  mutable cost_used : float; (** cumulative admitted cost, counted
                                 against [quota] *)
}

val make :
  ?slo:slo -> ?rate:float -> ?burst:float -> ?quota:float ->
  id:int -> name:string -> unit -> t
(** [slo] defaults to [Best_effort]; [rate] to [infinity] (no rate
    limit); [burst] to [max rate 1.] when [rate] is finite; [quota] to
    [infinity]. The bucket starts full. Raises [Invalid_argument] on a
    non-positive [rate] or [burst]. *)

val admit : t -> now:float -> cost:float -> bool
(** Refill the bucket for the simulated interval since the last refill
    (clamped at [burst]), then try to take [cost] tokens and charge
    [cost] against the quota. Returns [false] — and counts a throttle —
    when either the bucket or the remaining quota cannot cover [cost].
    [now] must be monotone per tenant; an earlier [now] refills
    nothing. *)

val tokens_available : t -> now:float -> float
(** The bucket level at [now], without taking anything. *)
