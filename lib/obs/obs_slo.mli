(** Multi-window burn-rate monitoring per SLO class, on the simulated
    clock.

    Each class has an error budget — the fraction of requests allowed to
    miss their latency threshold (or be shed). The {e burn rate} is the
    observed bad fraction divided by that budget: burn 1 means the
    budget is being consumed exactly at its sustainable pace, burn 2
    means twice as fast. Following the SRE-workbook recipe, an alert
    fires only when {e both} a fast and a slow window burn above the
    threshold: the fast window bounds detection latency, the slow window
    rejects transient blips. Alerts resolve with hysteresis once both
    windows fall below half the firing threshold.

    The monitor is deterministic — windows are {!Obs_window} counters on
    the simulated clock — and string-keyed so it lives below the tenant
    layer: the class key is whatever the events carry ([Tenant.slo_name]
    for [Tenant_server]), and this module depends on no tenant type.
    A serving run feeds it through {!sink}, one more reader on the
    server's event stream; the monitor only observes and never steers
    the server. *)

type class_config = {
  cls : string;  (** class key, e.g. ["latency"]. *)
  threshold : float;  (** latency bound (simulated seconds) defining "bad". *)
  budget : float;  (** allowed bad fraction, in (0, 1]. *)
  fast_window : float;  (** detection window (simulated seconds). *)
  slow_window : float;  (** confirmation window; must exceed [fast_window]. *)
  burn_threshold : float;  (** fire when both burns reach this. *)
}

val class_config :
  ?budget:float ->
  ?fast_window:float ->
  ?slow_window:float ->
  ?burn_threshold:float ->
  cls:string ->
  threshold:float ->
  unit ->
  class_config
(** Defaults: budget 0.05, fast window 60 s, slow window 360 s, burn
    threshold 2. Raises [Invalid_argument] on non-positive [threshold]
    or [burn_threshold], a budget outside (0, 1], or
    [fast_window >= slow_window]. *)

type t

val create : classes:class_config list -> unit -> t
(** Raises [Invalid_argument] on an empty class list. *)

(** {1 Feeding the monitor} *)

val sink : t -> alerts:Obs_sink.t -> Obs_sink.t
(** The monitor's one input, a reader of a serving run's events:
    - [Request_shed]: a bad observation of its [cls] at [at];
    - [Request_rejected]: a bad observation only when admission refused
      the request ([reason] ["queue-full"] or ["overloaded:<level>"]);
    - [Request_completed]: an observation at [finished], bad when
      [finished -. queued] exceeds the class threshold;
    - [Round]: evaluate every class at [at] and hand each {e transition}
      (newly fired or newly resolved) to [alerts] as an
      [Obs_sink.Slo_alert], so each edge is reported once.
    Unknown classes and every other event are ignored. A restore's
    replayed completions are reported, and so counted, twice: acceptable
    for a rate, where span trees stay exactly-once. *)

(** {1 Reading state} *)

val burn_rates : t -> cls:string -> now:float -> float * float
(** [(fast, slow)] burn rates at [now]; [(0, 0)] for unknown classes or
    empty windows. *)

val firing : t -> cls:string -> bool

val fired_total : t -> int
(** Total fire transitions across all classes since creation. *)

val to_json : t -> now:float -> Obs_json.t
(** Per-class document: config, lifetime observed/breached counts,
    current burn rates and firing state, fired/resolved totals. *)
