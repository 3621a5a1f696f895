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
    layer: callers feed it [Tenant.slo_name] (or any class key) without
    this module depending on tenant types. [Tenant_server] forwards
    {!poll} results to its sink as [Obs_sink.Slo_alert] events; the
    monitor only observes and never steers the server. *)

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

(** {1 Feeding observations} *)

val observe : t -> cls:string -> now:float -> ok:bool -> unit
(** Record one request outcome for [cls] at simulated time [now].
    Unknown classes are ignored (a tenant with no monitored SLO). *)

val observe_latency : t -> cls:string -> now:float -> float -> unit
(** [observe] with [ok = latency <= threshold] for the class. *)

(** {1 Reading state} *)

val burn_rates : t -> cls:string -> now:float -> float * float
(** [(fast, slow)] burn rates at [now]; [(0, 0)] for unknown classes or
    empty windows. *)

val firing : t -> cls:string -> bool

val fired_total : t -> int
(** Total fire transitions across all classes since creation. *)

(** {1 Polling for alert transitions} *)

type alert = {
  a_cls : string;
  a_fired : bool;  (** [true] = fired, [false] = resolved. *)
  a_burn_fast : float;
  a_burn_slow : float;
  a_at : float;
}

val poll : t -> now:float -> alert list
(** Evaluate every class at [now] and return the state {e transitions}
    (newly fired or newly resolved) — steady states return nothing, so a
    caller polling every round emits each alert edge exactly once. *)

val alert_to_event : alert -> Obs_sink.event
(** The [Obs_sink.Slo_alert] image of an alert, for forwarding to a
    sink. *)

val to_json : t -> now:float -> Obs_json.t
(** Per-class document: config, lifetime observed/breached counts,
    current burn rates and firing state, fired/resolved totals. *)
