(** Wall-clock and GC telemetry — the measurement half of the
    "wall-clock column" roadmap item.

    Everything else in [lib/obs] runs on the simulated clock; this
    module is the fenced-off corner that reads real clocks. Wall time
    comes from [CLOCK_MONOTONIC] (immune to NTP steps), CPU time from
    [Sys.time] (process-wide), and GC numbers from [Gc.quick_stat] deltas —
    cheap, no heap walk. Wall samples never feed back into simulated
    cost — they are reporting only. *)

type sample = {
  wall_s : float;  (** monotonic wall seconds. *)
  cpu_s : float;  (** process CPU seconds ([Sys.time] delta). *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

val time : (unit -> 'a) -> 'a * sample
(** [time f] runs [f] and returns its result with the wall, CPU and GC
    deltas across the call. *)

val alloc_words : sample -> float
(** Words allocated: [minor + major - promoted] (promoted words appear
    in both generation counters). *)

(** {1 Export} *)

val to_json : sample -> Obs_json.t
(** [{wall_s; cpu_s; minor_words; major_words; promoted_words;
    minor_collections; major_collections; alloc_words}]. *)

val summary : sample -> string
(** One-line human summary, e.g.
    ["wall 1.24s  cpu 2.31s  alloc 1.2Gw (968.1Mw/s)  gc 312/4"]. *)

val span_of_seconds : float -> string
(** Human duration for table cells: ["312us"], ["4.1ms"], ["1.24s"]. *)
