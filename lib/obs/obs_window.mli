(** Sliding-window counters on the simulated clock.

    A window of length [w] is split into a ring of 8 sub-buckets of
    width [w/8]; advancing the clock zeros whatever the clock skipped.
    Readouts therefore cover the last [w] simulated seconds with [w/8]
    granularity, in constant state, and are pure functions of the
    observation sequence — no wall time anywhere, so replays under the
    same seed read identically. {!Obs_slo} builds its multi-window
    burn-rate monitor on {!counter}. *)

type counter

val counter : window:float -> unit -> counter
(** Raises [Invalid_argument] on a non-positive [window]. *)

val add : counter -> now:float -> float -> unit
(** Accumulate a value at simulated time [now]. Observations older than
    the window (the clock already slid past their sub-bucket) are
    dropped. *)

val total : counter -> now:float -> float
(** Sum over the window ending at [now]. *)
