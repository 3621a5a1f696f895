(** Seeded fault injection for resilience experiments.

    A {e plan} is a reproducible list of fault events drawn from a seeded
    stream: at most one per superstep, Bernoulli with the given rate. An
    {e injector} walks the plan against its own monotone wall clock —
    deliberately outside any checkpoint, so restoring a VM rewinds the
    VM's step counter but not wall time and each event fires exactly once
    (the recovered run re-executes the lost supersteps without
    re-suffering the same fault).

    Wiring: {!sink} turns an injector into an {!Obs_sink.t} — install it
    as a VM config's [sink] (composed after any user sink with
    {!Obs_sink.fanout}) so [Step] events advance the wall clock, and as
    the engine's sink ({!Engine.set_sink}) so a poisoned kernel aborts on
    its [Launch] event before it is charged. {!drops_now} goes in a
    sharded driver's collective phase. *)

type kind =
  | Device_kill  (** the device dies mid-superstep; raised from {!tick} *)
  | Kernel_poison
      (** one kernel launch fails; raised from {!launch_check} via the
          engine's launch hook *)
  | Link_drop
      (** a mesh link drops a message; surfaced by {!drops_now} for the
          driver to retry the collective *)

type event = { superstep : int; device : int; kind : kind }

exception Injected of event
(** Raised by {!tick} and {!launch_check} when their event is due. *)

val schedule :
  seed:int ->
  rate:float ->
  horizon:int ->
  ?devices:int ->
  ?kinds:kind list ->
  unit ->
  event list
(** Draw a plan: for each superstep in [1..horizon], an event with
    probability [rate], victim device uniform in [0..devices-1], kind
    uniform in [kinds] (default [[Device_kill]]). Ascending superstep.
    Raises [Invalid_argument] on a rate outside [0,1], a negative
    horizon, no devices, or no kinds. *)

type injector

val injector : event list -> injector
(** Start an injector at wall-clock 0 over the plan (sorted internally). *)

val tick : injector -> unit
(** Advance the wall clock one superstep. Expires events whose superstep
    has passed unfired, then raises {!Injected} if a [Device_kill] is due
    this superstep. *)

val sink : injector -> Obs_sink.t
(** The injector as an observability sink: [Step] events run {!tick},
    [Launch] events raise {!Injected} when a [Kernel_poison] is due at
    the current wall superstep (before the launch is charged), and
    everything else is ignored.
    Compose it after a user's own sink with {!Obs_sink.fanout} so tracing
    observes a superstep before the fault aborts it. *)

val drops_now : injector -> event list
(** Pop every [Link_drop] due at the current wall superstep (the driver
    retries the collective and accounts the wasted superstep). *)

val injected : injector -> int
(** [List.length (fired t)]. *)
