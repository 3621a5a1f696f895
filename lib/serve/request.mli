(** A unit of serving work: one compiled program invocation.

    A request is [width] independent batch members of the same program —
    its inputs carry a leading width dimension, exactly the layout
    {!Autobatch.run_pc} takes — plus the RNG identity that makes its
    results reproducible anywhere: lane [i] of the request draws the
    streams of global member [member + i], so serving it in any lane mix
    is bitwise identical to running it alone with
    [{ Pc_vm.default_config with member_base = member }]. *)

type t = {
  id : int;                     (** caller-chosen identity (metrics, tracing) *)
  program : Autobatch.compiled; (** the program the request's digest names *)
  inputs : Tensor.t list;       (** leading width dimension, like [run_pc]'s batch *)
  member : int;                 (** global RNG member of the request's first lane *)
  arrival : float;              (** when the request reaches the server *)
  cost_hint : float;
      (** expected service cost, any consistent unit — the
          shortest-expected-first admission policy orders by it *)
  ctx : Obs_span.ctx;
      (** trace context: which distributed trace this request belongs to
          and the caller's span it should parent under. Carried inertly
          through admission, checkpointing and migration so the server's
          span tree lands in the caller's trace. *)
}

val make :
  ?member:int ->
  ?arrival:float ->
  ?cost_hint:float ->
  ?ctx:Obs_span.ctx ->
  id:int ->
  program:Autobatch.compiled ->
  inputs:Tensor.t list ->
  unit ->
  t
(** [member] defaults to [id]; [arrival] to 0; [cost_hint] to 1; [ctx]
    to a fresh root context on trace [id]. Raises [Invalid_argument] if
    the inputs are empty or disagree on the leading width dimension. *)

val width : t -> int
(** Lanes the request occupies (the inputs' leading dimension). *)

val lane_inputs : t -> row:int -> Tensor.t list
(** Element tensors for one of the request's rows, ready for
    {!Pc_vm.Lanes.load}. *)
