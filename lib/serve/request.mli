(** A unit of serving work: one compiled program invocation.

    A request is [width] independent batch members of the same program —
    its inputs carry a leading width dimension, exactly the layout
    {!Autobatch.run_pc} takes — plus the RNG identity that makes its
    results reproducible anywhere: lane [i] of the request draws the
    streams of global member [member + i], so serving it in any lane mix
    is bitwise identical to running it alone with
    [{ Pc_vm.default_config with member_base = member }]. *)

type t = {
  id : int;
      (** caller-chosen identity; also the trace the server's spans for
          this request land on *)
  program : Autobatch.compiled; (** the program the request's digest names *)
  inputs : Tensor.t list;       (** leading width dimension, like [run_pc]'s batch *)
  width : int;
      (** the inputs' leading dimension, checked once by {!make}; a copy
          [{ r with ... }] must keep [inputs] *)
  member : int;                 (** global RNG member of the request's first lane *)
  arrival : float;              (** when the request reaches the server *)
  cost_hint : float;
      (** expected service cost, any consistent unit — the
          shortest-expected-first admission policy orders by it *)
}

val make :
  ?member:int ->
  ?arrival:float ->
  ?cost_hint:float ->
  id:int ->
  program:Autobatch.compiled ->
  inputs:Tensor.t list ->
  unit ->
  t
(** [member] defaults to [id]; [arrival] to 0; [cost_hint] to 1. Raises [Invalid_argument] if
    the inputs are empty or disagree on the leading width dimension. *)

val width : t -> int
(** Lanes the request occupies: the [width] field, so a call costs one
    load (the admission and refill scans call it per queued item). *)

val lane_inputs : t -> row:int -> Tensor.t list
(** Element tensors for one of the request's rows, ready for
    {!Pc_vm.Lanes.load}. *)
