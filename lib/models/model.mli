(** Target-density interface for the samplers.

    One record describes a model: its name, dimension, the {!Eff} handler
    DSL body that elaborates it ([spec], when the model is defined through
    the frontend), and the reference densities — unnormalized log density
    and gradient in single-example and batched forms, with flop estimates
    for the simulated accelerator. [register_prims] installs the densities
    as the [logp] and [grad] primitives that DSL programs (e.g.
    {!Nuts_dsl}) call; {!log_density} and {!simulate} elaborate the
    [spec] into IR programs through the handler stack. *)

type t = {
  name : string;
  dim : int;
  spec : (unit -> Lang.expr list) option;
      (** the {!Eff} model body, when defined through the DSL frontend *)
  logp : Tensor.t -> float;           (** [ [dim] -> scalar ] *)
  grad : Tensor.t -> Tensor.t;        (** [ [dim] -> [dim] ] *)
  logp_batch : Tensor.t -> Tensor.t;  (** [ [z;dim] -> [z] ] *)
  grad_batch : Tensor.t -> Tensor.t;  (** [ [z;dim] -> [z;dim] ] *)
  logp_flops : float;                 (** per evaluation per member *)
  grad_flops : float;
}

val make :
  name:string ->
  dim:int ->
  ?spec:(unit -> Lang.expr list) ->
  logp:(Tensor.t -> float) ->
  grad:(Tensor.t -> Tensor.t) ->
  logp_batch:(Tensor.t -> Tensor.t) ->
  grad_batch:(Tensor.t -> Tensor.t) ->
  logp_flops:float ->
  grad_flops:float ->
  unit ->
  t

val log_density : ?seed:int64 -> t -> Eff.elaborated
(** Elaborate [spec] under the trace interpretation ({!Eff.log_density}):
    latent sites become program parameters, every site is scored. The
    elaborated density is normalized, so it matches the reference [logp]
    on *differences* (all constants cancel), which is what every
    acceptance decision consumes. Raises [Invalid_argument] when the
    model has no [spec]. *)

val with_grad_counter : t -> t * int ref
(** A copy whose [grad] increments the returned counter on every
    evaluation — how the reference samplers report gradient counts. *)

val register_prims : Prim.registry -> t -> unit
(** Install primitives [logp : [dim] -> []] and [grad : [dim] -> [dim]]. *)

val check_shapes : t -> unit
(** Sanity-check single/batched agreement on a few synthetic points;
    raises [Failure] on disagreement. Used by tests. *)
