(** Hamiltonian Monte Carlo written in the autobatching surface language.

    NUTS exercises recursion; this program exercises the other paper
    claim: a program with (non-re-entrant) function calls and loops but no
    recursion compiles to a stack program with {e zero} stacked variables
    — program-counter autobatching then matches local static autobatching
    while still batching across the call (§3, last optimization note).
    Verified in the test suite via {!Stack_ir.stats}.

    Program signature:
    {v
    hmc_chain(q0 : [d], eps : [], n_iter : [], n_burn : [], cnt0 : [],
              minv : [d])
      -> (q : [d], sum_q : [d], sum_qsq : [d], cnt : [], accepts : [])
    v}

    As with {!Nuts_dsl}, a counter-based reference implementation
    ({!reference_chain}) matches the batched program bitwise. *)

type params = { n_leapfrog : int }

val program : ?params:params -> unit -> Lang.program

val input_shapes : model:Model.t -> Shape.t list

val inputs :
  ?minv:Tensor.t ->
  q0:Tensor.t ->
  eps:float ->
  n_iter:int ->
  n_burn:int ->
  batch:int ->
  unit ->
  Tensor.t list

type reference_result = {
  final_q : Tensor.t;
  final_counter : int;
  accepts : float;     (** accepted proposals (all iterations) *)
  sum_q : Tensor.t;    (** post-burn accumulators, as the program returns *)
  sum_qsq : Tensor.t;
}

val reference_chain :
  ?params:params ->
  ?minv:Tensor.t ->
  model:Model.t ->
  key:Counter_rng.key ->
  member:int ->
  q0:Tensor.t ->
  eps:float ->
  n_iter:int ->
  n_burn:int ->
  unit ->
  reference_result
