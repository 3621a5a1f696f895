(** Autobatch — batch control-intensive programs automatically.

    This is the library facade tying the pipeline together:

    {v
    Lang program ──Validate──▶ Cfg (Figure 2) ──Lower_stack──▶ Stack_ir (Figure 4)
                                   │                               │
                              Local_vm (Alg. 1)               Pc_vm (Alg. 2)
    v}

    Typical use:
    {[
      let compiled = Autobatch.compile ~input_shapes:[ [||] ] program in
      let out = Autobatch.run_pc compiled ~batch:[ inputs ] in
      ...
    ]}

    See [examples/quickstart.ml] for a complete program. *)

type compiled = {
  source : Lang.program;
  registry : Prim.registry;
  cfg : Cfg.program;
  stack : Stack_ir.program;
  shapes : Shape.t Ir_util.Smap.t;  (** element shapes, when inferable *)
  fuse : Fuse.report option;  (** fusion report, when compiled with [fuse] *)
}

val compile :
  ?registry:Prim.registry ->
  ?options:Lower_stack.options ->
  ?optimize:bool ->
  ?fuse:Fuse.options ->
  ?input_shapes:Shape.t list ->
  Lang.program ->
  compiled
(** Validate and lower a program. [registry] defaults to
    {!Prim.standard}[ ()]. When [input_shapes] (element shapes of the
    entry function's parameters) is given, static shape inference runs and
    the program-counter VM preallocates all storage, as on a static-shape
    accelerator; otherwise storage is allocated on first write.
    [optimize] (default false) runs the {!Optimize} passes — constant
    folding, copy propagation, dead-code elimination — on the CFG before
    stack lowering; results stay bitwise identical.
    [fuse] additionally runs the superblock fusion passes ({!Fuse}) at
    both the CFG and stack levels — fewer supersteps and kernel
    dispatches, still bitwise identical — and implies [optimize] (the
    pipeline re-optimizes across the fused block boundaries).
    Raises [Invalid_argument] with the validation errors on a malformed
    program. *)

val run_local :
  ?config:Local_vm.config -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Local static autobatching (Algorithm 1) over a batch; every input
    carries a leading batch dimension. *)

val run_pc : ?config:Pc_vm.config -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Program-counter autobatching (Algorithm 2) over a batch. *)

val run_sharded :
  ?config:Shard_vm.config ->
  ?runtime:[ `Pc | `Local ] ->
  compiled ->
  batch:Tensor.t list ->
  Shard_vm.result
(** Shard the batch dimension across a device mesh ({!Shard_vm}), one
    OCaml domain per shard; [runtime] picks the per-shard VM (default
    [`Pc]). Outputs are bitwise identical to the unsharded run. *)

val run_single :
  ?max_steps:int -> compiled -> member:int -> args:Tensor.t list -> Tensor.t list
(** The single-example reference interpreter (no batch dimension on
    [args]); [member] selects the RNG stream. *)

val run_unbatched :
  ?engine:Engine.t -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Execute each batch member separately through the reference
    interpreter, charging each primitive as an eagerly dispatched kernel —
    the paper's unbatched-Eager baseline. *)
