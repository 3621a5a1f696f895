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
  stack : Stack_ir.program;  (** carries the inferred element shapes *)
  fuse : Fuse.report option;  (** fusion report, when compiled with [fuse] *)
  pool_template : Pc_vm.Lanes.template Lazy.t;
      (** [stack]'s lane-pool template, built on first use; read it with
          {!template}. It names primitives rather than holding them, so a
          copy of the record with another [registry] may share it. *)
}

val compile :
  ?registry:Prim.registry ->
  ?options:Lower_stack.options ->
  ?optimize:bool ->
  ?fuse:Fuse.options ->
  input_shapes:Shape.t list ->
  Lang.program ->
  compiled
(** Validate and lower a program. [registry] defaults to
    {!Prim.standard}[ ()]. [input_shapes] are the element shapes of the
    entry function's parameters: static shape inference ({!Shape_infer})
    runs from them, and the program-counter VM allocates all storage once,
    when a lane pool is created, as on a static-shape accelerator.
    [optimize] (default false) runs the {!Optimize} passes — constant
    folding, copy propagation, dead-code elimination — on the CFG before
    stack lowering; results stay bitwise identical.
    [fuse] additionally runs the superblock fusion passes ({!Fuse}) at
    both the CFG and stack levels — fewer supersteps and kernel
    dispatches, still bitwise identical — and implies [optimize] (the
    pipeline re-optimizes across the fused block boundaries).
    Raises [Invalid_argument] with the validation errors on a malformed
    program, and {!Shape_infer.Error} when the shapes do not check. *)

val template : compiled -> Pc_vm.Lanes.template
(** The program's {!Pc_vm.Lanes.template}, built on the first call and
    kept with the compiled program: {!run_pc} and every lane pool a
    server binds for this program reuse it. *)

val run_local :
  ?config:Local_vm.config -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Local static autobatching (Algorithm 1) over a batch; every input
    carries a leading batch dimension. *)

val run_pc : ?config:Pc_vm.config -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Program-counter autobatching (Algorithm 2) over a batch, on a pool
    bound from {!template}[ c] with [c.registry]. *)

val run_sharded :
  ?config:Sched_vm.config -> compiled -> batch:Tensor.t list -> Sched_vm.result
(** Run the batch across a device mesh with {!Sched_vm}: with
    [config.plan = Sched_plan.off], the static SPMD partition (one
    contiguous slice of the batch per device); with a refilling plan,
    lane pools that recycle and migrate members. Outputs are bitwise
    identical to the unsharded run. *)

val run_single :
  ?max_steps:int -> compiled -> member:int -> args:Tensor.t list -> Tensor.t list
(** The single-example reference interpreter (no batch dimension on
    [args]); [member] selects the RNG stream. *)

val run_unbatched :
  ?engine:Engine.t -> compiled -> batch:Tensor.t list -> Tensor.t list
(** Execute each batch member separately through the reference
    interpreter, charging each primitive as an eagerly dispatched kernel —
    the paper's unbatched-Eager baseline. *)
