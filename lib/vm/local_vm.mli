(** Local static autobatching — the paper's Algorithm 1.

    Executes a CFG program on a whole batch at once, maintaining an active
    set and one program counter per batch member. At each step the
    scheduler picks a basic block with at least one active member, runs it
    in batch, and updates only the locally active members' state and
    program counters. [Call] operations recurse through the host (OCaml)
    call stack, exactly as the paper's system recurses through Python —
    which is why this strategy cannot batch across recursion depths and
    must charge host call overhead to the engine.

    Two primitive-execution styles implement the paper's "first free
    choice": [Masking] computes every batch lane and discards inactive
    results (cheap bookkeeping, wasted arithmetic, junk-lane hazards);
    [Gather_scatter] compacts active lanes before computing (no waste,
    but gather/scatter traffic and dynamic intermediate shapes). *)

type exec_style =
  | Masking
  | Gather_scatter
  | Adaptive of float
      (** switch per block: gather/scatter when the active fraction is
          below the threshold, masking otherwise — spend gather traffic
          only when it saves real arithmetic *)

type config = {
  style : exec_style;
  sched : Sched_policy.t;
  engine : Engine.t option;        (** simulated-cost accounting *)
  max_steps : int;                 (** bound on VM scheduling steps *)
  sink : Obs_sink.t option;
      (** Observability seam: one [Obs_sink.Step] and one
          [Obs_sink.Occupancy] per scheduled block, before it runs. Block
          ids are program-unique ({!Cfg.block_base} plus the
          function-local index); [width] is the lanes the block's
          operations are issued over ([total] when masking, [active] when
          gathering), [depth] the host-recursion frame depth. The
          runtime's only utilization report. A sink that raises aborts
          the step. Default [None]. *)
}

val default_config : config
(** Masking, earliest-block, no engine, no sink, 10^8 steps. *)

val run :
  ?config:config ->
  Prim.registry ->
  Cfg.program ->
  batch:Tensor.t list ->
  Tensor.t list
(** [run reg p ~batch] executes the entry function on inputs that all
    carry a leading batch dimension of a common size [z]; the results do
    too. All members are initially active. *)

val run_active :
  ?config:config ->
  Prim.registry ->
  Cfg.program ->
  batch:Tensor.t list ->
  active:bool array ->
  Tensor.t list
(** As {!run} but with an explicit initial active set; inactive members'
    output rows are unspecified. *)
