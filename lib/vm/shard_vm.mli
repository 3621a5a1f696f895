(** Multi-device sharded execution: split the batch dimension across a
    {!Mesh} of simulated devices, one shard per device, each shard run by
    an ordinary single-device VM ({!Pc_vm} or {!Local_vm}) on its own
    OCaml 5 domain — so the batch runs genuinely in parallel on the host
    while the cost model prices it as SPMD execution on the mesh.

    Semantics are exactly the unsharded run's: each shard executes with
    {!Pc_vm.config.member_base} set to its batch offset, so every member
    draws the same RNG streams it would draw in the single-device run, and
    batch members are data-independent under masking execution — sharded
    outputs are bitwise identical to single-device outputs.

    Simulated time mirrors real SPMD execution: the devices proceed in
    lockstep supersteps (one VM scheduling step each), agreeing on
    termination through a per-superstep all-reduced convergence flag, and
    the run ends with an all-gather of the outputs. Hence

    {v
    sim_time = max over shards of shard compute time
             + supersteps × all_reduce(flag)
             + all_gather(outputs)
    v}

    where supersteps is the longest shard's scheduling-step count. *)

type partition = { offset : int; length : int }

val partition : z:int -> shards:int -> partition array
(** Contiguous, front-loaded split of [0..z-1] into [min shards z]
    non-empty parts: remainder members go to the leading shards. Raises
    [Invalid_argument] when [z <= 0] or [shards <= 0]. *)

type config = {
  mesh : Mesh.t;
  mode : Engine.mode option;
      (** price each shard on its mesh device in this mode; [None] runs
          without cost accounting (wall-clock benchmarking) *)
  collective : Collectives.algorithm;
  sched : Sched_policy.t;
  max_steps : int;
  sink : Obs_sink.t option;
      (** Observability seam threaded into each shard's VM: [Step] events
          arrive re-tagged with their shard index ({!Obs_sink.tag_shard}),
          and the mesh's collective phases are reported as [Collective]
          spans after the shards join. Shards run on separate domains, so
          the sink fires concurrently — it must be domain-safe (an
          [Obs.Trace.sink] is; it locks). Raising from a [Step] aborts
          that shard's superstep, the fault-injection seam. Default
          [None]. *)
}

val default_config : config
(** Single-device GPU mesh, no engine, ring collectives, earliest-block. *)

type result = {
  outputs : Tensor.t list;       (** reassembled full-batch outputs *)
  counters : Engine.Counters.t;  (** summed over shards *)
  shard_times : float array;     (** per-shard simulated seconds *)
  compute_time : float;          (** max over shards *)
  collective_time : float;       (** sync flags + final output gather *)
  sim_time : float;              (** compute + collective *)
  supersteps : int;              (** longest shard's scheduling steps *)
}

val run :
  ?config:config ->
  Prim.registry ->
  [ `Pc of Stack_ir.program | `Local of Cfg.program ] ->
  batch:Tensor.t list ->
  result
(** Shard [batch] across [config.mesh], run every shard on its own domain,
    and merge. With an [n = 1] mesh this degenerates to the single-device
    run (zero collective cost). *)
