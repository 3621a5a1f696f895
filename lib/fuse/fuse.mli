(** Superblock fusion: profile-guided megablocks that cut supersteps.

    The program-counter batching machine schedules ONE basic block per
    superstep, and every superstep costs a kernel dispatch (or, in fused
    mode, a fused-launch overhead) before any math runs. Control-intensive
    programs lowered by {!Lower_cfg} are made of many tiny blocks, so the
    dispatch overhead dominates. This subsystem rewrites the program —
    preserving bitwise per-lane semantics — so fewer, larger "megablocks"
    carry the same work:

    - {!apply_cfg} runs the CFG-level passes ({!Fuse_cfg}): jump
      threading, single-predecessor chain fusion, if-conversion of
      straight-line diamonds/triangles, and loop-latch rotation;
    - {!apply_stack} runs the stack-level pass ({!Fuse_stack}): call-site
      entry duplication, which fuses a call with the callee's first block
      (introducing the {!Stack_ir.Spushbranch} terminator).

    Fusion slots into the compile pipeline as

    {v Lower_cfg -> Optimize.run -> apply_cfg -> Optimize.run
       -> Shape_infer -> Lower_stack -> apply_stack v}

    — the second {!Optimize.run} is what makes megablocks more than
    concatenation: fold/CSE/copy-propagation/DCE now work across the old
    block boundaries. With [options.profile] set (see {!Fuse_profile})
    the duplicating rewrites are steered to the functions the profile
    actually saw — profile-guided fusion. *)

type options = {
  inline_entries : bool;  (** duplicate callee entries into call sites *)
  speculate_rng : bool;
      (** allow RNG primitives inside if-converted arms; off by default so
          RNG ops are never reordered relative to each other *)
  profile : Fuse_profile.t option;
}
(** The CFG passes always all run, with the fixed limits documented in
    {!Fuse_cfg} and {!Fuse_stack}; these are the only choices a caller
    makes. *)

val default_options : options
(** Entry duplication on, [speculate_rng = false], no profile. *)

type report = {
  cfg_blocks_before : int;
  cfg_blocks_after : int;
  cfg_ops_before : int;
  cfg_ops_after : int;
  stack_blocks_before : int;
  stack_blocks_after : int;
  stack_ops_before : int;
  stack_ops_after : int;
  cfg_stats : Fuse_cfg.stats;
  stack_stats : Fuse_stack.stats;
  megablocks : (string * int list array) list;
      (** per function: for each fused block, the source blocks it absorbed *)
  kernel_sizes : int array;  (** ops per block of the final stack program *)
  func_ops : (string * int) list;  (** fused CFG op count per function *)
  block_ops : (string * int array) list;  (** …and per block *)
}

type staged
(** CFG-stage measurements carried to the stack stage. *)

val apply_cfg :
  ?options:options -> Prim.registry -> Cfg.program -> Cfg.program * staged

val apply_stack : staged -> Stack_ir.program -> Stack_ir.program * report

val megablock_count : report -> int
(** Fused blocks that absorbed more than one source block. *)

val to_json : report -> Obs_json.t
(** An {!Obs_report} document named ["fuse"]. *)

val print : report -> unit
