(** Program-counter autobatching — the paper's Algorithm 2.

    Executes the merged stack-machine program ({!Stack_ir}) on a whole
    batch with no host recursion at all: every batch member's call stack
    lives in per-variable data stacks and a program-counter stack, all of
    them {!Stacked} stacks (the pc stack's elements are scalars: block
    indices stored as floats, exact below 2^53, over a bottom halt
    sentinel). The locally active set is recomputed every step from the pc
    tops, so members at *different stack depths* batch together — the
    property that lets NUTS chains synchronize on gradient evaluations
    rather than trajectory boundaries (Figure 6), and the whole runtime
    be a single non-recursive loop compilable to an XLA-style device
    program (Figure 5).

    Pricing is masking-style: the engine charges every block as if all
    lanes were computed and the inactive results discarded, matching the
    paper's static-shape target platforms, and the [Occupancy] event
    reports that full [width]. Host execution may differ per primitive
    op. On a superstep that masks lanes off, an op whose flops per row
    are at least 16 times the elements it moves per row (arguments plus
    result) gathers the active rows ({!Tensor.take_rows}), calls
    [batched] with [members] set to those lanes' member ids, and
    scatters the result into the active rows of its storage; every other
    op, and every superstep with all lanes active, computes the full
    width. Each op decides once, when its block is resolved, from shapes
    that cannot change afterwards.
    Row-separable primitives ({!Prim.t}) make the two styles bitwise
    equal on every row a lane can read, so the choice changes host work
    and nothing else: outputs, the simulated clock and every sink event
    are the same either way. The VM's own lane loops (masked and
    stacked-top writes, variable and pc stack pushes and pops, pc moves)
    walk the superstep's active lanes, so their host cost follows the
    active count, not the width; a superstep with every lane active
    copies whole tensors with one blit.

    Shapes are static, as on the paper's target accelerators: storage is
    allocated once per lane pool, in {!Lanes.bind}, from the element
    shapes {!Shape_infer} gave every variable, and nothing allocates
    storage after it. A variable with no inferred shape (possible only in
    dead or never-returning code) has no storage; touching one raises
    [Invalid_argument "Pc_vm: variable v has no inferred shape"].

    The interpretive work is split between the program and the pool. A
    {!Lanes.template}, built once per program, sorts the variables into
    storage slots, fixes each slot's class and element shape, and resolves
    every block's operands to slot indices (primitives stay names). A
    pool bound from it ({!Lanes.bind}) only allocates its storage, looks
    each primitive up in the registry it is given, takes each op's gather
    decision, fixes its argument tensors to the pool's storage and
    broadcasts its constants to the pool's width. Each block's engine
    charge (op flops, control actions, traffic) is priced into an
    {!Engine.priced} handle on its first execution and reused. A
    superstep then does no name lookups and no pricing. *)

type config = {
  sched : Sched_policy.t;
  engine : Engine.t option;
  max_steps : int;
  top_cache : bool;
      (** O4. The implementation always keeps the cache (reads are host
          arrays either way); disabling charges the simulated cost of
          re-gathering stacked reads, for the optimization ablation. *)
  naive_stack_writes : bool;
      (** O5 ablation: price every write to a stacked variable as the
          uncancelled pop+push pair instead of an in-place update. *)
  member_base : int;
      (** Global index of lane 0: lane [i] of {!run} draws the RNG
          streams of batch member [member_base + i], so a slice of a
          batch run alone reproduces its rows. Default 0. *)
  sink : Obs_sink.t option;
      (** Structured observability seam: once per executed superstep,
          before the scheduled block runs, the VM emits
          [Obs_sink.Step {shard = 0; step; block}] with the post-increment
          step count and the scheduled block's index. Shared by tracing
          (record the superstep timeline) and the resilience layer
          (superstep-granular fault injection and checkpoint triggers):
          a sink that raises aborts the step with no block effects
          applied. Right after [Step] comes the superstep's
          [Obs_sink.Occupancy] (issued [width = total], and [depth] the
          deepest any pc or variable stack of this pool has been pushed
          to since {!Lanes.bind} or the last {!Lanes.restore}) — the
          runtime's only utilization report: lane, primitive
          and push/pop counts are all derived from it ({!Obs_prof}).
          Default [None]; the off path is one match per step. *)
}

val default_config : config

(** The steppable lane pool behind {!run} and every serving and
    migration client ([Tenant_server], [Sched_vm], the recovery
    drivers).

    A lane is one batch slot. Lanes are individually [load]ed with a
    request's inputs and RNG member identity, advance together one
    scheduled basic block per {!Lanes.step} (priced masking-style over
    the whole width), and are individually [retire]d the moment their program
    counter hits halt — the VM-level mechanism that lets a serving layer
    refill early-finishing lanes mid-run instead of padding out the batch
    until its slowest member drains.

    Per-lane isolation is exact: batched primitives are row-wise (each
    output row depends only on the same input row and that row's member
    identity — the contract in HACKING.md), masked writes never touch
    other lanes, and [load] resets the lane's slice of every masked and
    stacked variable to the all-zero fresh-VM state and re-seeds its pc
    column (the halt sentinel below, block 0 on top). Registers
    ([Var_class.Temp]) keep their stale rows: every block writes a
    register before reading it, so no lane reads an inherited register
    row, and only an exported lane state shows them.
    A request served in any lane of any mix of neighbours is therefore
    bitwise identical to running it alone with [member_base] equal to
    its member. *)
module Lanes : sig
  type t

  type template
  (** What every pool of one program shares: the sorted slot table, each
      slot's storage class and element shape, every block's ops over slot
      indices (primitives by name, constants at element shape, branch
      condition slots), and the stored variables ({!lane_var}). It holds
      no primitive implementation and no storage, so one template serves
      pools on any registry and any width. *)

  val template : Stack_ir.program -> template

  val bind : ?config:config -> Prim.registry -> template -> z:int -> t
  (** [z] lanes, all idle, running the template's program: allocates the
      pool's storage, looks each primitive up in [registry] and fixes its
      argument tensors and gather decision, and broadcasts constants.
      [config.member_base] seeds the default member identities; [load]
      overrides them per lane. Pools bound from one template share its
      [lane_var] array, so lane states and images move between them by
      the physical-equality check. *)

  val create : ?config:config -> Prim.registry -> Stack_ir.program -> z:int -> t
  (** [bind] from a fresh {!template}: a pool that shares nothing with
      any other. *)

  val z : t -> int
  val steps : t -> int
  (** Basic blocks executed so far (monotone; bounded by
      [config.max_steps]). *)

  val occupied : t -> lane:int -> bool
  (** The lane carries a request (running or finished-but-unretired). *)

  val live : t -> lane:int -> bool
  (** Occupied and not yet halted. *)

  val finished : t -> lane:int -> bool
  (** Occupied and halted: outputs are ready to {!retire}. *)

  val live_count : t -> int
  val free_count : t -> int

  val finished_lanes : t -> int list
  (** Ascending lane indices ready to retire. *)

  val load : t -> lane:int -> member:int -> inputs:Tensor.t list -> unit
  (** Occupy a free (or finished) lane with a fresh request: inputs are
      *element* tensors (no batch dimension), [member] is the global RNG
      member identity the lane's draws will use. Raises
      [Invalid_argument] if the lane is still live, the input count
      mismatches the program, or an input's shape differs from its
      declared shape. Every input is checked before any is written, so a
      refused load changes nothing. *)

  val step : t -> bool
  (** Execute one scheduled basic block over the live lanes; [false] when
      no lane is runnable (all idle or finished). Raises
      {!Ir_util.Step_limit_exceeded} past [config.max_steps]. *)

  val retire : t -> lane:int -> Tensor.t list
  (** Extract a finished lane's outputs (element tensors, freshly copied)
      and free the lane. Raises [Invalid_argument] unless
      [finished t ~lane]. *)

  val member : t -> lane:int -> int
  (** The lane's global RNG member identity (meaningful while occupied). *)

  (** {2 The lane seam (DESIGN.md S15, S20)}

      A lane's complete execution state — Algorithm 2's column of one
      batch member: member identity, pc column, and one row of every
      stored variable. The pc column is a {!Stacked.lane} like every
      stacked variable's, so the one column format (and the one column
      codec) carries both. Batched primitives are row-wise and the RNG
      keys on the member identity carried here — never on the lane
      index — so a lane state imported into any free lane of any pool
      running the same program continues the member's trajectory
      bitwise-exactly, under any scheduling policy. It is the VM's one
      lane-state format: migrations ({!Sched_vm}), serving preemption and
      drain, and pool checkpoints ({!image}) all move lanes as this
      record. *)

  (** One stored variable as a lane state holds it: its storage class
      decides whether its row lives in [ls_rows] ([Temp], [Masked]) or
      its column in [ls_stacks] ([Stacked]). *)
  type lane_var = { lv_name : string; lv_class : Var_class.t; lv_elem : Shape.t }

  type lane_state = {
    ls_member : int;
    ls_pc : Stacked.lane;
        (** the pc stack's column: scalar block indices as floats, the
            halt sentinel at the bottom while the lane runs *)
    ls_vars : lane_var array;
        (** the source pool's stored variables, sorted by name; every
            lane state a pool exports shares the pool's one array *)
    ls_rows : float array;
        (** the register and masked rows, concatenated in [ls_vars] order *)
    ls_stacks : Stacked.lane array;  (** the stacked columns, in [ls_vars] order *)
  }

  val export_lane : t -> lane:int -> lane_state
  (** Capture an occupied lane (live or finished). Read-only: the lane
      keeps running; pair with {!evict} to move rather than copy. *)

  val evict : t -> lane:int -> unit
  (** Free an occupied lane without reading outputs (the member left via
      {!export_lane}); the pc parks at halt like a fresh idle lane. *)

  val pc_column : t -> lane:int -> Stacked.lane
  (** A copy of any lane's pc column, occupied or not: [[halt]] with top
      [0] right after {!load}, and [[halt]] with top [halt] on a lane that
      {!bind}, {!evict} or {!restore} left idle. Read-only. *)

  val import_lane : t -> lane:int -> lane_state -> unit
  (** Install a captured lane state into a free lane of a pool running
      the same program: the inverse of {!export_lane}, writing the lane's
      row of every stored variable. Raises [Invalid_argument], before
      writing anything, if the lane is occupied, the state's [ls_vars]
      (or its row count) differ from the pool's, or its pc column is not
      scalar block indices: every saved entry and the top an integer in
      [[0, halt]], so NaN and the infinities are refused too. *)

  val lane_state_bytes : lane_state -> float
  (** Payload size of a migration or of one lane of a checkpoint, for
      transfer pricing: 8 bytes per element of every variable row, every
      stacked frame and top, and every pc entry (saved entries plus
      top). *)

  val outputs : t -> Tensor.t list
  (** The full-width output tensors (leading batch dimension), freshly
      copied — what {!val:run} returns after the pool drains. *)

  (** Plain-data checkpoint of a lane pool: the pool-level fields (step
      count, scheduler cursor, every lane's member identity, and the
      stored variables with their storage classes and element shapes,
      sorted by name) plus the {!export_lane} state of each occupied lane
      — idle lanes, their register rows and dead pc-stack entries are not
      stored. Together
      with the engine snapshot this is the VM's complete execution state:
      a pool restored from an image replays bitwise identically to the
      original, and images of equal states are structurally equal. *)
  type image = {
    li_steps : int;
    li_last : int;                       (** scheduler cursor (Round_robin uses it) *)
    li_members : int array;              (** every lane's member identity *)
    li_vars : lane_var array;            (** stored variables; every lane's [ls_vars] *)
    li_lanes : lane_state option array;  (** [Some] exactly for occupied lanes *)
  }

  val capture : t -> image
  (** {!export_lane} over the occupied lanes, plus the pool-level fields. *)

  val restore : t -> image -> unit
  (** Overwrite the pool's state with the image, in place: the existing
      storage is zeroed (every stack, the pc's included, emptied with
      {!Stacked.reset}, which restarts its high-water mark at 0), each
      captured lane is {!import_lane}d, and every other lane is freed
      with its member identity from the image and an idle pc column. No storage is reallocated. Restoring the
      {!capture} a pool gave right after {!create} therefore makes it
      indistinguishable from a fresh pool, event for event: the server
      reuses a shard's pools this way. Raises [Invalid_argument] on lane-count mismatch or
      when the image's [li_vars] differ from the pool's, i.e. [t] does
      not run the program the image was captured from. *)
end

val run_template :
  ?config:config -> Prim.registry -> Lanes.template -> batch:Tensor.t list -> Tensor.t list
(** {!run} on a pool bound from an existing template. *)

val run :
  ?config:config ->
  Prim.registry ->
  Stack_ir.program ->
  batch:Tensor.t list ->
  Tensor.t list
(** [run reg p ~batch] executes the program on inputs carrying a common
    leading batch dimension; results do too. *)
