(** Program-counter autobatching — the paper's Algorithm 2.

    Executes the merged stack-machine program ({!Stack_ir}) on a whole
    batch with no host recursion at all: every batch member's call stack
    lives in per-variable data stacks ({!Stacked}) and a program-counter
    stack. The locally active set is recomputed every step from the pc
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
    width. Each op decides once, on its first execution that finds its
    destination allocated, from shapes that cannot change afterwards.
    Row-separable primitives ({!Prim.t}) make the two styles bitwise
    equal on every row a lane can read, so the choice changes host work
    and nothing else: outputs, the simulated clock and every sink event
    are the same either way.

    The interpretive work is done once per lane pool, in {!Lanes.create}:
    every variable is resolved to a storage slot, every block's operands
    to slot indices, its primitives to their implementations and its
    constants to batch-wide tensors, and each block's engine charge (op
    flops, control actions, traffic) is priced into an {!Engine.priced}
    handle on its first execution and reused. A superstep then does no
    name lookups and no pricing. *)

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
          to) — the runtime's only utilization report: lane, primitive
          and push/pop counts are all derived from it ({!Obs_prof}).
          Default [None]; the off path is one match per step. *)
}

val default_config : config

(** The program-counter stack: the {!Stacked} layout over block indices.
    Exposed for direct testing of the hot growth/underflow paths the VM
    (and each shard of a sharded run) exercises. *)
module Pc_stack : sig
  type t = {
    z : int;
    mutable cap : int;
    mutable data : int array;  (** [cap × z], depth-major *)
    sp : int array;            (** per-member stack pointer *)
    top : int array;           (** cached top element per member *)
    mutable high : int;
        (** the largest [sp] a {!push} has left any member at *)
  }

  val create : z:int -> bottom:int -> start:int -> initial_depth:int -> t
  val push : t -> mask:bool array -> unit
  val pop : t -> mask:bool array -> unit
  (** Raises [Invalid_argument] on underflow of any masked member. *)

  val set_top_masked : t -> mask:bool array -> int -> unit

  val reset_lane : t -> lane:int -> bottom:int -> start:int -> unit
  (** Re-seed one member's pc stack as [create] would: sentinel [bottom]
      below, executing from [start]. Other members are untouched. *)

  (** One member's pc column (saved entries bottom-first plus the cached
      top), for the lane-migration seam. *)
  type lane = { pl_sp : int; pl_stack : int array; pl_top : int }

  val capture_lane : t -> lane:int -> lane

  val restore_lane : t -> lane:int -> lane -> unit
  (** Overwrite one member's pc column; capacity grows as needed, other
      members untouched. *)

  val capture : t -> Vm_image.pc
  (** Full depth-major checkpoint (data, stack pointers, cached tops). *)

  val restore : t -> Vm_image.pc -> unit
  (** Overwrite the stack with a captured image. Raises [Invalid_argument]
      if the member count disagrees or the image is internally
      inconsistent. *)
end

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
    other lanes, and [load] resets the lane's slice of every variable and
    both stacks to the all-zero fresh-VM state. A request served in any
    lane of any mix of neighbours is therefore bitwise identical to
    running it alone with [member_base] equal to its member. *)
module Lanes : sig
  type t

  val create : ?config:config -> Prim.registry -> Stack_ir.program -> z:int -> t
  (** [z] lanes, all idle. [config.member_base] seeds the default member
      identities; [load] overrides them per lane. *)

  val z : t -> int
  val program : t -> Stack_ir.program
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
      mismatches the program, or an input's shape differs from the
      storage it lands in (declared, or fixed by an earlier load). Every
      input is checked before any is written, so a refused load changes
      nothing. *)

  val step : t -> bool
  (** Execute one scheduled basic block over the live lanes; [false] when
      no lane is runnable (all idle or finished). Raises
      {!Ir_util.Step_limit_exceeded} past [config.max_steps]. *)

  val retire : t -> lane:int -> Tensor.t list
  (** Extract a finished lane's outputs (element tensors, freshly copied)
      and free the lane. Raises [Invalid_argument] unless
      [finished t ~lane]. *)

  val lane_outputs : t -> lane:int -> Tensor.t list
  (** Peek one lane's current output rows without freeing the lane. *)

  val member : t -> lane:int -> int
  (** The lane's global RNG member identity (meaningful while occupied). *)

  (** {2 The lane-migration seam (DESIGN.md S20)}

      A lane's complete execution state: member identity, pc column, and
      one row of every allocated variable. Batched primitives are
      row-wise and the RNG keys on the member identity carried here —
      never on the lane index — so a lane state imported into any free
      lane of any pool running the same program continues the member's
      trajectory bitwise-exactly, under any scheduling policy. The
      defragmenting runtime ({!Sched_vm}) and the migration fuzzer are
      the two clients. *)

  type var_lane =
    | Lane_reg of Shape.t * float array  (** element shape, one row *)
    | Lane_msk of Shape.t * float array
    | Lane_stk of Stacked.lane

  type lane_state = {
    ls_member : int;
    ls_pc : Pc_stack.lane;
    ls_vars : (string * var_lane) list;  (** sorted by name *)
  }

  val export_lane : t -> lane:int -> lane_state
  (** Capture an occupied lane (live or finished). Read-only: the lane
      keeps running; pair with {!evict} to move rather than copy. *)

  val evict : t -> lane:int -> unit
  (** Free an occupied lane without reading outputs (the member left via
      {!export_lane}); the pc parks at halt like a fresh idle lane. *)

  val import_lane : t -> lane:int -> lane_state -> unit
  (** Install a captured lane state into a free lane of a pool running
      the same program. The lane's slice of every variable is reset
      first, so variables the source pool never allocated stay implicitly
      zero. Raises [Invalid_argument] if the lane is occupied or the
      state disagrees with the pool's program. *)

  val lane_state_bytes : lane_state -> float
  (** Payload size of a migration, for transfer pricing. *)

  val lane_bytes : t -> lane:int -> float
  (** [lane_state_bytes (export_lane t ~lane)], computed from the pool's
      storage without copying the lane out. Raises [Invalid_argument]
      unless the lane is occupied. *)

  val migrate : t -> src:int -> dst:int -> float
  (** [export_lane src; evict src; import_lane dst] within one pool;
      returns the bytes moved. *)

  val outputs : t -> Tensor.t list
  (** The full-width output tensors (leading batch dimension), freshly
      copied — what {!val:run} returns after the pool drains. *)

  (** Plain-data checkpoint of a lane pool: step count, scheduler cursor,
      lane occupancy and member identities, the pc stack, and every
      allocated variable (sorted by name, so images of equal states are
      structurally equal). Together with the engine snapshot
      this is the VM's complete execution state: a pool restored from an
      image replays bitwise identically to the original. *)
  type image = {
    li_z : int;
    li_steps : int;
    li_last : int;              (** scheduler cursor (Round_robin uses it) *)
    li_members : int array;
    li_occupied : bool array;
    li_pc : Vm_image.pc;
    li_store : Vm_image.store;
  }

  val capture : t -> image

  val restore : t -> image -> unit
  (** Overwrite the pool's state with the image. The store is rebuilt from
      the image alone — variables first allocated after the capture
      disappear, exactly as if execution had never passed the capture
      point. Raises [Invalid_argument] on lane-count mismatch. [t] must
      run the same program the image was captured from. *)
end

val run :
  ?config:config ->
  Prim.registry ->
  Stack_ir.program ->
  batch:Tensor.t list ->
  Tensor.t list
(** [run reg p ~batch] executes the program on inputs carrying a common
    leading batch dimension; results do too. *)
