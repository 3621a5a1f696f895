(** The pure lane defragmentation / work-stealing planner.

    A planner round looks at every shard's lane occupancy plus the count
    of members still waiting to start, and decides (a) which free lanes
    to refill with pending members and (b) which live members to migrate
    from loaded shards onto shards with idle lanes. The plan is pure
    data — the runtime ({!Sched_vm} in [lib/vm]) applies it, charging
    refill and transfer costs through the engine — so planning decisions
    are unit-testable and every migration schedule is a deterministic
    function of the observable lane state.

    Migration is *legal* because members are position-independent: the
    RNG keys every draw on the member identity carried in the lane (not
    the lane index), and per-lane state is exactly one row of every
    variable plus one pc-stack column, so moving it wholesale preserves
    the member's trajectory bitwise (DESIGN.md S20). *)

type config = {
  refill : bool;  (** fill free lanes with pending members *)
  steal : bool;   (** migrate live members toward idle shards *)
  compact : bool;
      (** defragment within each shard: slide live members from the
          highest occupied lanes into the lowest free ones *)
  steal_margin : int;
      (** minimum live-lane imbalance (donor minus recipient) before a
          steal pays; at least 2, or a move cannot strictly improve
          balance *)
  max_moves : int;  (** cross-shard steal cap per planning round *)
}

val default : config
(** Refill, stealing (margin 2, one steal per round) and compaction all
    on. *)

val aggressive : config
(** {!default} with an effectively unbounded steal budget — the
    configuration the migration-determinism fuzzer leans on. *)

val no_migration : config
(** Refill only: lanes recycle but no member ever moves. The baseline
    arm of the migration differentials. *)

val off : config
(** No refills, no steals, no compaction: the planner returns empty
    plans. As a {!Sched_vm} plan it selects the static SPMD partition:
    every member is loaded up front into its device's slice of
    {!partition}, and lanes never recycle. *)

type partition = { offset : int; length : int }

val partition : z:int -> shards:int -> partition array
(** Contiguous, front-loaded split of [0..z-1] into [min shards z]
    non-empty parts: remainder members go to the leading shards. Raises
    [Invalid_argument] when [z <= 0] or [shards <= 0]. *)

(** One shard's lane occupancy, as ascending lane indices. A lane is in
    neither list when it is finished-but-unretired; retire it before
    planning. *)
type view = { free : int list; live : int list }

type refill = { r_shard : int; r_lane : int }
(** Load the next pending member (queue order) into this free lane. *)

type move = {
  m_src_shard : int;
  m_src_lane : int;
  m_dst_shard : int;
  m_dst_lane : int;
}
(** Migrate the live member in the source lane into the free
    destination lane. *)

type plan = { refills : refill list; moves : move list }

val plan : config -> pending:int -> views:view array -> plan
(** Deterministic: refills fill free lanes in (shard, lane) order until
    the pending queue is exhausted; steals then repeatedly move one
    member from the most-loaded shard (highest live count, ties to the
    lowest shard id) to the least-loaded shard with a free lane, taking
    the donor's highest live lane and the recipient's lowest free lane,
    while the imbalance is at least [steal_margin]; compaction finally
    slides each shard's remaining live members into its lowest free
    lanes. The plan is valid applied in order — refills first, then
    moves in list order: each refill targets a lane free at that point,
    and each move reads a live source and lands in a free destination
    at that point. A lane may be targeted more than once across the
    round (a refilled lane can be stolen away and refilled again by
    compaction), so apply sequentially, never as a parallel
    scatter. *)

val choose_lanes : free:bool array -> width:int -> int array option
(** The serving layer's admission choice, shared so there is exactly one
    lane-selection code path: the [width] lowest-indexed free lanes, or
    [None] if fewer are free. *)
