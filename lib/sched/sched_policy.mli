(** Basic-block scheduling policies — the paper's "second free choice".

    Any non-starving choice of which runnable block to execute next is
    correct: a batch member's trajectory depends only on its member
    identity, its inputs and the program (the RNG keys every draw on
    [(seed, member, counter, slot)]), never on when its block was
    scheduled relative to other members'. The policies here therefore
    only move *cost*, not results — every runtime is bitwise identical to
    the [Earliest] baseline under every policy (the `bench sched` gate).

    The three legacy heuristics ({!legacy}) are the seed's original
    [Vm.Sched] set, compared in the scheduling ablation (DESIGN.md A2).
    The two table-driven policies consult a precomputed {!tables} — an
    expected per-block execution cost and a critical-path distance to
    halt ({!Sched_cost} builds both) — and degrade gracefully to the
    legacy behaviour when no tables are supplied. *)

type t =
  | Earliest      (** lowest-numbered runnable block (Algorithms 1 and 2) *)
  | Most_active   (** most waiting lanes; greedy utilization *)
  | Round_robin   (** cycle through blocks for fairness *)
  | Cost_lookahead
      (** maximize expected useful work per launch:
          [counts.(i) * cost.(i)], so a block about to do a lot of
          arithmetic for many lanes beats a cheap block with slightly
          more lanes. Without tables this is exactly [Most_active]. *)
  | Critical_path
      (** run the runnable block with the longest remaining
          cost-weighted path to halt, so stragglers on the long road
          retire early and lanes free up for refill. Without tables this
          is exactly [Earliest]. *)

(** Precomputed per-block guidance for the table-driven policies. Both
    arrays are indexed by merged-program block id and must cover every
    block ([Invalid_argument] otherwise). *)
type tables = {
  cost : float array;
      (** expected execution cost of one launch of the block (flops plus
          launch overhead, optionally profile-weighted) *)
  depth : float array;
      (** critical-path distance from the block to halt over forward
          control-flow edges, in the same cost units *)
}

val legacy : t list
(** The seed's three heuristics, in their historical order. *)

val all : t list
(** Every policy, legacy first. *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} (also accepts ["cost"] and ["critical"]). *)

val needs_tables : t -> bool
(** Whether {!pick} consults {!tables} for this policy — lets a runtime
    skip building cost tables for the legacy heuristics. *)

val pick : ?tables:tables -> t -> last:int -> counts:int array -> int option
(** Choose a block index with [counts.(i) > 0], or [None] if all zero.
    [last] is the previously chosen block (for [Round_robin]; pass [-1]
    initially). All ties break toward the lowest block index, so every
    policy is a deterministic function of its inputs. *)
