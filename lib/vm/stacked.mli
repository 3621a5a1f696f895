(** Batched stacks with a cached top (optimization O4): one per stacked
    variable, plus {!Pc_vm}'s program-counter stack, whose elements are
    scalars (block indices stored as floats).

    The logical stack of batch member [b] is
    [data[0..sp(b)-1, b] ++ [top(b)]]: the cached top holds the current
    value, the body holds the saved frames beneath it. Reads therefore
    never gather; [push] scatters the top into the body (a caller save)
    and [pop] gathers the saved row back (a restore). Capacity grows by
    doubling — the paper's static depth limit D is only needed on
    genuinely static-shape hardware. *)

type t

val create : z:int -> elem:Shape.t -> ?initial_depth:int -> unit -> t
(** All tops start at zero, all stacks empty. *)

val elem : t -> Shape.t
val row : t -> int
(** Elements per member per stack level. *)

val top : t -> Tensor.t
(** The cached top, shape [z :: elem]. Shared buffer — do not mutate. *)

val write_top_indexed : t -> idx:int array -> Tensor.t -> unit
(** Replace the top value of members [idx]: row [i] of [value] goes to
    member [idx.(i)]. *)

(** {2 Active-list updates}

    [write_top], [push] and [pop] act on the members [active.(0)] ..
    [active.(n-1)], listed in ascending order, and cost in proportion to
    [n] rather than to [z]. *)

val write_top : t -> active:int array -> n:int -> Tensor.t -> unit
(** Replace the listed members' tops with their rows of [value], which
    is full-width. *)

val push : t -> active:int array -> n:int -> unit
(** Duplicate the listed members' tops (save a frame). *)

val pop : t -> active:int array -> n:int -> unit
(** Drop the listed members' tops, restoring the saved frame. Raises
    [Invalid_argument] on underflow — an unbalanced program — at the
    first listed member with no saved frame; members listed before it
    have already popped. *)

val depth : t -> int -> int
(** Number of saved frames below the top for one member. *)

val reset : t -> unit
(** Drop all saved frames and zero the tops (reuse between runs). *)

val reset_lane : t -> int -> unit
(** Drop one member's saved frames and zero its top row, leaving every
    other member untouched — the state a fresh run would give that lane.
    Used when a serving runtime recycles a lane for a new request. *)

val high_water : t -> int
(** The largest {!depth} a {!push} has left any member at since {!create}
    or {!reset} (restores do not count); O(1). *)

val capacity : t -> int

(** One member's complete stack column — the saved frames below its
    stack pointer (bottom first) plus its cached top row. This is all a
    member's future pops can observe, so moving a lane between batch
    slots (or pools) through capture/restore preserves its execution
    bitwise. The lane seam ({!Pc_vm.Lanes.export_lane}), and with it
    every pool checkpoint, is built on this: a lane's pc column and its
    stacked variables' columns are all of this type. *)
type lane = {
  l_elem : Shape.t;
  l_sp : int;
  l_frames : float array;  (** depths [0..sp-1], bottom first *)
  l_top : float array;     (** the cached top row *)
}

val capture_lane : t -> int -> lane

val restore_lane : t -> int -> lane -> unit
(** Overwrite one member's column with a captured lane; capacity grows as
    needed, other members are untouched. Raises [Invalid_argument] if the
    lane index is out of range or the element shape disagrees. *)
