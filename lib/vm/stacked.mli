(** Per-variable batched stacks with a cached top (optimization O4).

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

val z : t -> int
val elem : t -> Shape.t
val row : t -> int
(** Elements per member per stack level. *)

val top : t -> Tensor.t
(** The cached top, shape [z :: elem]. Shared buffer — do not mutate. *)

val write_top_masked : t -> mask:bool array -> Tensor.t -> unit
(** Replace the top value of the masked members ([value] is full-width). *)

val push : t -> mask:bool array -> unit
(** Duplicate the masked members' tops (save a frame). *)

val pop : t -> mask:bool array -> unit
(** Drop the masked members' tops, restoring the saved frame. Raises
    [Invalid_argument] on underflow — an unbalanced program. *)

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
    bitwise. The lane-migration seam ({!Pc_vm.Lanes.export_lane}) is
    built on this. *)
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

(** Plain-data checkpoint of a stack: only the live frames (member [b]'s
    saved rows below [sp b], member-major) plus the cached top. Transparent
    so a serialization layer ([lib/resil]) can encode it without reaching
    into the stack's internals. *)
type image = {
  i_z : int;
  i_elem : Shape.t;
  i_sp : int array;
  i_frames : float array;  (** live saved frames, member-major *)
  i_top : float array;     (** the cached top, [z × row] *)
}

val capture : t -> image

val restore : t -> image -> unit
(** Overwrite [t]'s stacks and top with the image; capacity grows as
    needed. Every future push/pop/read sequence is then bitwise identical
    to one started from the captured stack. Raises [Invalid_argument] if
    [z] or the element shape disagree. *)
