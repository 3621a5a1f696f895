(** Shared string-keyed containers for the IR passes, and the step-limit
    exception every runtime raises. *)

module Sset : Set.S with type elt = string
module Smap : Map.S with type key = string

val sset_of_list : string list -> Sset.t

exception Step_limit_exceeded
(** Raised by every runtime ({!Interp}, {!Interp_cfg}, [Local_vm],
    [Pc_vm]) once a run exceeds its [max_steps] bound. *)
