(** Shared plain-data checkpoint types for the batched VMs.

    {!Pc_vm.Lanes} captures its execution state into these transparent
    shapes; binary serialization lives entirely in the resilience layer
    ([lib/resil]), which depends on the runtimes and not the other way
    round. Store entries are kept sorted by variable name so
    images of equal states are structurally equal ([=]). *)

(** The program-counter stack: the full depth-major data array (block
    indices are small ints, so no live-frame compaction is needed). *)
type pc = {
  pc_cap : int;
  pc_data : int array;  (** [cap × z], depth-major *)
  pc_sp : int array;
  pc_top : int array;
}

(** One variable's batched storage. [Reg]/[Msk] carry the full batched
    tensor (shape with leading [z] plus its data); [Stk] a stack image. *)
type storage =
  | Reg of Shape.t * float array
  | Msk of Shape.t * float array
  | Stk of Stacked.image

type store = (string * storage) list
(** Sorted by variable name. *)
