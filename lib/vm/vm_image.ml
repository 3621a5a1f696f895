(* Plain-data checkpoint types for the batched VMs. Pc_vm checkpoints
   into these shapes; the binary encoding lives entirely in lib/resil,
   keeping the dependency direction runtime <- resilience. *)

type pc = {
  pc_cap : int;
  pc_data : int array;  (* cap * z, depth-major, full array *)
  pc_sp : int array;
  pc_top : int array;
}

type storage =
  | Reg of Shape.t * float array  (* batched shape (leading z) + data *)
  | Msk of Shape.t * float array
  | Stk of Stacked.image

type store = (string * storage) list
