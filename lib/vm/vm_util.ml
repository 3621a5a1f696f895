(* Shared helpers for the two autobatching runtimes. *)

let bytes_per_elem = 8.

let tensors_bytes ts =
  List.fold_left (fun acc x -> acc +. (bytes_per_elem *. float_of_int (Tensor.numel x))) 0. ts

let batch_size ~who batch =
  match batch with
  | [] -> invalid_arg (who ^ ": at least one input required")
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg (who ^ ": inputs must carry a leading batch dimension");
    let z = (Tensor.shape first).(0) in
    if z = 0 then invalid_arg (who ^ ": empty batch");
    List.iter
      (fun t ->
        if Tensor.rank t = 0 || (Tensor.shape t).(0) <> z then
          invalid_arg (who ^ ": inputs disagree on the batch dimension"))
      batch;
    z

let indices_of_mask mask =
  let n = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 mask in
  let out = Array.make n 0 in
  let j = ref 0 in
  Array.iteri
    (fun i m ->
      if m then begin
        out.(!j) <- i;
        incr j
      end)
    mask;
  out

let count_mask mask = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 mask

let blit_active_rows ~active ~n ~src ~dst =
  let s = Tensor.data src and d = Tensor.data dst and z = Tensor.nrows dst in
  let row = Array.length d / z in
  if n = z then Array.blit s 0 d 0 (Array.length d)
  else if row = 1 then
    for j = 0 to n - 1 do
      let b = active.(j) in
      d.(b) <- s.(b)
    done
  else
    for j = 0 to n - 1 do
      let o = active.(j) * row in
      Array.blit s o d o row
    done

(* A masked write in a static-shape (XLA-style) system is a select: read
   old and new, write result. *)
let masked_write_bytes ~lanes ~row = 3. *. bytes_per_elem *. float_of_int (lanes * row)

(* A stack push/pop moves one row per lane between the stack body and the
   cached top (scatter resp. gather), reading and writing each element. *)
let stack_move_bytes ~lanes ~row = 2. *. bytes_per_elem *. float_of_int (lanes * row)

let elem_shape_of_batched t = Shape.drop_outer (Tensor.shape t)
