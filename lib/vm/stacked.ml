type t = {
  z : int;
  elem : Shape.t;
  row : int;
  mutable cap : int;
  mutable data : float array;  (* cap * z * row *)
  sp : int array;
  top : Tensor.t;
  mutable high : int;  (* deepest sp any push has reached *)
}

let create ~z ~elem ?(initial_depth = 4) () =
  if z <= 0 then invalid_arg "Stacked.create: batch size must be positive";
  let row = Shape.numel elem in
  {
    z;
    elem;
    row;
    cap = max 1 initial_depth;
    data = Array.make (max 1 initial_depth * z * row) 0.;
    sp = Array.make z 0;
    top = Tensor.zeros (Shape.concat_outer z elem);
    high = 0;
  }

let z t = t.z
let elem t = t.elem
let row t = t.row
let top t = t.top

let write_top_masked t ~mask value =
  Tensor.blit_rows_masked ~mask ~src:value ~dst:t.top

let grow t =
  let cap' = t.cap * 2 in
  let data' = Array.make (cap' * t.z * t.row) 0. in
  Array.blit t.data 0 data' 0 (t.cap * t.z * t.row);
  t.cap <- cap';
  t.data <- data'

let slot t d b = ((d * t.z) + b) * t.row

let push t ~mask =
  if Array.length mask <> t.z then invalid_arg "Stacked.push: mask length";
  let need = ref 0 in
  Array.iteri (fun b m -> if m && t.sp.(b) >= !need then need := t.sp.(b) + 1) mask;
  while !need > t.cap do
    grow t
  done;
  if !need > t.high then t.high <- !need;
  let top_data = Tensor.data t.top in
  Array.iteri
    (fun b m ->
      if m then begin
        Array.blit top_data (b * t.row) t.data (slot t t.sp.(b) b) t.row;
        t.sp.(b) <- t.sp.(b) + 1
      end)
    mask

let pop t ~mask =
  if Array.length mask <> t.z then invalid_arg "Stacked.pop: mask length";
  let top_data = Tensor.data t.top in
  Array.iteri
    (fun b m ->
      if m then begin
        if t.sp.(b) = 0 then
          invalid_arg (Printf.sprintf "Stacked.pop: underflow for member %d" b);
        t.sp.(b) <- t.sp.(b) - 1;
        Array.blit t.data (slot t t.sp.(b) b) top_data (b * t.row) t.row
      end)
    mask

let depth t b = t.sp.(b)

let reset t =
  t.high <- 0;
  Array.fill t.sp 0 t.z 0;
  Array.fill (Tensor.data t.top) 0 (t.z * t.row) 0.

let reset_lane t b =
  if b < 0 || b >= t.z then invalid_arg "Stacked.reset_lane: lane out of range";
  t.sp.(b) <- 0;
  Array.fill (Tensor.data t.top) (b * t.row) t.row 0.
let high_water t = t.high
let capacity t = t.cap

type lane = {
  l_elem : Shape.t;
  l_sp : int;
  l_frames : float array;  (* depths 0..sp-1, bottom first *)
  l_top : float array;
}

(* One member's complete column: saved frames below sp plus the cached
   top row. Together with the variable's masked-write discipline this is
   everything the member's future pops can observe, so capture/restore of
   a lane moves the member between batch slots bitwise-exactly. *)
let capture_lane t b =
  if b < 0 || b >= t.z then invalid_arg "Stacked.capture_lane: lane out of range";
  let frames = Array.make (t.sp.(b) * t.row) 0. in
  for d = 0 to t.sp.(b) - 1 do
    Array.blit t.data (slot t d b) frames (d * t.row) t.row
  done;
  {
    l_elem = Array.copy t.elem;
    l_sp = t.sp.(b);
    l_frames = frames;
    l_top = Array.sub (Tensor.data t.top) (b * t.row) t.row;
  }

let restore_lane t b lane =
  if b < 0 || b >= t.z then invalid_arg "Stacked.restore_lane: lane out of range";
  if not (Shape.equal lane.l_elem t.elem) then
    invalid_arg "Stacked.restore_lane: element shape mismatch";
  while lane.l_sp > t.cap do
    grow t
  done;
  t.sp.(b) <- lane.l_sp;
  for d = 0 to lane.l_sp - 1 do
    Array.blit lane.l_frames (d * t.row) t.data (slot t d b) t.row
  done;
  Array.blit lane.l_top 0 (Tensor.data t.top) (b * t.row) t.row

type image = {
  i_z : int;
  i_elem : Shape.t;
  i_sp : int array;
  i_frames : float array;
  i_top : float array;
}

(* Only the live frames are captured: member [b]'s saved rows d = 0..sp(b)-1,
   concatenated member-major. Rows above sp are dead (pops never read them),
   so dropping them keeps snapshots compact without losing bitwise fidelity
   of any future execution. *)
let capture t =
  let total = Array.fold_left ( + ) 0 t.sp in
  let frames = Array.make (total * t.row) 0. in
  let k = ref 0 in
  for b = 0 to t.z - 1 do
    for d = 0 to t.sp.(b) - 1 do
      Array.blit t.data (slot t d b) frames (!k * t.row) t.row;
      incr k
    done
  done;
  {
    i_z = t.z;
    i_elem = Array.copy t.elem;
    i_sp = Array.copy t.sp;
    i_frames = frames;
    i_top = Array.sub (Tensor.data t.top) 0 (t.z * t.row);
  }

let restore t img =
  if img.i_z <> t.z then invalid_arg "Stacked.restore: batch size mismatch";
  if not (Shape.equal img.i_elem t.elem) then
    invalid_arg "Stacked.restore: element shape mismatch";
  let need = Array.fold_left max 1 img.i_sp in
  while need > t.cap do
    grow t
  done;
  Array.blit img.i_sp 0 t.sp 0 t.z;
  let k = ref 0 in
  for b = 0 to t.z - 1 do
    for d = 0 to t.sp.(b) - 1 do
      Array.blit img.i_frames (!k * t.row) t.data (slot t d b) t.row;
      incr k
    done
  done;
  Array.blit img.i_top 0 (Tensor.data t.top) 0 (t.z * t.row)
