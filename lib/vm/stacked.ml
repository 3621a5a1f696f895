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

let elem t = t.elem
let row t = t.row
let top t = t.top

let write_top t ~active ~n value =
  Vm_util.blit_active_rows ~active ~n ~src:value ~dst:t.top

let write_top_indexed t ~idx value =
  Tensor.blit_rows_indexed ~idx ~src:value ~dst:t.top

let grow t =
  let cap' = t.cap * 2 in
  let data' = Array.make (cap' * t.z * t.row) 0. in
  Array.blit t.data 0 data' 0 (t.cap * t.z * t.row);
  t.cap <- cap';
  t.data <- data'

let slot t d b = ((d * t.z) + b) * t.row

(* Growing on the first lane that needs it, rather than after a pass
   for the deepest, ends at the same capacity: doubling until the
   deepest lane fits. *)
let push t ~active ~n =
  let top = Tensor.data t.top and row = t.row in
  for j = 0 to n - 1 do
    let b = active.(j) in
    let sp = t.sp.(b) in
    while sp >= t.cap do
      grow t
    done;
    if row = 1 then t.data.((sp * t.z) + b) <- top.(b)
    else Array.blit top (b * row) t.data (slot t sp b) row;
    t.sp.(b) <- sp + 1;
    if sp >= t.high then t.high <- sp + 1
  done

let pop t ~active ~n =
  let top = Tensor.data t.top and row = t.row in
  for j = 0 to n - 1 do
    let b = active.(j) in
    let sp = t.sp.(b) - 1 in
    if sp < 0 then invalid_arg (Printf.sprintf "Stacked.pop: underflow for member %d" b);
    t.sp.(b) <- sp;
    if row = 1 then top.(b) <- t.data.((sp * t.z) + b)
    else Array.blit t.data (slot t sp b) top (b * row) row
  done

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
  let sp = t.sp.(b) and row = t.row and top = Tensor.data t.top in
  let frames = Array.create_float (sp * row) in
  (* A row of one element is an assignment, not an [Array.blit] call:
     the pc stack's rows and most scalar variables' are one element. *)
  for d = 0 to sp - 1 do
    if row = 1 then frames.(d) <- t.data.((d * t.z) + b)
    else Array.blit t.data (slot t d b) frames (d * row) row
  done;
  {
    l_elem = t.elem;
    l_sp = sp;
    l_frames = frames;
    l_top = (if row = 1 then [| top.(b) |] else Array.sub top (b * row) row);
  }

let restore_lane t b lane =
  if b < 0 || b >= t.z then invalid_arg "Stacked.restore_lane: lane out of range";
  if not (lane.l_elem == t.elem || Shape.equal lane.l_elem t.elem) then
    invalid_arg "Stacked.restore_lane: element shape mismatch";
  while lane.l_sp > t.cap do
    grow t
  done;
  t.sp.(b) <- lane.l_sp;
  let row = t.row and top = Tensor.data t.top in
  for d = 0 to lane.l_sp - 1 do
    if row = 1 then t.data.((d * t.z) + b) <- lane.l_frames.(d)
    else Array.blit lane.l_frames (d * row) t.data (slot t d b) row
  done;
  if row = 1 then top.(b) <- lane.l_top.(0)
  else Array.blit lane.l_top 0 top (b * row) row
