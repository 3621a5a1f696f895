type t = int array

let scalar = [||]

let numel s = Array.fold_left ( * ) 1 s

let rank = Array.length

let equal a b = a = b

let validate s =
  Array.iteri
    (fun i d ->
      if d < 0 then
        invalid_arg
          (Printf.sprintf "Shape.validate: negative dimension %d at axis %d" d i))
    s

let strides s =
  let n = Array.length s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

let ravel s idx =
  let n = Array.length s in
  if Array.length idx <> n then
    invalid_arg "Shape.ravel: rank mismatch";
  let off = ref 0 in
  for i = 0 to n - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then
      invalid_arg
        (Printf.sprintf "Shape.ravel: index %d out of bounds for axis %d (size %d)"
           idx.(i) i s.(i));
    off := (!off * s.(i)) + idx.(i)
  done;
  !off

let unravel s off =
  let n = Array.length s in
  let idx = Array.make n 0 in
  let rem = ref off in
  for i = n - 1 downto 0 do
    idx.(i) <- !rem mod s.(i);
    rem := !rem / s.(i)
  done;
  idx

let broadcast2 a b =
  let ra = Array.length a and rb = Array.length b in
  let r = max ra rb in
  let out = Array.make r 0 in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    (* A size-1 axis takes the other's size, 0 included. *)
    if da = 1 then out.(i) <- db
    else if db = 1 || da = db then out.(i) <- da
    else
      invalid_arg
        (Printf.sprintf "Shape.broadcast2: incompatible shapes %s and %s"
           (Printf.sprintf "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int a))))
           (Printf.sprintf "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int b)))))
  done;
  out

let remove_axis s axis =
  let n = Array.length s in
  if axis < 0 || axis >= n then invalid_arg "Shape.remove_axis: bad axis";
  Array.init (n - 1) (fun i -> if i < axis then s.(i) else s.(i + 1))

let concat_outer n s =
  if n < 0 then invalid_arg "Shape.concat_outer: negative size";
  Array.append [| n |] s

let drop_outer s =
  if Array.length s = 0 then invalid_arg "Shape.drop_outer: scalar shape";
  Array.sub s 1 (Array.length s - 1)

let to_string s =
  Printf.sprintf "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int s)))
