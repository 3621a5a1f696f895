type t = { shape : Shape.t; data : float array }

(* Construction *)

let create shape data =
  Shape.validate shape;
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.create: shape %s wants %d elements, got %d"
         (Shape.to_string shape) (Shape.numel shape) (Array.length data));
  { shape; data }

let zeros shape = create shape (Array.make (Shape.numel shape) 0.)
let ones shape = create shape (Array.make (Shape.numel shape) 1.)
let full shape v = create shape (Array.make (Shape.numel shape) v)
let scalar v = create Shape.scalar [| v |]
let of_array shape data = create shape (Array.copy data)
let of_list xs = of_array [| List.length xs |] (Array.of_list xs)

let init shape f =
  let n = Shape.numel shape in
  let data = Array.make n 0. in
  for off = 0 to n - 1 do
    data.(off) <- f (Shape.unravel shape off)
  done;
  { shape; data }

let arange n = create [| n |] (Array.init n float_of_int)

let eye n =
  init [| n; n |] (fun idx -> if idx.(0) = idx.(1) then 1. else 0.)

(* Inspection *)

let shape t = t.shape
let rank t = Shape.rank t.shape
let numel t = Array.length t.data
let data t = t.data
let get t idx = t.data.(Shape.ravel t.shape idx)
let set t idx v = t.data.(Shape.ravel t.shape idx) <- v

let item t =
  if numel t <> 1 then
    invalid_arg
      (Printf.sprintf "Tensor.item: tensor of shape %s has %d elements"
         (Shape.to_string t.shape) (numel t));
  t.data.(0)

let copy t = { shape = t.shape; data = Array.copy t.data }

let reshape t shape =
  Shape.validate shape;
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: cannot view %s as %s"
         (Shape.to_string t.shape) (Shape.to_string shape));
  { shape; data = t.data }

let to_flat_list t = Array.to_list t.data

(* Elementwise

   Every named operation runs one of two loops, [unary] and [binary],
   applied to a constant operation code. Both loops and the [apply1]/
   [apply2] dispatchers are [@inline], and ocamlopt folds a match on a
   constant constructor after inlining, so each named operation compiles
   to its own monomorphic loop with unboxed floats. (A float closure
   passed to an inlined helper is not specialised without flambda: the
   loop would call it, and box its result, once per element.) [map] and
   [map2] run the same loops through [Fn1]/[Fn2], calling their closure
   per element. *)

type op1 =
  | Neg | Abs | Sign | Exp | Log | Sqrt | Square | Sigmoid | Tanh | Tan
  | Log1p | Floor | Ceil | Round | Log_sigmoid | Not
  | Fn1 of (float -> float)

type op2 =
  | Add | Sub | Mul | Div | Pow | Max | Min | Logaddexp
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or
  | Fn2 of (float -> float -> float)

let[@inline] sigmoid_f x =
  if x >= 0. then 1. /. (1. +. Stdlib.exp (-.x))
  else
    let e = Stdlib.exp x in
    e /. (1. +. e)

let[@inline] log_sigmoid_f x =
  (* log(1/(1+e^-x)) = -log1p(e^-x), stable for both signs. *)
  if x >= 0. then -.Stdlib.log1p (Stdlib.exp (-.x))
  else x -. Stdlib.log1p (Stdlib.exp x)

(* Kept out of line: inlined, ocamlopt may order the operands of its
   final [+.] differently, which changes which NaN payload survives when
   both operands are NaN. *)
let[@inline never] logaddexp_f a b =
  (* Stable log(e^a + e^b); handles -inf identities exactly. *)
  if a = Float.neg_infinity then b
  else if b = Float.neg_infinity then a
  else begin
    let hi = Float.max a b and lo = Float.min a b in
    hi +. Stdlib.log1p (Stdlib.exp (lo -. hi))
  end

let[@inline] bool_f b = if b then 1. else 0.

let[@inline] apply1 op x =
  match op with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Sign -> if x > 0. then 1. else if x < 0. then -1. else 0.
  | Exp -> Stdlib.exp x
  | Log -> Stdlib.log x
  | Sqrt -> Stdlib.sqrt x
  | Square -> x *. x
  | Sigmoid -> sigmoid_f x
  | Tanh -> Stdlib.tanh x
  | Tan -> Stdlib.tan x
  | Log1p -> Stdlib.log1p x
  | Floor -> Float.floor x
  | Ceil -> Float.ceil x
  | Round -> Float.round x
  | Log_sigmoid -> log_sigmoid_f x
  | Not -> bool_f (x = 0.)
  | Fn1 f -> f x

let[@inline] apply2 op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Pow -> x ** y
  | Max -> Float.max x y
  | Min -> Float.min x y
  | Logaddexp -> logaddexp_f x y
  | Eq -> bool_f (x = y)
  | Ne -> bool_f (x <> y)
  | Lt -> bool_f (x < y)
  | Le -> bool_f (x <= y)
  | Gt -> bool_f (x > y)
  | Ge -> bool_f (x >= y)
  | And -> bool_f (x <> 0. && y <> 0.)
  | Or -> bool_f (x <> 0. || y <> 0.)
  | Fn2 f -> f x y

let[@inline] unary op t =
  let src = t.data in
  let n = Array.length src in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    out.(i) <- apply1 op src.(i)
  done;
  { shape = t.shape; data = out }

(* Row-major stride of an operand of shape [s] along each axis of the
   broadcast result shape [out]: 0 along size-1 and missing leading
   axes, so those axes re-read the same operand elements. *)
let broadcast_strides out s =
  let r = Array.length out and rs = Array.length s in
  let st = Array.make r 0 in
  let acc = ref 1 in
  for i = rs - 1 downto 0 do
    if s.(i) <> 1 then st.(i + (r - rs)) <- !acc;
    acc := !acc * s.(i)
  done;
  st

(* One odometer step over the outer axes (all but the last) of [shape]:
   bump the multi-index [idx] and move each operand's offset [offs.(k)]
   by its broadcast strides [strides.(k)]. *)
let advance shape idx strides offs =
  let ax = ref (Array.length shape - 2) in
  while !ax >= 0 do
    let a = !ax in
    idx.(a) <- idx.(a) + 1;
    if idx.(a) < shape.(a) then begin
      for k = 0 to Array.length offs - 1 do
        offs.(k) <- offs.(k) + strides.(k).(a)
      done;
      ax := -1
    end
    else begin
      idx.(a) <- 0;
      for k = 0 to Array.length offs - 1 do
        offs.(k) <- offs.(k) - (strides.(k).(a) * (shape.(a) - 1))
      done;
      decr ax
    end
  done

let[@inline] binary op a b =
  let ad = a.data and bd = b.data in
  if Shape.equal a.shape b.shape then begin
    let n = Array.length ad in
    let out = Array.create_float n in
    for i = 0 to n - 1 do
      out.(i) <- apply2 op ad.(i) bd.(i)
    done;
    { shape = a.shape; data = out }
  end
  else if Array.length bd = 1 && Array.length b.shape <= Array.length a.shape then begin
    (* A one-element operand of no higher rank broadcasts to the other
       operand's shape unchanged. *)
    let y = bd.(0) in
    let n = Array.length ad in
    let out = Array.create_float n in
    for i = 0 to n - 1 do
      out.(i) <- apply2 op ad.(i) y
    done;
    { shape = a.shape; data = out }
  end
  else if Array.length ad = 1 && Array.length a.shape <= Array.length b.shape then begin
    let x = ad.(0) in
    let n = Array.length bd in
    let out = Array.create_float n in
    for i = 0 to n - 1 do
      out.(i) <- apply2 op x bd.(i)
    done;
    { shape = b.shape; data = out }
  end
  else begin
    (* General broadcast: an odometer over the outer axes, a strided
       loop over the last one. *)
    let shape = Shape.broadcast2 a.shape b.shape in
    let n = Shape.numel shape in
    let out = Array.create_float n in
    if n > 0 then begin
      let r = Array.length shape in
      let strides = [| broadcast_strides shape a.shape; broadcast_strides shape b.shape |] in
      let inner = shape.(r - 1) in
      let sa = strides.(0).(r - 1) and sb = strides.(1).(r - 1) in
      let idx = Array.make r 0 and offs = [| 0; 0 |] in
      let po = ref 0 in
      while !po < n do
        let o = !po and pa = offs.(0) and pb = offs.(1) in
        for j = 0 to inner - 1 do
          out.(o + j) <- apply2 op ad.(pa + (j * sa)) bd.(pb + (j * sb))
        done;
        po := o + inner;
        advance shape idx strides offs
      done
    end;
    { shape; data = out }
  end

let map f t = unary (Fn1 f) t
let map2 f a b = binary (Fn2 f) a b
let add a b = binary Add a b
let sub a b = binary Sub a b
let mul a b = binary Mul a b
let div a b = binary Div a b
let pow a b = binary Pow a b
let maximum a b = binary Max a b
let minimum a b = binary Min a b
let logaddexp a b = binary Logaddexp a b
let neg t = unary Neg t
let abs t = unary Abs t
let sign t = unary Sign t
let exp t = unary Exp t
let log t = unary Log t
let sqrt t = unary Sqrt t
let square t = unary Square t
let sigmoid t = unary Sigmoid t
let tanh t = unary Tanh t
let tan t = unary Tan t
let log1p t = unary Log1p t
let floor t = unary Floor t
let ceil t = unary Ceil t
let round t = unary Round t
let log_sigmoid t = unary Log_sigmoid t
let add_scalar t v = binary Add t (scalar v)
let mul_scalar t v = binary Mul t (scalar v)

(* Comparisons *)

let eq a b = binary Eq a b
let ne a b = binary Ne a b
let lt a b = binary Lt a b
let le a b = binary Le a b
let gt a b = binary Gt a b
let ge a b = binary Ge a b
let logical_and a b = binary And a b
let logical_or a b = binary Or a b
let logical_not t = unary Not t

let where cond a b =
  let cd = cond.data and ad = a.data and bd = b.data in
  if Shape.equal cond.shape a.shape && Shape.equal a.shape b.shape then begin
    let n = Array.length cd in
    let out = Array.create_float n in
    for i = 0 to n - 1 do
      out.(i) <- (if cd.(i) <> 0. then ad.(i) else bd.(i))
    done;
    { shape = a.shape; data = out }
  end
  else begin
    let shape = Shape.broadcast2 (Shape.broadcast2 cond.shape a.shape) b.shape in
    let n = Shape.numel shape in
    let out = Array.create_float n in
    if n > 0 then begin
      let r = Array.length shape in
      let strides =
        [| broadcast_strides shape cond.shape; broadcast_strides shape a.shape;
           broadcast_strides shape b.shape |]
      in
      let inner = shape.(r - 1) in
      let sc = strides.(0).(r - 1) and sa = strides.(1).(r - 1)
      and sb = strides.(2).(r - 1) in
      let idx = Array.make r 0 and offs = [| 0; 0; 0 |] in
      let po = ref 0 in
      while !po < n do
        let o = !po and pc = offs.(0) and pa = offs.(1) and pb = offs.(2) in
        for j = 0 to inner - 1 do
          out.(o + j) <-
            (if cd.(pc + (j * sc)) <> 0. then ad.(pa + (j * sa)) else bd.(pb + (j * sb)))
        done;
        po := o + inner;
        advance shape idx strides offs
      done
    end;
    { shape; data = out }
  end

(* Reductions *)

let[@inline] full_reduce op init t =
  let src = t.data in
  let acc = ref init in
  for i = 0 to Array.length src - 1 do
    acc := apply2 op !acc src.(i)
  done;
  !acc

let[@inline] axis_reduce op init t axis =
  let r = rank t in
  if axis < 0 || axis >= r then
    invalid_arg (Printf.sprintf "Tensor: reduction axis %d out of range for rank %d" axis r);
  let src = t.data in
  let out_shape = Shape.remove_axis t.shape axis in
  let inner = (Shape.strides t.shape).(axis) in
  let d = t.shape.(axis) in
  let out = Array.make (Shape.numel out_shape) init in
  (* With an empty axis every output keeps [init]; with an empty outer or
     inner extent there are no outputs. *)
  let outer = if inner * d = 0 then 0 else Array.length src / (inner * d) in
  for o = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      let acc = ref init in
      for k = 0 to d - 1 do
        acc := apply2 op !acc src.((o * d * inner) + (k * inner) + i)
      done;
      out.((o * inner) + i) <- !acc
    done
  done;
  { shape = out_shape; data = out }

let sum ?axis t =
  match axis with
  | None -> scalar (full_reduce Add 0. t)
  | Some a -> axis_reduce Add 0. t a

let mean ?axis t =
  match axis with
  | None -> scalar (full_reduce Add 0. t /. float_of_int (numel t))
  | Some a ->
    let s = axis_reduce Add 0. t a in
    mul_scalar s (1. /. float_of_int t.shape.(a))

(* Linear algebra *)

let matmul a b =
  if rank a <> 2 || rank b <> 2 then invalid_arg "Tensor.matmul: rank-2 operands required";
  let n = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and m = b.shape.(1) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: inner dimensions %d and %d differ" k k');
  let ad = a.data and bd = b.data in
  (* The one bounds check for the unchecked loads below. *)
  if Array.length ad <> n * k || Array.length bd <> k * m then
    invalid_arg "Tensor.matmul: operand data does not match its shape";
  let out = Array.create_float (n * m) in
  (* Each output sums [a.(i).(l) *. b.(l).(j)] in ascending [l] starting
     from [0.], exactly like {!matvec}. No skip-zero fast path: exact
     IEEE agreement with the equivalent vector accumulation matters more
     than sparse speedups here (signed zeros and NaN payloads must
     propagate identically).

     Register tiles: two rows of [a] times four columns of [b] (eight
     accumulators), then a 2x1 tail over the last [m mod 4] columns; an
     odd last row runs a 1x4 tile and a 1x1 tail. Every factor is
     let-bound before its product, [a]'s first: ocamlopt may swap the
     operands of [x *. y] when only one of them is a fresh load, and when
     both are NaN the swapped product keeps the other payload. *)
  let i = ref 0 in
  while !i + 1 < n do
    let ao0 = !i * k and oo0 = !i * m in
    let ao1 = ao0 + k and oo1 = oo0 + m in
    let j = ref 0 in
    while !j + 3 < m do
      let j0 = !j in
      let s00 = ref 0. and s01 = ref 0. and s02 = ref 0. and s03 = ref 0. in
      let s10 = ref 0. and s11 = ref 0. and s12 = ref 0. and s13 = ref 0. in
      for l = 0 to k - 1 do
        let x0 = Array.unsafe_get ad (ao0 + l) and x1 = Array.unsafe_get ad (ao1 + l) in
        let bo = (l * m) + j0 in
        let y0 = Array.unsafe_get bd bo and y1 = Array.unsafe_get bd (bo + 1)
        and y2 = Array.unsafe_get bd (bo + 2) and y3 = Array.unsafe_get bd (bo + 3) in
        s00 := !s00 +. (x0 *. y0);
        s01 := !s01 +. (x0 *. y1);
        s02 := !s02 +. (x0 *. y2);
        s03 := !s03 +. (x0 *. y3);
        s10 := !s10 +. (x1 *. y0);
        s11 := !s11 +. (x1 *. y1);
        s12 := !s12 +. (x1 *. y2);
        s13 := !s13 +. (x1 *. y3)
      done;
      out.(oo0 + j0) <- !s00;
      out.(oo0 + j0 + 1) <- !s01;
      out.(oo0 + j0 + 2) <- !s02;
      out.(oo0 + j0 + 3) <- !s03;
      out.(oo1 + j0) <- !s10;
      out.(oo1 + j0 + 1) <- !s11;
      out.(oo1 + j0 + 2) <- !s12;
      out.(oo1 + j0 + 3) <- !s13;
      j := j0 + 4
    done;
    for j = !j to m - 1 do
      let s0 = ref 0. and s1 = ref 0. in
      for l = 0 to k - 1 do
        let x0 = Array.unsafe_get ad (ao0 + l) and x1 = Array.unsafe_get ad (ao1 + l) in
        let y = Array.unsafe_get bd ((l * m) + j) in
        s0 := !s0 +. (x0 *. y);
        s1 := !s1 +. (x1 *. y)
      done;
      out.(oo0 + j) <- !s0;
      out.(oo1 + j) <- !s1
    done;
    i := !i + 2
  done;
  if !i < n then begin
    let ao = !i * k and oo = !i * m in
    let j = ref 0 in
    while !j + 3 < m do
      let j0 = !j in
      let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
      for l = 0 to k - 1 do
        let x = Array.unsafe_get ad (ao + l) and bo = (l * m) + j0 in
        let y0 = Array.unsafe_get bd bo and y1 = Array.unsafe_get bd (bo + 1)
        and y2 = Array.unsafe_get bd (bo + 2) and y3 = Array.unsafe_get bd (bo + 3) in
        s0 := !s0 +. (x *. y0);
        s1 := !s1 +. (x *. y1);
        s2 := !s2 +. (x *. y2);
        s3 := !s3 +. (x *. y3)
      done;
      out.(oo + j0) <- !s0;
      out.(oo + j0 + 1) <- !s1;
      out.(oo + j0 + 2) <- !s2;
      out.(oo + j0 + 3) <- !s3;
      j := j0 + 4
    done;
    for j = !j to m - 1 do
      let s = ref 0. in
      for l = 0 to k - 1 do
        let x = Array.unsafe_get ad (ao + l) and y = Array.unsafe_get bd ((l * m) + j) in
        s := !s +. (x *. y)
      done;
      out.(oo + j) <- !s
    done
  end;
  { shape = [| n; m |]; data = out }

let matvec a x =
  if rank a <> 2 || rank x <> 1 then invalid_arg "Tensor.matvec: wants [n;k] and [k]";
  let n = a.shape.(0) and k = a.shape.(1) in
  if x.shape.(0) <> k then
    invalid_arg
      (Printf.sprintf "Tensor.matvec: matrix inner dim %d vs vector %d" k x.shape.(0));
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref 0. in
    for l = 0 to k - 1 do
      acc := !acc +. (a.data.((i * k) + l) *. x.data.(l))
    done;
    out.(i) <- !acc
  done;
  create [| n |] out

let dot a b =
  if rank a <> 1 || rank b <> 1 || a.shape.(0) <> b.shape.(0) then
    invalid_arg "Tensor.dot: rank-1 operands of equal length required";
  let acc = ref 0. in
  for i = 0 to a.shape.(0) - 1 do
    acc := !acc +. (a.data.(i) *. b.data.(i))
  done;
  scalar !acc

let transpose a =
  if rank a <> 2 then invalid_arg "Tensor.transpose: rank-2 operand required";
  let n = a.shape.(0) and m = a.shape.(1) in
  init [| m; n |] (fun idx -> a.data.((idx.(1) * m) + idx.(0)))

let outer a b =
  if rank a <> 1 || rank b <> 1 then invalid_arg "Tensor.outer: rank-1 operands required";
  let n = a.shape.(0) and m = b.shape.(0) in
  init [| n; m |] (fun idx -> a.data.(idx.(0)) *. b.data.(idx.(1)))

(* Row operations *)

let nrows t = if rank t = 0 then 1 else t.shape.(0)
(* The product of the inner dimensions, without building their shape:
   the VM calls this per slot and per gathered op. *)
let row_numel t =
  let n = ref 1 in
  for i = 1 to Array.length t.shape - 1 do
    n := !n * t.shape.(i)
  done;
  !n

let take_rows t idx =
  if rank t = 0 then invalid_arg "Tensor.take_rows: scalar tensor";
  let rn = row_numel t in
  let z = t.shape.(0) in
  let k = Array.length idx in
  let out = Array.make (k * rn) 0. in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= z then
        invalid_arg (Printf.sprintf "Tensor.take_rows: row %d out of %d" r z);
      Array.blit t.data (r * rn) out (i * rn) rn)
    idx;
  create (Array.append [| k |] (Shape.drop_outer t.shape)) out

let blit_rows_masked ~mask ~src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.blit_rows_masked: shapes differ";
  if nrows dst <> Array.length mask then
    invalid_arg "Tensor.blit_rows_masked: mask length does not match rows";
  let rn = row_numel dst in
  Array.iteri
    (fun i m -> if m then Array.blit src.data (i * rn) dst.data (i * rn) rn)
    mask

let blit_rows_indexed ~idx ~src ~dst =
  let rn = row_numel dst in
  if row_numel src <> rn || nrows src <> Array.length idx then
    invalid_arg "Tensor.blit_rows_indexed: source rows do not match index count/shape";
  let z = nrows dst in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= z then
        invalid_arg (Printf.sprintf "Tensor.blit_rows_indexed: row %d out of %d" r z);
      Array.blit src.data (i * rn) dst.data (r * rn) rn)
    idx

let stack_rows = function
  | [] -> invalid_arg "Tensor.stack_rows: empty list"
  | first :: _ as ts ->
    List.iter
      (fun t ->
        if not (Shape.equal t.shape first.shape) then
          invalid_arg "Tensor.stack_rows: shapes differ")
      ts;
    let rn = numel first in
    let k = List.length ts in
    let out = Array.make (k * rn) 0. in
    List.iteri (fun i t -> Array.blit t.data 0 out (i * rn) rn) ts;
    create (Array.append [| k |] first.shape) out

let concat_rows = function
  | [] -> invalid_arg "Tensor.concat_rows: empty list"
  | first :: _ as ts ->
    if rank first = 0 then invalid_arg "Tensor.concat_rows: scalar operands";
    let inner = Shape.drop_outer first.shape in
    List.iter
      (fun t ->
        if rank t = 0 || not (Shape.equal (Shape.drop_outer t.shape) inner) then
          invalid_arg "Tensor.concat_rows: inner shapes differ")
      ts;
    let total = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
    let out = Array.make (total * Shape.numel inner) 0. in
    let pos = ref 0 in
    List.iter
      (fun t ->
        Array.blit t.data 0 out !pos (numel t);
        pos := !pos + numel t)
      ts;
    create (Array.append [| total |] inner) out

let slice_row t i =
  if rank t = 0 then invalid_arg "Tensor.slice_row: scalar tensor";
  if i < 0 || i >= t.shape.(0) then
    invalid_arg (Printf.sprintf "Tensor.slice_row: row %d out of %d" i t.shape.(0));
  let rn = row_numel t in
  let out = Array.make rn 0. in
  Array.blit t.data (i * rn) out 0 rn;
  create (Shape.drop_outer t.shape) out

let broadcast_rows t z =
  let rn = numel t in
  let out = Array.make (z * rn) 0. in
  for i = 0 to z - 1 do
    Array.blit t.data 0 out (i * rn) rn
  done;
  create (Array.append [| z |] t.shape) out

(* Comparison *)

let float_eq_with_nan x y = x = y || (Float.is_nan x && Float.is_nan y)

let allclose ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Shape.equal a.shape b.shape
  && begin
    let ok = ref true in
    for i = 0 to numel a - 1 do
      let x = a.data.(i) and y = b.data.(i) in
      let close =
        float_eq_with_nan x y
        || Float.abs (x -. y) <= atol +. (rtol *. Float.abs y)
      in
      if not close then ok := false
    done;
    !ok
  end

let equal a b =
  Shape.equal a.shape b.shape
  && begin
    let ok = ref true in
    for i = 0 to numel a - 1 do
      if not (float_eq_with_nan a.data.(i) b.data.(i)) then ok := false
    done;
    !ok
  end

let fold f acc t = Array.fold_left f acc t.data

let pp ppf t =
  let n = numel t in
  let elide = n > 16 in
  let shown = if elide then 16 else n in
  Format.fprintf ppf "@[<hov 2>tensor%s[" (Shape.to_string t.shape);
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf ppf ";@ ";
    Format.fprintf ppf "%g" t.data.(i)
  done;
  if elide then Format.fprintf ppf ";@ ...(%d)" n;
  Format.fprintf ppf "]@]"

let to_string t = Format.asprintf "%a" pp t
