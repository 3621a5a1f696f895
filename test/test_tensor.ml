(* Unit and property tests for the tensor substrate. *)

let t = Alcotest.test_case
let check_f = Alcotest.(check (float 1e-12))

let close ?(tol = 1e-9) a b msg =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s vs %s" msg (Tensor.to_string a) (Tensor.to_string b))
    true
    (Tensor.allclose ~rtol:tol ~atol:tol a b)

let test_construction () =
  let z = Tensor.zeros [| 2; 3 |] in
  Alcotest.(check int) "numel" 6 (Tensor.numel z);
  check_f "zero" 0. (Tensor.get z [| 1; 2 |]);
  let o = Tensor.ones [| 3 |] in
  check_f "one" 1. (Tensor.get o [| 2 |]);
  let f = Tensor.full [| 2 |] 3.5 in
  check_f "full" 3.5 (Tensor.get f [| 0 |]);
  check_f "scalar item" 7. (Tensor.item (Tensor.scalar 7.));
  let a = Tensor.arange 4 in
  close a (Tensor.of_list [ 0.; 1.; 2.; 3. ]) "arange";
  let e = Tensor.eye 3 in
  check_f "eye diag" 1. (Tensor.get e [| 1; 1 |]);
  check_f "eye off" 0. (Tensor.get e [| 0; 2 |]);
  Alcotest.check_raises "create size mismatch"
    (Invalid_argument "Tensor.create: shape [3] wants 3 elements, got 2")
    (fun () -> ignore (Tensor.create [| 3 |] [| 1.; 2. |]))

let test_of_array_copies () =
  let src = [| 1.; 2. |] in
  let a = Tensor.of_array [| 2 |] src in
  src.(0) <- 99.;
  check_f "of_array copies" 1. (Tensor.get a [| 0 |])

let test_init_set () =
  let a = Tensor.init [| 2; 2 |] (fun i -> float_of_int ((i.(0) * 10) + i.(1))) in
  check_f "init" 11. (Tensor.get a [| 1; 1 |]);
  Tensor.set a [| 0; 1 |] 42.;
  check_f "set" 42. (Tensor.get a [| 0; 1 |])

let test_reshape () =
  let a = Tensor.arange 6 in
  let b = Tensor.reshape a [| 2; 3 |] in
  check_f "reshape view" 5. (Tensor.get b [| 1; 2 |]);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: cannot view [6] as [4]") (fun () ->
      ignore (Tensor.reshape a [| 4 |]))

let test_elementwise_broadcast () =
  let a = Tensor.of_list [ 1.; 2.; 3. ] in
  let s = Tensor.scalar 10. in
  close (Tensor.add a s) (Tensor.of_list [ 11.; 12.; 13. ]) "add scalar";
  let m = Tensor.init [| 2; 3 |] (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  (* [2;3] + [3] broadcasts along rows. *)
  close (Tensor.add m a)
    (Tensor.create [| 2; 3 |] [| 1.; 3.; 5.; 4.; 6.; 8. |])
    "row broadcast";
  (* [2;1] * [1;3] outer-style broadcast. *)
  let col = Tensor.create [| 2; 1 |] [| 2.; 3. |] in
  let row = Tensor.create [| 1; 3 |] [| 1.; 10.; 100. |] in
  close (Tensor.mul col row)
    (Tensor.create [| 2; 3 |] [| 2.; 20.; 200.; 3.; 30.; 300. |])
    "outer broadcast";
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Shape.broadcast2: incompatible shapes [2] and [3]")
    (fun () -> ignore (Tensor.add (Tensor.zeros [| 2 |]) (Tensor.zeros [| 3 |])))

let test_math_functions () =
  let x = Tensor.of_list [ -2.; 0.; 2. ] in
  close (Tensor.abs x) (Tensor.of_list [ 2.; 0.; 2. ]) "abs";
  close (Tensor.sign x) (Tensor.of_list [ -1.; 0.; 1. ]) "sign";
  close (Tensor.neg x) (Tensor.of_list [ 2.; 0.; -2. ]) "neg";
  close (Tensor.square x) (Tensor.of_list [ 4.; 0.; 4. ]) "square";
  close ~tol:1e-9 (Tensor.exp (Tensor.scalar 1.)) (Tensor.scalar (Float.exp 1.)) "exp";
  close ~tol:1e-9 (Tensor.log (Tensor.scalar (Float.exp 1.))) (Tensor.scalar 1.) "log e";
  check_f "sigmoid 0" 0.5 (Tensor.item (Tensor.sigmoid (Tensor.scalar 0.)));
  (* Stability: big negative input must not overflow. *)
  let ls = Tensor.item (Tensor.log_sigmoid (Tensor.scalar (-800.))) in
  Alcotest.(check bool) "log_sigmoid stable" true (ls < -700. && Float.is_finite ls);
  let lsp = Tensor.item (Tensor.log_sigmoid (Tensor.scalar 800.)) in
  Alcotest.(check bool) "log_sigmoid(+big) ~ 0" true (Float.abs lsp < 1e-300)

let test_comparisons_logic () =
  let a = Tensor.of_list [ 1.; 2.; 3. ] in
  let b = Tensor.of_list [ 2.; 2.; 2. ] in
  close (Tensor.lt a b) (Tensor.of_list [ 1.; 0.; 0. ]) "lt";
  close (Tensor.le a b) (Tensor.of_list [ 1.; 1.; 0. ]) "le";
  close (Tensor.gt a b) (Tensor.of_list [ 0.; 0.; 1. ]) "gt";
  close (Tensor.eq a b) (Tensor.of_list [ 0.; 1.; 0. ]) "eq";
  close
    (Tensor.logical_and (Tensor.le a b) (Tensor.ge a b))
    (Tensor.of_list [ 0.; 1.; 0. ])
    "and";
  close (Tensor.logical_not (Tensor.eq a b)) (Tensor.of_list [ 1.; 0.; 1. ]) "not"

let test_where () =
  let c = Tensor.of_list [ 1.; 0.; 1. ] in
  let a = Tensor.of_list [ 10.; 20.; 30. ] in
  let b = Tensor.of_list [ -1.; -2.; -3. ] in
  close (Tensor.where c a b) (Tensor.of_list [ 10.; -2.; 30. ]) "where";
  (* NaN payloads must pass through exactly. *)
  let a_nan = Tensor.of_list [ Float.nan; 20.; 30. ] in
  let r = Tensor.where c a_nan b in
  Alcotest.(check bool) "where keeps NaN payload" true
    (Float.is_nan (Tensor.get r [| 0 |]));
  (* Scalar condition broadcast. *)
  close (Tensor.where (Tensor.scalar 0.) a b) b "scalar cond"

let test_reductions () =
  let m = Tensor.create [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_f "sum all" 21. (Tensor.item (Tensor.sum m));
  close (Tensor.sum ~axis:0 m) (Tensor.of_list [ 5.; 7.; 9. ]) "sum axis 0";
  close (Tensor.sum ~axis:1 m) (Tensor.of_list [ 6.; 15. ]) "sum axis 1";
  close (Tensor.mean ~axis:1 m) (Tensor.of_list [ 2.; 5. ]) "mean axis 1";
  check_f "mean all" 3.5 (Tensor.item (Tensor.mean m));
  (* Rank-3 middle-axis reduction. *)
  let c = Tensor.init [| 2; 3; 2 |] (fun i -> float_of_int ((i.(0) * 6) + (i.(1) * 2) + i.(2))) in
  close (Tensor.sum ~axis:1 c)
    (Tensor.create [| 2; 2 |] [| 6.; 9.; 24.; 27. |])
    "sum middle axis"

let test_linalg () =
  let a = Tensor.create [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.create [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  close (Tensor.matmul a b)
    (Tensor.create [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    "matmul";
  let x = Tensor.of_list [ 1.; 0.; -1. ] in
  close (Tensor.matvec a x) (Tensor.of_list [ -2.; -2. ]) "matvec";
  check_f "dot" 14. (Tensor.item (Tensor.dot (Tensor.of_list [ 1.; 2.; 3. ]) (Tensor.of_list [ 1.; 2.; 3. ])));
  close (Tensor.transpose a)
    (Tensor.create [| 3; 2 |] [| 1.; 4.; 2.; 5.; 3.; 6. |])
    "transpose";
  close
    (Tensor.outer (Tensor.of_list [ 1.; 2. ]) (Tensor.of_list [ 3.; 4. ]))
    (Tensor.create [| 2; 2 |] [| 3.; 4.; 6.; 8. |])
    "outer";
  Alcotest.check_raises "matmul inner mismatch"
    (Invalid_argument "Tensor.matmul: inner dimensions 3 and 2 differ") (fun () ->
      ignore (Tensor.matmul a (Tensor.zeros [| 2; 2 |])))

let test_rows () =
  let m = Tensor.init [| 4; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1))) in
  Alcotest.(check int) "nrows" 4 (Tensor.nrows m);
  Alcotest.(check int) "row_numel" 2 (Tensor.row_numel m);
  close (Tensor.take_rows m [| 2; 0; 2 |])
    (Tensor.create [| 3; 2 |] [| 4.; 5.; 0.; 1.; 4.; 5. |])
    "take_rows";
  let mask = [| true; false; false; true |] in
  let alt = Tensor.full [| 4; 2 |] 9. in
  let dst = Tensor.copy m in
  Tensor.blit_rows_masked ~mask ~src:alt ~dst;
  close dst
    (Tensor.create [| 4; 2 |] [| 9.; 9.; 2.; 3.; 4.; 5.; 9.; 9. |])
    "blit_rows_masked";
  let dst2 = Tensor.copy m in
  Tensor.blit_rows_indexed ~idx:[| 1 |] ~src:(Tensor.create [| 1; 2 |] [| 7.; 8. |]) ~dst:dst2;
  close dst2
    (Tensor.create [| 4; 2 |] [| 0.; 1.; 7.; 8.; 4.; 5.; 6.; 7. |])
    "blit_rows_indexed";
  close (Tensor.slice_row m 2) (Tensor.of_list [ 4.; 5. ]) "slice_row";
  close
    (Tensor.stack_rows [ Tensor.of_list [ 1.; 2. ]; Tensor.of_list [ 3.; 4. ] ])
    (Tensor.create [| 2; 2 |] [| 1.; 2.; 3.; 4. |])
    "stack_rows";
  close
    (Tensor.concat_rows [ Tensor.create [| 1; 2 |] [| 1.; 2. |]; Tensor.create [| 2; 2 |] [| 3.; 4.; 5.; 6. |] ])
    (Tensor.create [| 3; 2 |] [| 1.; 2.; 3.; 4.; 5.; 6. |])
    "concat_rows";
  close (Tensor.broadcast_rows (Tensor.of_list [ 1.; 2. ]) 3)
    (Tensor.create [| 3; 2 |] [| 1.; 2.; 1.; 2.; 1.; 2. |])
    "broadcast_rows"

let test_equality () =
  let a = Tensor.of_list [ 1.; Float.nan ] in
  let b = Tensor.of_list [ 1.; Float.nan ] in
  Alcotest.(check bool) "NaN equal to NaN" true (Tensor.equal a b);
  Alcotest.(check bool) "allclose NaN" true (Tensor.allclose a b);
  Alcotest.(check bool) "NaN vs number" false
    (Tensor.equal a (Tensor.of_list [ 1.; 2. ]));
  Alcotest.(check bool) "shape mismatch" false
    (Tensor.equal (Tensor.zeros [| 2 |]) (Tensor.zeros [| 2; 1 |]))

(* Properties *)

let arb_vec =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(list_size (int_range 1 12) (float_range (-100.) 100.))

let prop_add_commutes =
  QCheck.Test.make ~name:"tensor add commutes" ~count:200 (QCheck.pair arb_vec arb_vec)
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let ta = Tensor.of_list (List.filteri (fun i _ -> i < n) a) in
      let tb = Tensor.of_list (List.filteri (fun i _ -> i < n) b) in
      Tensor.equal (Tensor.add ta tb) (Tensor.add tb ta))

let prop_sum_linear =
  QCheck.Test.make ~name:"sum (a+b) = sum a + sum b" ~count:200
    (QCheck.pair arb_vec arb_vec) (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let ta = Tensor.of_list (List.filteri (fun i _ -> i < n) a) in
      let tb = Tensor.of_list (List.filteri (fun i _ -> i < n) b) in
      Float.abs
        (Tensor.item (Tensor.sum (Tensor.add ta tb))
        -. (Tensor.item (Tensor.sum ta) +. Tensor.item (Tensor.sum tb)))
      < 1e-6)

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose (transpose m) = m" ~count:100
    (QCheck.pair QCheck.(int_range 1 6) QCheck.(int_range 1 6)) (fun (n, m) ->
      let a = Tensor.init [| n; m |] (fun i -> float_of_int ((i.(0) * 17) + i.(1))) in
      Tensor.equal a (Tensor.transpose (Tensor.transpose a)))

let prop_matmul_transpose =
  QCheck.Test.make ~name:"(AB)^T = B^T A^T" ~count:100
    (QCheck.triple QCheck.(int_range 1 5) QCheck.(int_range 1 5) QCheck.(int_range 1 5))
    (fun (n, k, m) ->
      let a = Tensor.init [| n; k |] (fun i -> Stdlib.sin (float_of_int ((i.(0) * 7) + i.(1)))) in
      let b = Tensor.init [| k; m |] (fun i -> Stdlib.cos (float_of_int ((i.(0) * 5) + i.(1)))) in
      Tensor.allclose ~rtol:1e-12 ~atol:1e-12
        (Tensor.transpose (Tensor.matmul a b))
        (Tensor.matmul (Tensor.transpose b) (Tensor.transpose a)))

(* Shapes of broadcast results *)

let test_one_element_broadcast_shape () =
  let shape_of a b = Tensor.shape (Tensor.map2 ( +. ) a b) in
  let check what expected a b =
    Alcotest.(check (array int)) what expected (shape_of a b);
    Alcotest.(check (array int))
      (what ^ " agrees with Shape.broadcast2")
      (Shape.broadcast2 (Tensor.shape a) (Tensor.shape b))
      (shape_of a b)
  in
  let v3 = Tensor.of_list [ 1.; 2.; 3. ] and one11 = Tensor.create [| 1; 1 |] [| 10. |] in
  check "[3] + [1;1]" [| 1; 3 |] v3 one11;
  check "[1;1] + [3]" [| 1; 3 |] one11 v3;
  check "[] + [1]" [| 1 |] (Tensor.scalar 1.) (Tensor.of_list [ 2. ]);
  check "[3] + []" [| 3 |] v3 (Tensor.scalar 1.);
  Alcotest.(check (list (float 0.))) "[3] + [1;1] values" [ 11.; 12.; 13. ]
    (Tensor.to_flat_list (Tensor.add v3 one11))

(* Kernel oracle: the naive kernels the optimized ones replaced, kept as
   the reference. Every optimized kernel must match them bit for bit. *)

module Naive = struct
  (* Offset of multi-index [idx] (of the broadcast result shape) within an
     operand of shape [s]: size-1 and missing leading dimensions contribute
     nothing. *)
  let broadcast_offset result_shape s idx =
    let r = Array.length result_shape and rs = Array.length s in
    let off = ref 0 in
    for i = 0 to rs - 1 do
      let d = s.(i) in
      let coord = if d = 1 then 0 else idx.(i + (r - rs)) in
      off := (!off * d) + coord
    done;
    !off

  let map2 f a b =
    let sa = Tensor.shape a and sb = Tensor.shape b in
    let ad = Tensor.data a and bd = Tensor.data b in
    let out_shape = Shape.broadcast2 sa sb in
    let n = Shape.numel out_shape in
    let out = Array.make n 0. in
    for off = 0 to n - 1 do
      let idx = Shape.unravel out_shape off in
      let x = ad.(broadcast_offset out_shape sa idx) in
      let y = bd.(broadcast_offset out_shape sb idx) in
      out.(off) <- f x y
    done;
    Tensor.create out_shape out

  let where cond a b =
    let sc = Tensor.shape cond and sa = Tensor.shape a and sb = Tensor.shape b in
    let s = Shape.broadcast2 (Shape.broadcast2 sc sa) sb in
    let n = Shape.numel s in
    let out = Array.make n 0. in
    for off = 0 to n - 1 do
      let idx = Shape.unravel s off in
      let c = (Tensor.data cond).(broadcast_offset s sc idx) in
      out.(off) <-
        (if c <> 0. then (Tensor.data a).(broadcast_offset s sa idx)
         else (Tensor.data b).(broadcast_offset s sb idx))
    done;
    Tensor.create s out

  (* Raises [Division_by_zero] when the reduced axis or the axes after it
     are empty. *)
  let axis_reduce f init t axis =
    let shape = Tensor.shape t and data = Tensor.data t in
    let out_shape = Shape.remove_axis shape axis in
    let inner = (Shape.strides shape).(axis) in
    let d = shape.(axis) in
    let outer = Shape.numel shape / (inner * d) in
    let out = Array.make (Shape.numel out_shape) init in
    for o = 0 to outer - 1 do
      for i = 0 to inner - 1 do
        let acc = ref init in
        for k = 0 to d - 1 do
          acc := f !acc data.((o * d * inner) + (k * inner) + i)
        done;
        out.((o * inner) + i) <- !acc
      done
    done;
    Tensor.create out_shape out

  let matmul a b =
    let n = (Tensor.shape a).(0) and k = (Tensor.shape a).(1) in
    let m = (Tensor.shape b).(1) in
    let ad = Tensor.data a and bd = Tensor.data b in
    let out = Array.make (n * m) 0. in
    for i = 0 to n - 1 do
      for l = 0 to k - 1 do
        let x = ad.((i * k) + l) in
        let bo = l * m and oo = i * m in
        for j = 0 to m - 1 do
          out.(oo + j) <- out.(oo + j) +. (x *. bd.(bo + j))
        done
      done
    done;
    Tensor.create [| n; m |] out
end

let same_bits a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && List.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.to_flat_list a) (Tensor.to_flat_list b)

(* Signed zeros, infinities, quiet and signalling NaNs with payloads,
   subnormals and extremes, mixed with ordinary values. *)
let special_floats =
  [|
    0.; -0.; 1.; -1.; 0.5; -2.75; Float.infinity; Float.neg_infinity; Float.nan;
    Int64.float_of_bits 0x7FF8_0000_0000_0123L;
    Int64.float_of_bits 0xFFF8_0000_DEAD_BEEFL;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L;
    4.9e-324; 1e308; -1e-300;
  |]

let gen_float =
  QCheck.Gen.(
    frequency
      [ (1, oneofa special_floats); (2, float_range (-4.) 4.); (1, map float_of_int (int_range (-2) 2)) ])

let gen_tensor shape =
  QCheck.Gen.(
    array_repeat (Shape.numel shape) gen_float >|= fun data -> Tensor.create shape data)

let gen_dim = QCheck.Gen.(frequency [ (1, return 0); (3, return 1); (6, int_range 2 4) ])

(* An operand shape that broadcasts to [out]: drop some leading axes and
   squash some of the rest to 1. *)
let gen_operand_shape out =
  let r = Array.length out in
  QCheck.Gen.(
    int_range 0 r >>= fun drop ->
    array_repeat (r - drop) (frequencyl [ (2, true); (1, false) ]) >|= fun keep ->
    Array.mapi (fun i k -> if k then out.(drop + i) else 1) keep)

let gen_out_shape = QCheck.Gen.(int_range 0 4 >>= fun r -> array_repeat r gen_dim)

let show_tensor t =
  Printf.sprintf "%s[%s]" (Shape.to_string (Tensor.shape t))
    (String.concat "; "
       (List.map (fun x -> Printf.sprintf "%h" x) (Tensor.to_flat_list t)))

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) -> show_tensor a ^ " , " ^ show_tensor b)
    QCheck.Gen.(
      gen_out_shape >>= fun out ->
      pair (gen_operand_shape out) (gen_operand_shape out) >>= fun (sa, sb) ->
      pair (gen_tensor sa) (gen_tensor sb))

let binary_ops =
  [
    ("add", Tensor.add, ( +. )); ("sub", Tensor.sub, ( -. ));
    ("mul", Tensor.mul, ( *. )); ("div", Tensor.div, ( /. ));
    ("pow", Tensor.pow, ( ** )); ("maximum", Tensor.maximum, Float.max);
    ("minimum", Tensor.minimum, Float.min);
    ("logaddexp", Tensor.logaddexp, Tensor.logaddexp_f);
    ("eq", Tensor.eq, fun x y -> if x = y then 1. else 0.);
    ("ne", Tensor.ne, fun x y -> if x <> y then 1. else 0.);
    ("lt", Tensor.lt, fun x y -> if x < y then 1. else 0.);
    ("le", Tensor.le, fun x y -> if x <= y then 1. else 0.);
    ("gt", Tensor.gt, fun x y -> if x > y then 1. else 0.);
    ("ge", Tensor.ge, fun x y -> if x >= y then 1. else 0.);
    ("logical_and", Tensor.logical_and, fun x y -> if x <> 0. && y <> 0. then 1. else 0.);
    ("logical_or", Tensor.logical_or, fun x y -> if x <> 0. || y <> 0. then 1. else 0.);
  ]

let unary_ops =
  [
    ("neg", Tensor.neg, fun x -> -.x); ("abs", Tensor.abs, Float.abs);
    ("sign", Tensor.sign, fun x -> if x > 0. then 1. else if x < 0. then -1. else 0.);
    ("exp", Tensor.exp, Stdlib.exp); ("log", Tensor.log, Stdlib.log);
    ("sqrt", Tensor.sqrt, Stdlib.sqrt); ("square", Tensor.square, fun x -> x *. x);
    ("sigmoid", Tensor.sigmoid, Tensor.sigmoid_f); ("tanh", Tensor.tanh, Stdlib.tanh);
    ("tan", Tensor.tan, Stdlib.tan); ("log1p", Tensor.log1p, Stdlib.log1p);
    ("floor", Tensor.floor, Float.floor); ("ceil", Tensor.ceil, Float.ceil);
    ("round", Tensor.round, Float.round);
    ("log_sigmoid", Tensor.log_sigmoid, Tensor.log_sigmoid_f);
    ("logical_not", Tensor.logical_not, fun x -> if x = 0. then 1. else 0.);
  ]

let prop_binary_oracle =
  QCheck.Test.make ~name:"binary kernels match the naive broadcast bitwise" ~count:300
    arb_pair (fun (a, b) ->
      let expect f = Naive.map2 f a b in
      List.iter
        (fun (name, op, f) ->
          if not (same_bits (op a b) (expect f)) then
            QCheck.Test.fail_reportf "%s: got %s" name (show_tensor (op a b)))
        binary_ops;
      let custom x y = (x *. 3.) -. y in
      same_bits (Tensor.map2 custom a b) (expect custom)
      && same_bits (Tensor.add_scalar a 0.25) (Naive.map2 ( +. ) a (Tensor.scalar 0.25))
      && same_bits (Tensor.mul_scalar a (-0.)) (Naive.map2 ( *. ) a (Tensor.scalar (-0.))))

let prop_unary_oracle =
  QCheck.Test.make ~name:"unary kernels match Tensor.map bitwise" ~count:200
    (QCheck.make ~print:show_tensor QCheck.Gen.(gen_out_shape >>= gen_tensor))
    (fun a ->
      List.for_all
        (fun (name, op, f) ->
          same_bits (op a) (Tensor.map f a)
          && same_bits (Tensor.map f a)
               (Tensor.create (Tensor.shape a) (Array.map f (Tensor.data a)))
          || QCheck.Test.fail_reportf "%s differs" name)
        unary_ops)

let prop_where_oracle =
  let gen_cond shape =
    QCheck.Gen.(
      array_repeat (Shape.numel shape) (oneofa [| 0.; -0.; 1.; 2.5; Float.nan |])
      >|= Tensor.create shape)
  in
  QCheck.Test.make ~name:"where matches the naive broadcast bitwise" ~count:300
    (QCheck.make
       ~print:(fun (c, a, b) ->
         String.concat " , " (List.map show_tensor [ c; a; b ]))
       QCheck.Gen.(
         gen_out_shape >>= fun out ->
         triple (gen_operand_shape out) (gen_operand_shape out) (gen_operand_shape out)
         >>= fun (sc, sa, sb) -> triple (gen_cond sc) (gen_tensor sa) (gen_tensor sb)))
    (fun (c, a, b) -> same_bits (Tensor.where c a b) (Naive.where c a b))

let prop_reduce_oracle =
  QCheck.Test.make ~name:"axis reductions match the naive loop bitwise" ~count:300
    (QCheck.make
       ~print:(fun (t, axis) -> Printf.sprintf "%s axis %d" (show_tensor t) axis)
       QCheck.Gen.(
         int_range 1 4 >>= fun r ->
         array_repeat r gen_dim >>= fun shape ->
         pair (gen_tensor shape) (int_range 0 (r - 1))))
    (fun (t, axis) ->
      let shape = Tensor.shape t in
      let check name op f init =
        match Naive.axis_reduce f init t axis with
        | expected -> same_bits (op ~axis t) expected
        | exception Division_by_zero ->
          (* An empty reduced axis (or empty trailing axes): every output,
             if any, is the identity. *)
          let out_shape = Shape.remove_axis shape axis in
          same_bits (op ~axis t) (Tensor.full out_shape init)
          || QCheck.Test.fail_reportf "%s on an empty extent" name
      in
      let sum ~axis t = Tensor.sum ~axis t in
      let full_sum_ok =
        same_bits (Tensor.sum t)
          (Tensor.scalar (Array.fold_left ( +. ) 0. (Tensor.data t)))
      in
      full_sum_ok && check "sum" sum ( +. ) 0.)

let prop_matmul_oracle =
  QCheck.Test.make ~name:"matmul matches the naive i-l-j loop bitwise" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> show_tensor a ^ " x " ^ show_tensor b)
       QCheck.Gen.(
         (* m spans every residue mod 4, and k = 0 occurs. *)
         triple (int_range 0 5) (int_range 0 6) (int_range 0 11) >>= fun (n, k, m) ->
         pair (gen_tensor [| n; k |]) (gen_tensor [| k; m |])))
    (fun (a, b) ->
      let c = Tensor.matmul a b in
      same_bits c (Naive.matmul a b)
      && ((Tensor.shape b).(1) <> 1
         || same_bits (Tensor.reshape c [| (Tensor.shape a).(0) |])
              (Tensor.matvec a (Tensor.reshape b [| (Tensor.shape b).(0) |]))))

(* A NaN in [a] times a different NaN in [b] keeps one of the two
   payloads, and which one depends on the product's operand order. Rows
   0-1 of a [3; 2] x [2; 5] product run the two-row tile and its 2x1
   column tail, row 2 the odd-row 1x4 tile and its 1x1 tail. *)
let test_matmul_nan_payloads () =
  let pa = Int64.float_of_bits 0x7FF8_0000_0000_0123L
  and pb = Int64.float_of_bits 0xFFF8_0000_DEAD_BEEFL in
  let a = Tensor.full [| 3; 2 |] pa and b = Tensor.full [| 2; 5 |] pb in
  let want = Naive.matmul a b in
  Alcotest.(check bool) "the oracle keeps one operand's payload" true
    (List.for_all
       (fun x ->
         let bits = Int64.bits_of_float x in
         Int64.equal bits (Int64.bits_of_float pa)
         || Int64.equal bits (Int64.bits_of_float pb))
       (Tensor.to_flat_list want));
  List.iteri
    (fun o (w, g) ->
      Alcotest.(check int64)
        (Printf.sprintf "row %d column %d payload" (o / 5) (o mod 5))
        (Int64.bits_of_float w) (Int64.bits_of_float g))
    (List.combine (Tensor.to_flat_list want) (Tensor.to_flat_list (Tensor.matmul a b)))

(* Every elementwise primitive of the standard registry, with the float
   function it computes. *)
let prim_unary =
  [
    ("neg", fun x -> -.x); ("abs", Float.abs);
    ("sign", fun x -> if x > 0. then 1. else if x < 0. then -1. else 0.);
    ("exp", Stdlib.exp); ("log", Stdlib.log); ("sqrt", Stdlib.sqrt);
    ("square", fun x -> x *. x); ("sigmoid", Tensor.sigmoid_f);
    ("log_sigmoid", Tensor.log_sigmoid_f); ("tanh", Stdlib.tanh); ("tan", Stdlib.tan);
    ("log1p", Stdlib.log1p); ("floor", Float.floor); ("ceil", Float.ceil);
    ("round", Float.round); ("not", fun x -> if x = 0. then 1. else 0.);
  ]

let prim_binary =
  [
    ("add", ( +. )); ("sub", ( -. )); ("mul", ( *. )); ("div", ( /. )); ("pow", ( ** ));
    ("min", Float.min); ("max", Float.max); ("logaddexp", Tensor.logaddexp_f);
    ("eq", fun x y -> if x = y then 1. else 0.);
    ("ne", fun x y -> if x <> y then 1. else 0.);
    ("lt", fun x y -> if x < y then 1. else 0.);
    ("le", fun x y -> if x <= y then 1. else 0.);
    ("gt", fun x y -> if x > y then 1. else 0.);
    ("ge", fun x y -> if x >= y then 1. else 0.);
    ("and", fun x y -> if x <> 0. && y <> 0. then 1. else 0.);
    ("or", fun x y -> if x <> 0. || y <> 0. then 1. else 0.);
  ]

let test_prim_table_complete () =
  let covered = List.map fst prim_unary @ List.map fst prim_binary in
  let not_elementwise =
    [ "select"; "index"; "update"; "sum"; "sum_sq"; "dot"; "uniform"; "exponential";
      "normal_like" ]
  in
  Alcotest.(check (list string)) "every standard primitive is classified"
    (Prim.names (Prim.standard ()))
    (List.sort compare (covered @ not_elementwise))

let prop_prim_elementwise =
  let reg = Prim.standard () in
  QCheck.Test.make ~name:"standard elementwise prims equal Tensor.map/map2 bitwise"
    ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> show_tensor a ^ " , " ^ show_tensor b)
       QCheck.Gen.(
         (* Batched operands: a batch axis, then element shapes that
            broadcast trailing-aligned. *)
         int_range 1 3 >>= fun z ->
         int_range 0 3 >>= fun r ->
         array_repeat r gen_dim >>= fun elem ->
         pair (gen_operand_shape elem) (gen_operand_shape elem) >>= fun (ea, eb) ->
         pair (gen_tensor (Array.append [| z |] ea)) (gen_tensor (Array.append [| z |] eb))))
    (fun (a, b) ->
      let z = (Tensor.shape a).(0) in
      let members = Array.init z Fun.id in
      let row t = Tensor.slice_row t 0 in
      List.for_all
        (fun (name, f) ->
          let p = Prim.find_exn reg name in
          (same_bits (p.Prim.batched ~members [ a ]) (Tensor.map f a)
          && same_bits (p.Prim.single ~member:0 [ row a ]) (Tensor.map f (row a)))
          || QCheck.Test.fail_reportf "%s differs" name)
        prim_unary
      && List.for_all
           (fun (name, f) ->
             let p = Prim.find_exn reg name in
             let a', b' = Prim.batch_rank_align a b in
             (same_bits (p.Prim.batched ~members [ a; b ]) (Tensor.map2 f a' b')
             && same_bits
                  (p.Prim.single ~member:0 [ row a; row b ])
                  (Tensor.map2 f (row a) (row b)))
             || QCheck.Test.fail_reportf "%s differs" name)
           prim_binary)

(* Row-separability oracle: every primitive's batched form computes row
   [i] from row [i] of each argument and [members.(i)] alone. Both
   batching runtimes rely on it — Local_vm's gather/scatter style and the
   program-counter VM's active-row execution run [batched] on a gathered
   subset of rows — so the gathered call must equal the matching rows of
   the full call, bitwise, NaN payloads and junk counters included. *)

let gen_rows z elem = gen_tensor (Array.append [| z |] elem)

(* Draw counters as junk lanes carry them: small counts, and anything. *)
let gen_counters z =
  QCheck.Gen.(
    array_repeat z
      (frequency [ (2, map float_of_int (int_range 0 40)); (1, gen_float) ])
    >|= Tensor.create [| z |])

let gen_vec_rows ?(min = 0) z =
  QCheck.Gen.(int_range min 4 >>= fun d -> gen_rows z [| d |])

let standard_row_args : (string * (int -> Tensor.t list QCheck.Gen.t)) list =
  let open QCheck.Gen in
  let unary z = gen_out_shape >>= gen_rows z >|= fun a -> [ a ] in
  let binary z =
    gen_out_shape >>= fun e ->
    pair (gen_operand_shape e) (gen_operand_shape e) >>= fun (ea, eb) ->
    pair (gen_rows z ea) (gen_rows z eb) >|= fun (a, b) -> [ a; b ]
  in
  let select z =
    gen_out_shape >>= fun e ->
    triple (gen_operand_shape e) (gen_operand_shape e) (gen_operand_shape e)
    >>= fun (ec, ea, eb) ->
    triple (gen_rows z ec) (gen_rows z ea) (gen_rows z eb) >|= fun (c, a, b) -> [ c; a; b ]
  in
  let dot z =
    int_range 0 4 >>= fun d ->
    pair (gen_rows z [| d |]) (gen_rows z [| d |]) >|= fun (a, b) -> [ a; b ]
  in
  let index z =
    pair (gen_vec_rows ~min:1 z) (gen_rows z [||]) >|= fun (v, i) -> [ v; i ]
  in
  let update z =
    triple (gen_vec_rows ~min:1 z) (gen_rows z [||]) (gen_rows z [||])
    >|= fun (v, i, x) -> [ v; i; x ]
  in
  let counter z = gen_counters z >|= fun c -> [ c ] in
  let normal_like z =
    pair (gen_out_shape >>= gen_rows z) (gen_counters z) >|= fun (x, c) -> [ x; c ]
  in
  List.map (fun (name, _) -> (name, unary)) prim_unary
  @ List.map (fun (name, _) -> (name, binary)) prim_binary
  @ [
      ("select", select); ("sum", unary); ("sum_sq", unary); ("dot", dot);
      ("index", index); ("update", update); ("uniform", counter);
      ("exponential", counter); ("normal_like", normal_like);
    ]

(* Every primitive in the tree, with an argument generator over [z]
   rows: the standard vocabulary, each zoo model's [logp] and [grad],
   and an [Eff.data_matvec] primitive (the logistic design matrix). *)
let row_separable_table =
  let std = Prim.standard () in
  let position dim z = QCheck.Gen.(gen_rows z [| dim |] >|= fun q -> [ q ]) in
  let model_prims (m : Model.t) =
    let reg = Prim.create_registry () in
    Model.register_prims reg m;
    List.map
      (fun name -> (m.Model.name ^ "/" ^ name, Prim.find_exn reg name, position m.Model.dim))
      [ "logp"; "grad" ]
  in
  let logistic = Logistic_model.model ~n:12 ~dim:3 () in
  let design = (Model.log_density logistic).Eff.el_registry in
  List.map (fun (name, gen) -> (name, Prim.find_exn std name, gen)) standard_row_args
  @ List.concat_map model_prims
      [
        logistic; Eight_schools.model (); Gaussian_model.model ~dim:3 ();
        Funnel_model.model ~dim:3 ();
      ]
  @ [ ("design_mv", Prim.find_exn design "design_mv", position 3) ]

let test_row_table_complete () =
  Alcotest.(check (list string)) "every standard primitive has a row generator"
    (Prim.names (Prim.standard ()))
    (List.sort compare (List.map fst standard_row_args))

let prop_row_separable =
  QCheck.Test.make ~name:"every primitive is row-separable (gathered = rows of full)"
    ~count:100
    (QCheck.make
       ~print:(fun (z, members, idx, _) ->
         Printf.sprintf "z=%d members=[%s] idx=[%s]" z
           (String.concat ";" (Array.to_list (Array.map string_of_int members)))
           (String.concat ";" (Array.to_list (Array.map string_of_int idx))))
       QCheck.Gen.(
         int_range 1 6 >>= fun z ->
         array_repeat z (int_range 0 999) >>= fun members ->
         array_repeat z bool >>= fun keep ->
         int_range 0 (z - 1) >>= fun forced ->
         flatten_l (List.map (fun (_, _, gen) -> gen z) row_separable_table) >|= fun args ->
         (* A non-empty ascending subset of the rows. *)
         let idx =
           List.filter (fun i -> keep.(i) || i = forced) (List.init z Fun.id)
         in
         (z, members, Array.of_list idx, args)))
    (fun (_, members, idx, args) ->
      List.for_all2
        (fun (label, p, _) args ->
          let full = p.Prim.batched ~members args in
          let gathered =
            p.Prim.batched
              ~members:(Array.map (fun i -> members.(i)) idx)
              (List.map (fun a -> Tensor.take_rows a idx) args)
          in
          same_bits gathered (Tensor.take_rows full idx)
          || QCheck.Test.fail_reportf "%s: gathered %s, full rows %s on %s" label
               (show_tensor gathered)
               (show_tensor (Tensor.take_rows full idx))
               (String.concat " , " (List.map show_tensor args)))
        row_separable_table args)

(* [row_numel] runs per slot in the VM's lane reset and per gathered op,
   so it must not allocate a shape. *)
let test_row_numel_no_alloc () =
  let m = Tensor.zeros [| 4; 3 |] and c = Tensor.zeros [| 2; 3; 5 |] in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Tensor.row_numel m + Tensor.row_numel c
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "row sizes" (1000 * (3 + 15)) !acc;
  Alcotest.(check (float 0.)) "minor words" 0. words

let suites =
  [
    ( "tensor",
      [
        t "construction" `Quick test_construction;
        t "of_array copies" `Quick test_of_array_copies;
        t "init and set" `Quick test_init_set;
        t "reshape" `Quick test_reshape;
        t "elementwise broadcast" `Quick test_elementwise_broadcast;
        t "math functions" `Quick test_math_functions;
        t "comparisons and logic" `Quick test_comparisons_logic;
        t "where" `Quick test_where;
        t "reductions" `Quick test_reductions;
        t "linear algebra" `Quick test_linalg;
        t "row operations" `Quick test_rows;
        t "equality semantics" `Quick test_equality;
        QCheck_alcotest.to_alcotest prop_add_commutes;
        QCheck_alcotest.to_alcotest prop_sum_linear;
        QCheck_alcotest.to_alcotest prop_transpose_involutive;
        QCheck_alcotest.to_alcotest prop_matmul_transpose;
        t "one-element broadcast shapes" `Quick test_one_element_broadcast_shape;
        QCheck_alcotest.to_alcotest prop_binary_oracle;
        QCheck_alcotest.to_alcotest prop_unary_oracle;
        QCheck_alcotest.to_alcotest prop_where_oracle;
        QCheck_alcotest.to_alcotest prop_reduce_oracle;
        QCheck_alcotest.to_alcotest prop_matmul_oracle;
        t "matmul keeps NaN payloads in every tile" `Quick test_matmul_nan_payloads;
        t "standard prims all classified" `Quick test_prim_table_complete;
        QCheck_alcotest.to_alcotest prop_prim_elementwise;
        t "row-separability table covers the registry" `Quick test_row_table_complete;
        QCheck_alcotest.to_alcotest prop_row_separable;
        t "row_numel allocates nothing" `Quick test_row_numel_no_alloc;
      ] );
  ]
