(* Unit and property tests for Shape. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_numel_rank () =
  check_int "scalar numel" 1 (Shape.numel Shape.scalar);
  check_int "scalar rank" 0 (Shape.rank Shape.scalar);
  check_int "numel [2;3;4]" 24 (Shape.numel [| 2; 3; 4 |]);
  check_int "numel with zero dim" 0 (Shape.numel [| 2; 0; 4 |]);
  check_int "rank" 3 (Shape.rank [| 2; 0; 4 |])

let test_validate () =
  Shape.validate [| 1; 2; 3 |];
  Shape.validate [||];
  Alcotest.check_raises "negative dim" (Invalid_argument
    "Shape.validate: negative dimension -1 at axis 1")
    (fun () -> Shape.validate [| 2; -1 |])

let test_strides () =
  Alcotest.(check (array int)) "strides [2;3;4]" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "strides scalar" [||] (Shape.strides [||]);
  Alcotest.(check (array int)) "strides rank1" [| 1 |] (Shape.strides [| 7 |])

let test_ravel_unravel () =
  let s = [| 2; 3; 4 |] in
  check_int "ravel 0" 0 (Shape.ravel s [| 0; 0; 0 |]);
  check_int "ravel last" 23 (Shape.ravel s [| 1; 2; 3 |]);
  check_int "ravel mid" (12 + 4 + 2) (Shape.ravel s [| 1; 1; 2 |]);
  Alcotest.(check (array int)) "unravel mid" [| 1; 1; 2 |] (Shape.unravel s 18);
  Alcotest.check_raises "ravel out of bounds"
    (Invalid_argument "Shape.ravel: index 3 out of bounds for axis 1 (size 3)")
    (fun () -> ignore (Shape.ravel s [| 0; 3; 0 |]))

let test_broadcast () =
  let check name a b expected =
    Alcotest.(check (array int)) name expected (Shape.broadcast2 a b)
  in
  check "same" [| 2; 3 |] [| 2; 3 |] [| 2; 3 |];
  check "scalar left" [||] [| 2; 3 |] [| 2; 3 |];
  check "scalar right" [| 2; 3 |] [||] [| 2; 3 |];
  check "ones stretch" [| 2; 1 |] [| 1; 3 |] [| 2; 3 |];
  check "trailing align" [| 4; 1; 3 |] [| 5; 3 |] [| 4; 5; 3 |];
  check "one against zero" [| 1; 3 |] [| 0; 1 |] [| 0; 3 |];
  check "zero against missing" [| 2; 0 |] [| 1 |] [| 2; 0 |]

let test_axis_helpers () =
  Alcotest.(check (array int)) "remove middle" [| 2; 4 |]
    (Shape.remove_axis [| 2; 3; 4 |] 1);
  Alcotest.(check (array int)) "concat outer" [| 5; 2; 3 |]
    (Shape.concat_outer 5 [| 2; 3 |]);
  Alcotest.(check (array int)) "drop outer" [| 3 |] (Shape.drop_outer [| 5; 3 |]);
  Alcotest.check_raises "drop scalar"
    (Invalid_argument "Shape.drop_outer: scalar shape") (fun () ->
      ignore (Shape.drop_outer [||]))

let test_to_string () =
  Alcotest.(check string) "scalar" "[]" (Shape.to_string [||]);
  Alcotest.(check string) "rank2" "[2;3]" (Shape.to_string [| 2; 3 |])

(* Properties *)

let shape_gen =
  QCheck.Gen.(list_size (int_bound 4) (int_range 1 5) >|= Array.of_list)

let arb_shape = QCheck.make ~print:Shape.to_string shape_gen

let prop_ravel_roundtrip =
  QCheck.Test.make ~name:"unravel (ravel idx) = idx" ~count:200
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun s ->
         if Shape.numel s = 0 then return (s, 0)
         else int_bound (Shape.numel s - 1) >|= fun off -> (s, off)))
    (fun (s, off) ->
      Shape.numel s = 0 || Shape.ravel s (Shape.unravel s off) = off)

let prop_broadcast_commutative =
  QCheck.Test.make ~name:"broadcast2 commutative" ~count:200
    (QCheck.pair arb_shape arb_shape) (fun (a, b) ->
      match (Shape.broadcast2 a b, Shape.broadcast2 b a) with
      | sa, sb -> Shape.equal sa sb
      | exception Invalid_argument _ -> (
        match Shape.broadcast2 b a with
        | _ -> false
        | exception Invalid_argument _ -> true))

let prop_broadcast_idempotent =
  QCheck.Test.make ~name:"broadcast2 s s = s" ~count:200 arb_shape (fun s ->
      Shape.equal (Shape.broadcast2 s s) s)

let suites =
  [
    ( "shape",
      [
        Alcotest.test_case "numel and rank" `Quick test_numel_rank;
        Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "strides" `Quick test_strides;
        Alcotest.test_case "ravel/unravel" `Quick test_ravel_unravel;
        Alcotest.test_case "broadcast" `Quick test_broadcast;
        Alcotest.test_case "axis helpers" `Quick test_axis_helpers;
        Alcotest.test_case "to_string" `Quick test_to_string;
        QCheck_alcotest.to_alcotest prop_ravel_roundtrip;
        QCheck_alcotest.to_alcotest prop_broadcast_commutative;
        QCheck_alcotest.to_alcotest prop_broadcast_idempotent;
      ] );
  ]
