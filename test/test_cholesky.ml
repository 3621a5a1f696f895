(* Tests for the Cholesky module. *)

let t = Alcotest.test_case

let random_spd stream n =
  (* A Aᵀ + n·I is SPD. *)
  let a = Tensor.init [| n; n |] (fun _ -> Splitmix.Stream.normal stream) in
  Tensor.add
    (Tensor.matmul a (Tensor.transpose a))
    (Tensor.mul_scalar (Tensor.eye n) (float_of_int n))

let test_factor_reconstructs () =
  let stream = Splitmix.Stream.create 7L in
  List.iter
    (fun n ->
      let a = random_spd stream n in
      let l = Cholesky.factor a in
      Alcotest.(check bool)
        (Printf.sprintf "L L^T = A (n=%d)" n)
        true
        (Tensor.allclose ~rtol:1e-9 ~atol:1e-9 (Tensor.matmul l (Tensor.transpose l)) a);
      (* L is lower triangular. *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Alcotest.(check (float 0.)) "upper zero" 0. (Tensor.get l [| i; j |])
        done
      done)
    [ 1; 2; 5; 12 ]

let test_solves () =
  let stream = Splitmix.Stream.create 8L in
  let n = 6 in
  let a = random_spd stream n in
  let x_true = Tensor.init [| n |] (fun _ -> Splitmix.Stream.normal stream) in
  let b = Tensor.matvec a x_true in
  let l = Cholesky.factor a in
  let y = Cholesky.solve_lower l b in
  Alcotest.(check bool) "solve_lower" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-8 (Tensor.matvec l y) b);
  let u = Tensor.transpose l in
  let w = Cholesky.solve_upper u b in
  Alcotest.(check bool) "solve_upper" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-8 (Tensor.matvec u w) b);
  (* The SPD system a x = b through the factor: l (lᵀ x) = b. *)
  Alcotest.(check bool) "posdef solve recovers x" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-8 (Cholesky.solve_upper u y) x_true)

let test_inverse_and_logdet () =
  let stream = Splitmix.Stream.create 9L in
  let n = 5 in
  let a = random_spd stream n in
  let l = Cholesky.factor a in
  let inv = Cholesky.inverse_from_factor l in
  Alcotest.(check bool) "A A^-1 = I" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-8 (Tensor.matmul a inv) (Tensor.eye n));
  (* log det via the identity det(diag(d)) for a diagonal matrix. *)
  let d = Tensor.create [| 2; 2 |] [| 4.; 0.; 0.; 9. |] in
  let ld = Cholesky.log_det_from_factor (Cholesky.factor d) in
  Alcotest.(check (float 1e-10)) "log det diag(4,9)" (Stdlib.log 36.) ld

let test_failures () =
  Alcotest.check_raises "non-square"
    (Invalid_argument "Cholesky.factor: square rank-2 tensor required") (fun () ->
      ignore (Cholesky.factor (Tensor.zeros [| 2; 3 |])));
  let not_pd = Tensor.create [| 2; 2 |] [| 1.; 2.; 2.; 1. |] in
  (match Cholesky.factor not_pd with
  | _ -> Alcotest.fail "expected failure on indefinite matrix"
  | exception Failure _ -> ())

let prop_identity_factor =
  QCheck.Test.make ~name:"chol(c*I) = sqrt(c)*I" ~count:50
    (QCheck.pair QCheck.(int_range 1 8) QCheck.(float_range 0.1 100.)) (fun (n, c) ->
      let l = Cholesky.factor (Tensor.mul_scalar (Tensor.eye n) c) in
      Tensor.allclose ~rtol:1e-12 ~atol:1e-12 l
        (Tensor.mul_scalar (Tensor.eye n) (Stdlib.sqrt c)))

let suites =
  [
    ( "cholesky",
      [
        t "factor reconstructs" `Quick test_factor_reconstructs;
        t "triangular and posdef solves" `Quick test_solves;
        t "inverse and log det" `Quick test_inverse_and_logdet;
        t "failure modes" `Quick test_failures;
        QCheck_alcotest.to_alcotest prop_identity_factor;
      ] );
  ]
