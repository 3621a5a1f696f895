(* Tests for the evaluation models. *)

let t = Alcotest.test_case

let test_gaussian_construction () =
  let g = Gaussian_model.ground_truth ~rho:0.5 ~dim:4 () in
  Alcotest.(check (float 1e-12)) "sigma diag" 1.
    (Tensor.get g.Gaussian_model.covariance [| 2; 2 |]);
  Alcotest.(check (float 1e-12)) "sigma band" 0.25
    (Tensor.get g.Gaussian_model.covariance [| 0; 2 |]);
  Alcotest.(check (float 1e-12)) "marginal variance" 1.
    (Gaussian_model.marginal_variance g 3);
  (* precision is exactly symmetric (bitwise: required for VM equality). *)
  let p = g.Gaussian_model.precision in
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check (float 0.)) "precision symmetric" (Tensor.get p [| i; j |])
        (Tensor.get p [| j; i |])
    done
  done;
  (* Σ · Σ⁻¹ = I *)
  Alcotest.(check bool) "precision inverts covariance" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-8
       (Tensor.matmul g.Gaussian_model.covariance p)
       (Tensor.eye 4))

let test_gaussian_logp_value () =
  (* For the identity limit rho=0, logp is the standard normal density. *)
  let m = Gaussian_model.model ~rho:0. ~dim:3 () in
  let q = Tensor.of_list [ 1.; -1.; 2. ] in
  let expected =
    (-0.5 *. (1. +. 1. +. 4.)) -. (1.5 *. Stdlib.log (2. *. Float.pi))
  in
  Alcotest.(check (float 1e-10)) "standard normal logp" expected
    (m.Model.logp q)

let test_gaussian_grad_finite_diff () =
  let m = Gaussian_model.model ~rho:0.7 ~dim:5 () in
  let q = Tensor.init [| 5 |] (fun i -> 0.3 *. float_of_int (i.(0) - 2)) in
  let fd = Ad.finite_diff (fun q -> m.Model.logp q) q in
  Alcotest.(check bool) "grad vs finite diff" true
    (Tensor.allclose ~rtol:1e-5 ~atol:1e-6 (m.Model.grad q) fd)

let test_gaussian_single_batch_agree () =
  Model.check_shapes (Gaussian_model.model ~dim:7 ())

let test_gaussian_sampling_moments () =
  let g = Gaussian_model.ground_truth ~rho:0.6 ~dim:3 () in
  let stream = Splitmix.Stream.create 21L in
  let n = 20_000 in
  let acc = Tensor.zeros [| 3 |] in
  let acc_cross = ref 0. in
  for _ = 1 to n do
    let s = Gaussian_model.sample g stream in
    for i = 0 to 2 do
      (Tensor.data acc).(i) <- (Tensor.data acc).(i) +. (Tensor.data s).(i)
    done;
    acc_cross := !acc_cross +. ((Tensor.data s).(0) *. (Tensor.data s).(1))
  done;
  let nf = float_of_int n in
  for i = 0 to 2 do
    Alcotest.(check bool) "sample mean ~ 0" true
      (Float.abs ((Tensor.data acc).(i) /. nf) < 0.03)
  done;
  Alcotest.(check bool) "sample cross-cov ~ rho" true
    (Float.abs ((!acc_cross /. nf) -. 0.6) < 0.03)

let test_gaussian_errors () =
  Alcotest.check_raises "dim 0"
    (Invalid_argument "Gaussian_model: dim must be positive") (fun () ->
      ignore (Gaussian_model.model ~dim:0 ()));
  Alcotest.check_raises "|rho| >= 1"
    (Invalid_argument "Gaussian_model: |rho| must be < 1") (fun () ->
      ignore (Gaussian_model.model ~rho:1. ~dim:2 ()))

let test_logistic_construction () =
  let l = Logistic_model.synth ~n:200 ~dim:5 () in
  Alcotest.(check (array int)) "x shape" [| 200; 5 |] (Tensor.shape l.Logistic_model.x);
  Alcotest.(check (array int)) "y shape" [| 200 |] (Tensor.shape l.Logistic_model.y);
  Tensor.fold (fun () v ->
      Alcotest.(check bool) "labels are 0/1" true (v = 0. || v = 1.)) ()
    l.Logistic_model.y;
  (* Labels must not be degenerate. *)
  let ones = Tensor.item (Tensor.sum l.Logistic_model.y) in
  Alcotest.(check bool) "labels mixed" true (ones > 20. && ones < 180.)

let test_logistic_grad_finite_diff () =
  let m = Logistic_model.model ~n:80 ~dim:6 () in
  let beta = Tensor.init [| 6 |] (fun i -> 0.2 *. float_of_int (i.(0) - 3)) in
  let fd = Ad.finite_diff (fun b -> m.Model.logp b) beta in
  Alcotest.(check bool) "grad vs finite diff" true
    (Tensor.allclose ~rtol:1e-4 ~atol:1e-5 (m.Model.grad beta) fd)

let test_logistic_single_batch_agree () =
  Model.check_shapes (Logistic_model.model ~n:60 ~dim:4 ())

let test_logistic_logp_decreases_away_from_truth () =
  (* The log-posterior at the generating coefficients should beat a far
     away point. *)
  let l = Logistic_model.synth ~n:500 ~dim:8 () in
  let m = Logistic_model.model_of_data l in
  let far = Tensor.full [| 8 |] 10. in
  Alcotest.(check bool) "logp(beta_true) > logp(far)" true
    (m.Model.logp l.Logistic_model.beta_true > m.Model.logp far)

let test_logistic_deterministic_by_seed () =
  let a = Logistic_model.synth ~seed:5L ~n:30 ~dim:3 () in
  let b = Logistic_model.synth ~seed:5L ~n:30 ~dim:3 () in
  let c = Logistic_model.synth ~seed:6L ~n:30 ~dim:3 () in
  Alcotest.(check bool) "same seed same data" true
    (Tensor.equal a.Logistic_model.x b.Logistic_model.x);
  Alcotest.(check bool) "different seed different data" false
    (Tensor.equal a.Logistic_model.x c.Logistic_model.x)

let test_register_prims () =
  let gm = Gaussian_model.model ~dim:3 () in
  let reg = Prim.standard () in
  Model.register_prims reg gm;
  let logp = Prim.find_exn reg "logp" in
  Alcotest.(check (array int)) "logp shape" [||] (logp.Prim.shape [ [| 3 |] ]);
  (match logp.Prim.shape [ [| 4 |] ] with
  | _ -> Alcotest.fail "wrong dim accepted"
  | exception Prim.Shape_error _ -> ());
  let grad = Prim.find_exn reg "grad" in
  Alcotest.(check (array int)) "grad shape" [| 3 |] (grad.Prim.shape [ [| 3 |] ]);
  (* Values route to the model. *)
  let q = Tensor.of_list [ 0.5; -0.5; 1. ] in
  Alcotest.(check (float 0.)) "logp value routed"
    (gm.Model.logp q)
    (Tensor.item (logp.Prim.single ~member:0 [ q ]))

let suites =
  [
    ( "models",
      [
        t "gaussian construction" `Quick test_gaussian_construction;
        t "gaussian logp value" `Quick test_gaussian_logp_value;
        t "gaussian grad vs finite diff" `Quick test_gaussian_grad_finite_diff;
        t "gaussian single=batch" `Quick test_gaussian_single_batch_agree;
        t "gaussian sampling moments" `Quick test_gaussian_sampling_moments;
        t "gaussian input validation" `Quick test_gaussian_errors;
        t "logistic construction" `Quick test_logistic_construction;
        t "logistic grad vs finite diff" `Quick test_logistic_grad_finite_diff;
        t "logistic single=batch" `Quick test_logistic_single_batch_agree;
        t "logistic prefers generating beta" `Quick
          test_logistic_logp_decreases_away_from_truth;
        t "logistic seeding" `Quick test_logistic_deterministic_by_seed;
        t "prim registration" `Quick test_register_prims;
      ] );
  ]

(* ---------- Neal's funnel ---------- *)

let test_funnel_grad_and_shapes () =
  let m = Funnel_model.model ~dim:5 () in
  Model.check_shapes m;
  let q = Tensor.of_list [ 0.8; 0.3; -1.2; 0.5; 2.0 ] in
  let fd = Ad.finite_diff (fun q -> m.Model.logp q) q in
  Alcotest.(check bool) "funnel grad vs finite diff" true
    (Tensor.allclose ~rtol:1e-5 ~atol:1e-6 (m.Model.grad q) fd);
  (* And against an AD transcription of the density. *)
  let ad_g =
    Ad.grad1
      (fun tape v ->
        let dim = 5 in
        let k = float_of_int (dim - 1) in
        (* split: v0 = q[0], xs = q[1..] — via constant masks. *)
        let e0 = Ad.const tape (Tensor.of_list [ 1.; 0.; 0.; 0.; 0. ]) in
        let rest = Ad.const tape (Tensor.of_list [ 0.; 1.; 1.; 1.; 1. ]) in
        let v0 = Ad.dot e0 v in
        let x2 = Ad.dot (Ad.mul rest v) (Ad.mul rest v) in
        let t1 = Ad.mul_scalar (Ad.mul v0 v0) (-1. /. 18.) in
        let t2 = Ad.mul (Ad.mul_scalar x2 (-0.5)) (Ad.exp (Ad.mul_scalar v0 (-1.))) in
        let t3 = Ad.mul_scalar v0 (-0.5 *. k) in
        Ad.add (Ad.add t1 t2) t3)
      q
  in
  Alcotest.(check bool) "funnel grad vs AD" true
    (Tensor.allclose ~rtol:1e-8 ~atol:1e-9 (m.Model.grad q) ad_g)

let test_funnel_exact_sampling () =
  let stream = Splitmix.Stream.create 41L in
  let n = 20_000 in
  let acc_v = ref 0. and acc_v2 = ref 0. in
  for _ = 1 to n do
    let s = Funnel_model.sample ~dim:3 stream in
    let v = (Tensor.data s).(0) in
    acc_v := !acc_v +. v;
    acc_v2 := !acc_v2 +. (v *. v)
  done;
  let nf = float_of_int n in
  let mean = !acc_v /. nf in
  let var = (!acc_v2 /. nf) -. (mean *. mean) in
  Alcotest.(check bool) (Printf.sprintf "v mean ~ 0 (got %.3f)" mean) true
    (Float.abs mean < 0.1);
  Alcotest.(check bool) (Printf.sprintf "v var ~ 9 (got %.3f)" var) true
    (Float.abs (var -. Funnel_model.v_variance) < 0.5)

let test_funnel_nuts_bitwise () =
  (* The funnel's data-dependent tree depths batch correctly too. *)
  let model = Funnel_model.model ~dim:4 () in
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| 4 |] in
  let cfg = Nuts.default_config ~eps:0.2 () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps:0.2 ~n_iter:5 ~n_burn:0 ~batch:4 () in
  let out = Autobatch.run_pc compiled ~batch in
  for member = 0 to 3 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter:5 in
    Alcotest.(check bool)
      (Printf.sprintf "funnel member %d bitwise" member)
      true
      (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.hd out) member))
  done

let test_funnel_dim_validation () =
  Alcotest.check_raises "dim 1"
    (Invalid_argument "Funnel_model: dim must be at least 2") (fun () ->
      ignore (Funnel_model.model ~dim:1 ()))

let funnel_suite =
  ( "funnel",
    [
      t "gradient vs FD and AD" `Quick test_funnel_grad_and_shapes;
      t "exact sampling moments" `Quick test_funnel_exact_sampling;
      t "NUTS bitwise equivalence" `Quick test_funnel_nuts_bitwise;
      t "input validation" `Quick test_funnel_dim_validation;
    ] )

let suites = suites @ [ funnel_suite ]

(* ---------- eight schools ---------- *)

let test_schools_grad () =
  let m = Eight_schools.model () in
  Model.check_shapes m;
  let q =
    Tensor.of_list [ 5.; 0.7; 0.3; -0.2; 0.9; -0.5; 0.1; 0.4; -0.8; 0.6 ]
  in
  let fd = Ad.finite_diff (fun q -> m.Model.logp q) q in
  Alcotest.(check bool) "schools grad vs finite diff" true
    (Tensor.allclose ~rtol:1e-5 ~atol:1e-6 (m.Model.grad q) fd)

let test_schools_inference () =
  let s =
    Batched_sampler.run ~model:(Eight_schools.model ()) ~chains:32 ~n_iter:150
      ~n_burn:50 ()
  in
  let mu = (Tensor.data s.Batched_sampler.mean).(0) in
  Alcotest.(check bool) (Printf.sprintf "mu in published range (got %.2f)" mu) true
    (mu > 4. && mu < 12.);
  (* Partial pooling: every school's standardized effect has |t| < 2 at
     the posterior mean (raw effects span -3..28). *)
  for j = 0 to 7 do
    let t = (Tensor.data s.Batched_sampler.mean).(2 + j) in
    Alcotest.(check bool) (Printf.sprintf "t_%d shrunk (got %.2f)" j t) true
      (Float.abs t < 2.)
  done

let test_schools_effects_ordering () =
  let q = Tensor.of_list [ 8.; Stdlib.log 6.; 1.; 0.; -0.5; 0.; 0.; 0.; 0.5; 0. ] in
  let e = Eight_schools.school_effects q in
  Alcotest.(check (array int)) "eight effects" [| 8 |] (Tensor.shape e);
  Alcotest.(check (float 1e-12)) "effect formula" (8. +. 6.) (Tensor.get e [| 0 |]);
  Alcotest.(check (float 1e-12)) "zero tilde = mu" 8. (Tensor.get e [| 1 |])

let test_schools_bitwise () =
  let model = Eight_schools.model () in
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| 10 |] in
  let cfg = Nuts.default_config ~eps:0.3 () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps:0.3 ~n_iter:4 ~n_burn:0 ~batch:3 () in
  let out = Autobatch.run_pc compiled ~batch in
  for member = 0 to 2 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter:4 in
    Alcotest.(check bool)
      (Printf.sprintf "schools member %d bitwise" member)
      true
      (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.hd out) member))
  done

let schools_suite =
  ( "eight-schools",
    [
      t "gradient vs finite diff" `Quick test_schools_grad;
      t "posterior in published range" `Slow test_schools_inference;
      t "school-effect mapping" `Quick test_schools_effects_ordering;
      t "NUTS bitwise equivalence" `Quick test_schools_bitwise;
    ] )

let suites = suites @ [ schools_suite ]

(* ---------- batched densities are the single-example ones, bitwise ---------- *)

(* The NUTS bitwise gates compare batched runs against single-chain
   references, so each row of [logp_batch]/[grad_batch] must carry the
   same bits as [logp]/[grad] of that row; [Model.check_shapes] only
   checks agreement to [rtol 1e-8]. *)
let check_rows (m : Model.t) ~what q =
  let lp = Tensor.data (m.Model.logp_batch q) and g = m.Model.grad_batch q in
  for i = 0 to Tensor.nrows q - 1 do
    let row = Tensor.slice_row q i in
    let what = Printf.sprintf "%s row %d" what i in
    Alcotest.(check int64) (what ^ " logp bits")
      (Int64.bits_of_float (m.Model.logp row))
      (Int64.bits_of_float lp.(i));
    Alcotest.(check (list int64)) (what ^ " grad bits")
      (List.map Int64.bits_of_float (Tensor.to_flat_list (m.Model.grad row)))
      (List.map Int64.bits_of_float (Tensor.to_flat_list (Tensor.slice_row g i)))
  done

let check_rows_bitwise (m : Model.t) =
  let stream = Splitmix.Stream.create 0xB175L in
  let z = 6 in
  for trial = 0 to 3 do
    let scale = 0.5 *. float_of_int (trial + 1) in
    let q =
      Tensor.init [| z; m.Model.dim |] (fun _ -> scale *. Splitmix.Stream.normal stream)
    in
    check_rows m ~what:(Printf.sprintf "%s trial %d" m.Model.name trial) q
  done

(* Every register-tile remainder of [Tensor.matmul]: widths 1, 3 and 5
   end on the odd-row path, 2 and 33 run the two-row tile (33 with an
   odd row after 16 pairs), and the caller picks dimensions that leave
   column tails. About 30% of the entries are special floats: signed
   zeros, infinities, NaNs with payloads, subnormals. *)
let check_rows_remainders (m : Model.t) =
  let stream = Splitmix.Stream.create 0x7113L in
  let specials = Test_tensor.special_floats in
  let draw _ =
    if Splitmix.Stream.uniform stream < 0.3 then
      specials.(Splitmix.Stream.int_below stream (Array.length specials))
    else Splitmix.Stream.normal stream
  in
  for trial = 0 to 11 do
    List.iter
      (fun z ->
        check_rows m
          ~what:(Printf.sprintf "%s trial %d width %d" m.Model.name trial z)
          (Tensor.init [| z; m.Model.dim |] draw))
      [ 1; 2; 3; 5; 33 ]
  done

let rows_bitwise_suite =
  ( "models-rows",
    [
      t "logistic" `Quick (fun () ->
          check_rows_bitwise (Logistic_model.model ~n:60 ~dim:7 ()));
      t "eight schools" `Quick (fun () -> check_rows_bitwise (Eight_schools.model ()));
      t "gaussian" `Quick (fun () -> check_rows_bitwise (Gaussian_model.model ~dim:9 ()));
      t "funnel" `Quick (fun () -> check_rows_bitwise (Funnel_model.model ~dim:6 ()));
      (* β·Xᵀ leaves a 1-column tail (n = 61) and resid·X a 3-column
         tail (dim = 7). *)
      t "logistic tile remainders" `Quick (fun () ->
          check_rows_remainders (Logistic_model.model ~n:61 ~dim:7 ()));
      (* q·Λ leaves a 1-column tail (dim = 9). *)
      t "gaussian tile remainders" `Quick (fun () ->
          check_rows_remainders (Gaussian_model.model ~dim:9 ()));
    ] )

let suites = suites @ [ rows_bitwise_suite ]
