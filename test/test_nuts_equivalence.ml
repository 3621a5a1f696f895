(* The repository's central correctness anchor (DESIGN.md A4/E4): the
   reference recursive NUTS sampler, the local static VM and the
   program-counter VM must produce *bitwise identical* chains — positions
   and RNG draw counters — for every batch member, on both evaluation
   models, under every runtime configuration. *)

let t = Alcotest.test_case

let setup model =
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  (reg, key, q0, eps, cfg, prog)

let check_equivalence ?(options = Lower_stack.default_options) ~model ~chains ~n_iter
    run_label runner =
  let reg, key, q0, eps, cfg, prog = setup model in
  let compiled =
    Autobatch.compile ~registry:reg ~options
      ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:chains () in
  let outputs = runner compiled batch in
  let q_out = List.nth outputs 0 and cnt_out = List.nth outputs 3 in
  for member = 0 to chains - 1 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
    let q_vm = Tensor.slice_row q_out member in
    Alcotest.(check bool)
      (Printf.sprintf "%s: member %d position bitwise equal" run_label member)
      true
      (Tensor.equal r.Nuts.final_q q_vm);
    Alcotest.(check (float 0.))
      (Printf.sprintf "%s: member %d counter equal" run_label member)
      (float_of_int r.Nuts.final_counter)
      (Tensor.data cnt_out).(member)
  done

let gaussian = Gaussian_model.model ~rho:0.7 ~dim:8 ()
let logistic = Logistic_model.model ~n:100 ~dim:6 ()

let test_pc_gaussian () =
  check_equivalence ~model:gaussian ~chains:6 ~n_iter:8 "pc/gaussian"
    (fun compiled batch -> Autobatch.run_pc compiled ~batch)

let test_local_gaussian () =
  check_equivalence ~model:gaussian ~chains:6 ~n_iter:8 "local/gaussian"
    (fun compiled batch -> Autobatch.run_local compiled ~batch)

let test_pc_logistic () =
  check_equivalence ~model:logistic ~chains:4 ~n_iter:5 "pc/logistic"
    (fun compiled batch -> Autobatch.run_pc compiled ~batch)

let test_local_logistic () =
  check_equivalence ~model:logistic ~chains:4 ~n_iter:5 "local/logistic"
    (fun compiled batch -> Autobatch.run_local compiled ~batch)

let test_local_gather_style () =
  check_equivalence ~model:gaussian ~chains:5 ~n_iter:5 "local-gather/gaussian"
    (fun compiled batch ->
      Autobatch.run_local
        ~config:{ Local_vm.default_config with style = Local_vm.Gather_scatter }
        compiled ~batch)

let test_pc_schedulers () =
  List.iter
    (fun sched ->
      check_equivalence ~model:gaussian ~chains:4 ~n_iter:4
        ("pc-" ^ Sched_policy.to_string sched)
        (fun compiled batch ->
          Autobatch.run_pc ~config:{ Pc_vm.default_config with sched } compiled ~batch))
    Sched_policy.all

let test_pc_without_optimizations () =
  check_equivalence
    ~options:{ Lower_stack.detect_temporaries = false; save_live_only = false }
    ~model:gaussian ~chains:4 ~n_iter:4 "pc-noopt"
    (fun compiled batch -> Autobatch.run_pc compiled ~batch)

let test_pc_naive_stack_modes () =
  check_equivalence ~model:gaussian ~chains:4 ~n_iter:4 "pc-naive-writes"
    (fun compiled batch ->
      Autobatch.run_pc
        ~config:
          { Pc_vm.default_config with naive_stack_writes = true; top_cache = false }
        compiled ~batch)

let test_unbatched_eager_baseline () =
  check_equivalence ~model:gaussian ~chains:3 ~n_iter:4 "unbatched"
    (fun compiled batch -> Autobatch.run_unbatched compiled ~batch)

let test_moment_accumulators_consistent () =
  (* sum_q / sum_qsq from the program equal recomputing them from the
     reference sampler's per-iteration positions. *)
  let model = gaussian in
  let reg, key, q0, eps, cfg, prog = setup model in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let n_iter = 7 and n_burn = 3 in
  let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn ~batch:3 () in
  let outputs = Autobatch.run_pc compiled ~batch in
  for member = 0 to 2 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
    let expect_sum = ref (Tensor.zeros [| model.Model.dim |]) in
    for i = n_burn to n_iter - 1 do
      expect_sum := Tensor.add !expect_sum r.Nuts.samples.(i)
    done;
    let got = Tensor.slice_row (List.nth outputs 1) member in
    Alcotest.(check bool)
      (Printf.sprintf "member %d sum_q matches reference" member)
      true
      (Tensor.allclose ~rtol:1e-12 ~atol:1e-12 got !expect_sum)
  done

let suites =
  [
    ( "nuts-equivalence",
      [
        t "pc VM = reference (gaussian)" `Quick test_pc_gaussian;
        t "local VM = reference (gaussian)" `Quick test_local_gaussian;
        t "pc VM = reference (logistic)" `Quick test_pc_logistic;
        t "local VM = reference (logistic)" `Quick test_local_logistic;
        t "gather/scatter style" `Quick test_local_gather_style;
        t "all pc schedulers" `Quick test_pc_schedulers;
        t "optimizations disabled" `Quick test_pc_without_optimizations;
        t "naive stack writes" `Quick test_pc_naive_stack_modes;
        t "unbatched eager baseline" `Quick test_unbatched_eager_baseline;
        t "moment accumulators" `Quick test_moment_accumulators_consistent;
      ] );
  ]

(* ---------- multinomial variant ---------- *)

let setup_variant variant model =
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~variant ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  (reg, key, q0, eps, cfg, prog)

let check_variant_equivalence variant ~model ~chains ~n_iter label runner =
  let reg, key, q0, eps, cfg, prog = setup_variant variant model in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:chains () in
  let outputs = runner compiled batch in
  for member = 0 to chains - 1 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
    Alcotest.(check bool)
      (Printf.sprintf "%s: member %d bitwise equal" label member)
      true
      (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.nth outputs 0) member));
    Alcotest.(check (float 0.))
      (Printf.sprintf "%s: member %d counter" label member)
      (float_of_int r.Nuts.final_counter)
      (Tensor.data (List.nth outputs 3)).(member)
  done

let test_multinomial_pc () =
  check_variant_equivalence Nuts.Multinomial ~model:gaussian ~chains:5 ~n_iter:6
    "multinomial/pc" (fun compiled batch -> Autobatch.run_pc compiled ~batch)

let test_multinomial_local () =
  check_variant_equivalence Nuts.Multinomial ~model:gaussian ~chains:5 ~n_iter:6
    "multinomial/local" (fun compiled batch -> Autobatch.run_local compiled ~batch)

let test_multinomial_logistic () =
  check_variant_equivalence Nuts.Multinomial ~model:logistic ~chains:3 ~n_iter:4
    "multinomial/logistic" (fun compiled batch -> Autobatch.run_pc compiled ~batch)

let test_multinomial_differs_from_slice () =
  (* The two variants are different samplers: same seed, different chains. *)
  let model = gaussian in
  let _, key, q0, eps, _, _ = setup_variant Nuts.Slice model in
  let slice_cfg = Nuts.default_config ~eps () in
  let multi_cfg = Nuts.default_config ~variant:Nuts.Multinomial ~eps () in
  let a = Nuts.sample_chain slice_cfg ~model ~key ~member:0 ~q0 ~n_iter:5 in
  let b = Nuts.sample_chain multi_cfg ~model ~key ~member:0 ~q0 ~n_iter:5 in
  Alcotest.(check bool) "variants differ" false (Tensor.equal a.Nuts.final_q b.Nuts.final_q)

let test_multinomial_posterior_moments () =
  (* The multinomial sampler targets the same posterior. *)
  let model = Gaussian_model.model ~rho:0.5 ~dim:3 () in
  let key = Counter_rng.key 91L in
  let q0 = Tensor.zeros [| 3 |] in
  (* Half the Algorithm-4 step: at the stability-limit step size both
     variants' variance estimates converge very slowly (heavy
     autocorrelation), which is not what this test is about. *)
  let eps = 0.5 *. Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~variant:Nuts.Multinomial ~eps () in
  let acc = Array.make 3 0. and acc2 = Array.make 3 0. and kept = ref 0 in
  for member = 0 to 11 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter:200 in
    for i = 50 to 199 do
      incr kept;
      let s = Tensor.data r.Nuts.samples.(i) in
      for d = 0 to 2 do
        acc.(d) <- acc.(d) +. s.(d);
        acc2.(d) <- acc2.(d) +. (s.(d) *. s.(d))
      done
    done
  done;
  let nf = float_of_int !kept in
  for d = 0 to 2 do
    let mean = acc.(d) /. nf in
    let var = (acc2.(d) /. nf) -. (mean *. mean) in
    Alcotest.(check bool) (Printf.sprintf "mean[%d] ~ 0 (got %.3f)" d mean) true
      (Float.abs mean < 0.12);
    Alcotest.(check bool) (Printf.sprintf "var[%d] ~ 1 (got %.3f)" d var) true
      (Float.abs (var -. 1.) < 0.25)
  done

let multinomial_suite =
  ( "nuts-multinomial",
    [
      t "pc VM = reference" `Quick test_multinomial_pc;
      t "local VM = reference" `Quick test_multinomial_local;
      t "logistic regression" `Quick test_multinomial_logistic;
      t "differs from slice variant" `Quick test_multinomial_differs_from_slice;
      t "posterior moments" `Slow test_multinomial_posterior_moments;
    ] )

let suites = suites @ [ multinomial_suite ]

(* ---------- mass matrix ---------- *)

let aniso_model =
  Gaussian_model.model ~rho:0.3 ~scales:[| 0.2; 1.; 5.; 0.5; 2. |] ~dim:5 ()

let test_mass_matrix_equivalence () =
  (* Bitwise reference/VM equivalence with a non-trivial inverse mass. *)
  let model = aniso_model in
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| 5 |] in
  let minv = Tensor.of_list [ 0.04; 1.; 25.; 0.25; 4. ] in
  let eps = 0.3 in
  let cfg = Nuts.default_config ~mass_minv:minv ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let chains = 4 and n_iter = 6 in
  let batch = Nuts_dsl.inputs ~minv ~q0 ~eps ~n_iter ~n_burn:0 ~batch:chains () in
  List.iter
    (fun (label, outputs) ->
      for member = 0 to chains - 1 do
        let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
        Alcotest.(check bool)
          (Printf.sprintf "%s: member %d bitwise equal (mass)" label member)
          true
          (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.nth outputs 0) member))
      done)
    [
      ("pc", Autobatch.run_pc compiled ~batch);
      ("local", Autobatch.run_local compiled ~batch);
    ]

let test_identity_mass_is_bitwise_identity () =
  (* Explicit ones = the no-mass configuration, exactly. *)
  let model = gaussian in
  let _, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let eps = 0.3 in
  let plain = Nuts.default_config ~eps () in
  let ones = Nuts.default_config ~mass_minv:(Tensor.ones [| model.Model.dim |]) ~eps () in
  let a = Nuts.sample_chain plain ~model ~key ~member:0 ~q0 ~n_iter:6 in
  let b = Nuts.sample_chain ones ~model ~key ~member:0 ~q0 ~n_iter:6 in
  Alcotest.(check bool) "bitwise identical" true (Tensor.equal a.Nuts.final_q b.Nuts.final_q)

let test_warmup_recovers_scales () =
  (* On the anisotropic Gaussian the adapted inverse mass should track the
     marginal variances (0.04, 1, 25, 0.25, 4). *)
  let model = aniso_model in
  let q0 = Tensor.zeros [| 5 |] in
  let w = Warmup.run ~n_window:400 ~model ~q0 () in
  Alcotest.(check bool) "eps sane" true (w.Warmup.eps > 1e-4 && w.Warmup.eps < 10.);
  let truth = [| 0.04; 1.; 25.; 0.25; 4. |] in
  Array.iteri
    (fun i target ->
      let got = (Tensor.data w.Warmup.minv).(i) in
      Alcotest.(check bool)
        (Printf.sprintf "minv[%d] ~ %.2f (got %.3f)" i target got)
        true
        (got > target /. 4. && got < target *. 4.))
    truth

let test_mass_matrix_improves_conditioning () =
  (* With the adapted metric, NUTS needs shallower trees on the
     anisotropic target than with the identity. *)
  let model = aniso_model in
  let q0 = Tensor.zeros [| 5 |] in
  let key = Counter_rng.key 123L in
  let w = Warmup.run ~model ~q0 () in
  let with_mass =
    Nuts.sample_chain
      (Nuts.default_config ~mass_minv:w.Warmup.minv ~eps:w.Warmup.eps ())
      ~model ~key ~member:0 ~q0:w.Warmup.q ~n_iter:60
  in
  let eps_id =
    Hmc.warmup_eps ~model ~stream:(Splitmix.Stream.create 5L) ~q0
      ~eps0:(Nuts.find_reasonable_eps ~model ~q0 ()) ~n_leapfrog:4 ()
  in
  let identity =
    Nuts.sample_chain (Nuts.default_config ~eps:eps_id ()) ~model ~key ~member:0
      ~q0:w.Warmup.q ~n_iter:60
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer gradients with adapted mass (%d vs %d)"
       with_mass.Nuts.grad_evals identity.Nuts.grad_evals)
    true
    (with_mass.Nuts.grad_evals < identity.Nuts.grad_evals)

let mass_suite =
  ( "nuts-mass-matrix",
    [
      t "bitwise equivalence with mass" `Quick test_mass_matrix_equivalence;
      t "identity mass is exact" `Quick test_identity_mass_is_bitwise_identity;
      t "warmup recovers scales" `Slow test_warmup_recovers_scales;
      t "adapted mass reduces gradients" `Slow test_mass_matrix_improves_conditioning;
    ] )

let suites = suites @ [ mass_suite ]

(* ---------- HMC in the DSL ---------- *)

let test_hmc_dsl_no_stacks () =
  (* A program with calls and loops but no recursion: the compiler must
     give it zero stacked variables (paper §3's key consequence). *)
  let model = gaussian in
  let reg, _ = Nuts_dsl.setup ~model () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Hmc_dsl.input_shapes ~model)
      (Hmc_dsl.program ())
  in
  let _, _, stacked = Stack_ir.stats compiled.Autobatch.stack in
  Alcotest.(check int) "no stacked variables" 0 stacked

let test_hmc_dsl_bitwise () =
  let model = gaussian in
  let reg, key = Nuts_dsl.setup ~model () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Hmc_dsl.input_shapes ~model)
      (Hmc_dsl.program ())
  in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let eps = 0.25 and n_iter = 12 and n_burn = 4 and chains = 5 in
  let batch = Hmc_dsl.inputs ~q0 ~eps ~n_iter ~n_burn ~batch:chains () in
  List.iter
    (fun (label, outputs) ->
      for member = 0 to chains - 1 do
        let r =
          Hmc_dsl.reference_chain ~model ~key ~member ~q0 ~eps ~n_iter ~n_burn ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: hmc member %d q bitwise" label member)
          true
          (Tensor.equal r.Hmc_dsl.final_q (Tensor.slice_row (List.nth outputs 0) member));
        Alcotest.(check bool)
          (Printf.sprintf "%s: hmc member %d sum_q bitwise" label member)
          true
          (Tensor.equal r.Hmc_dsl.sum_q (Tensor.slice_row (List.nth outputs 1) member));
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: hmc member %d accepts" label member)
          r.Hmc_dsl.accepts
          (Tensor.data (List.nth outputs 4)).(member);
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: hmc member %d counter" label member)
          (float_of_int r.Hmc_dsl.final_counter)
          (Tensor.data (List.nth outputs 3)).(member)
      done)
    [
      ("pc", Autobatch.run_pc compiled ~batch);
      ("local", Autobatch.run_local compiled ~batch);
    ]

let test_hmc_dsl_posterior () =
  let model = Gaussian_model.model ~rho:0.4 ~dim:3 () in
  let reg, _ = Nuts_dsl.setup ~model () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Hmc_dsl.input_shapes ~model)
      (Hmc_dsl.program ())
  in
  let q0 = Tensor.zeros [| 3 |] in
  let chains = 24 and n_iter = 500 and n_burn = 100 in
  let batch = Hmc_dsl.inputs ~q0 ~eps:0.3 ~n_iter ~n_burn ~batch:chains () in
  let outputs = Autobatch.run_pc compiled ~batch in
  let kept = float_of_int ((n_iter - n_burn) * chains) in
  let mean = Tensor.mul_scalar (Tensor.sum ~axis:0 (List.nth outputs 1)) (1. /. kept) in
  let ex2 = Tensor.mul_scalar (Tensor.sum ~axis:0 (List.nth outputs 2)) (1. /. kept) in
  let var = Tensor.sub ex2 (Tensor.square mean) in
  for d = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "hmc mean[%d] ~ 0 (got %.3f)" d (Tensor.data mean).(d))
      true
      (Float.abs (Tensor.data mean).(d) < 0.15);
    Alcotest.(check bool)
      (Printf.sprintf "hmc var[%d] ~ 1 (got %.3f)" d (Tensor.data var).(d))
      true
      (Float.abs ((Tensor.data var).(d) -. 1.) < 0.3)
  done;
  (* Acceptance should be healthy at this step size. *)
  let total_accepts = Tensor.item (Tensor.sum (List.nth outputs 4)) in
  let rate = total_accepts /. float_of_int (n_iter * chains) in
  Alcotest.(check bool) (Printf.sprintf "acceptance sane (%.2f)" rate) true
    (rate > 0.5 && rate < 1.0)

let hmc_dsl_suite =
  ( "hmc-dsl",
    [
      t "non-recursive => no stacks" `Quick test_hmc_dsl_no_stacks;
      t "bitwise vs reference (pc/local VMs)" `Quick test_hmc_dsl_bitwise;
      t "posterior moments" `Slow test_hmc_dsl_posterior;
    ] )

let suites = suites @ [ hmc_dsl_suite ]
