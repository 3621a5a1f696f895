(* Tests for the MCMC layer: leapfrog physics, diagnostics, dual
   averaging, HMC, and the reference NUTS sampler's statistical
   correctness. *)

let t = Alcotest.test_case

let gaussian dim = Gaussian_model.model ~rho:0.5 ~dim ()

(* ---------- leapfrog ---------- *)

let test_leapfrog_reversibility () =
  let m = gaussian 4 in
  let q = Tensor.of_list [ 0.3; -0.4; 0.8; 0.1 ] in
  let p = Tensor.of_list [ 1.; -0.5; 0.2; -0.7 ] in
  let q1, p1 = Leapfrog.steps ~grad:m.Model.grad ~n:7 ~eps:0.11 ~q ~p in
  (* Integrate back with negated momentum. *)
  let q2, p2 = Leapfrog.steps ~grad:m.Model.grad ~n:7 ~eps:0.11 ~q:q1 ~p:(Tensor.neg p1) in
  Alcotest.(check bool) "position returns" true
    (Tensor.allclose ~rtol:1e-9 ~atol:1e-9 q2 q);
  Alcotest.(check bool) "momentum negates" true
    (Tensor.allclose ~rtol:1e-9 ~atol:1e-9 (Tensor.neg p2) p)

let test_leapfrog_energy_conservation () =
  let m = gaussian 4 in
  let q = Tensor.of_list [ 0.3; -0.4; 0.8; 0.1 ] in
  let p = Tensor.of_list [ 1.; -0.5; 0.2; -0.7 ] in
  let h0 = -.Leapfrog.log_joint ~logp:m.Model.logp ~q ~p in
  let q1, p1 = Leapfrog.steps ~grad:m.Model.grad ~n:100 ~eps:0.01 ~q ~p in
  let h1 = -.Leapfrog.log_joint ~logp:m.Model.logp ~q:q1 ~p:p1 in
  Alcotest.(check bool)
    (Printf.sprintf "energy drift small: %g vs %g" h0 h1)
    true
    (Float.abs (h1 -. h0) < 1e-3);
  (* The error scales roughly as eps^2: a 10x larger step is much worse. *)
  let q2, p2 = Leapfrog.steps ~grad:m.Model.grad ~n:10 ~eps:0.1 ~q ~p in
  let h2 = -.Leapfrog.log_joint ~logp:m.Model.logp ~q:q2 ~p:p2 in
  Alcotest.(check bool) "order of accuracy" true
    (Float.abs (h2 -. h0) > Float.abs (h1 -. h0))

let test_leapfrog_bad_n () =
  let m = gaussian 2 in
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Leapfrog.steps: n must be positive") (fun () ->
      ignore
        (Leapfrog.steps ~grad:m.Model.grad ~n:0 ~eps:0.1 ~q:(Tensor.zeros [| 2 |])
           ~p:(Tensor.zeros [| 2 |])))

(* ---------- diagnostics ---------- *)

let test_mean_variance () =
  Alcotest.(check (float 1e-12)) "mean" 2. (Diagnostics.mean [| 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-12)) "variance" 1. (Diagnostics.variance [| 1.; 2.; 3. |]);
  Alcotest.(check (float 0.)) "variance single" 0. (Diagnostics.variance [| 5. |])

let test_ess () =
  let stream = Splitmix.Stream.create 3L in
  let n = 4000 in
  let iid = Array.init n (fun _ -> Splitmix.Stream.normal stream) in
  let e = Diagnostics.ess iid in
  Alcotest.(check bool)
    (Printf.sprintf "iid ESS ~ n (got %.0f)" e)
    true
    (e > 0.7 *. float_of_int n);
  (* A strongly autocorrelated AR(1) chain has a much smaller ESS. *)
  let ar = Array.make n 0. in
  for i = 1 to n - 1 do
    ar.(i) <- (0.95 *. ar.(i - 1)) +. (0.1 *. Splitmix.Stream.normal stream)
  done;
  let e_ar = Diagnostics.ess ar in
  Alcotest.(check bool)
    (Printf.sprintf "AR(1) ESS << n (got %.0f)" e_ar)
    true
    (e_ar < 0.2 *. float_of_int n)

let test_split_rhat () =
  let stream = Splitmix.Stream.create 4L in
  let chain () = Array.init 1000 (fun _ -> Splitmix.Stream.normal stream) in
  let same = [| chain (); chain (); chain (); chain () |] in
  let r = Diagnostics.split_rhat same in
  Alcotest.(check bool) (Printf.sprintf "converged rhat ~ 1 (got %.3f)" r) true
    (r < 1.05);
  let shifted =
    [| chain (); Array.map (fun x -> x +. 5.) (chain ()) |]
  in
  let r2 = Diagnostics.split_rhat shifted in
  Alcotest.(check bool) (Printf.sprintf "disagreeing chains rhat >> 1 (got %.3f)" r2)
    true (r2 > 1.5)

(* ---------- dual averaging + HMC ---------- *)

let test_dual_averaging_converges () =
  let m = gaussian 5 in
  let stream = Splitmix.Stream.create 11L in
  let q0 = Tensor.zeros [| 5 |] in
  let eps =
    Hmc.warmup_eps ~target_accept:0.8 ~n_warmup:400 ~model:m ~stream ~q0 ~eps0:1.
      ~n_leapfrog:8 ()
  in
  let r = Hmc.sample_chain { Hmc.eps; n_leapfrog = 8; minv = None } ~model:m ~stream ~q0 ~n_iter:400 in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance near target (eps %.3f, accept %.2f)" eps
       r.Hmc.accept_rate)
    true
    (Float.abs (r.Hmc.accept_rate -. 0.8) < 0.15)

let test_dual_averaging_monotone_response () =
  (* Feeding only rejections must shrink the step size; only acceptances
     must grow it. *)
  let da_low = Dual_averaging.create ~mu:(Stdlib.log 1.) () in
  for _ = 1 to 50 do
    Dual_averaging.update da_low ~accept_stat:0.
  done;
  Alcotest.(check bool) "rejections shrink eps" true
    (Dual_averaging.adapted_eps da_low < 0.5);
  let da_high = Dual_averaging.create ~mu:(Stdlib.log 1.) () in
  for _ = 1 to 50 do
    Dual_averaging.update da_high ~accept_stat:1.
  done;
  Alcotest.(check bool) "acceptances grow eps" true
    (Dual_averaging.adapted_eps da_high > 1.)

let test_hmc_posterior_moments () =
  let m = gaussian 3 in
  let stream = Splitmix.Stream.create 12L in
  let r =
    Hmc.sample_chain { Hmc.eps = 0.45; n_leapfrog = 7; minv = None } ~model:m ~stream
      ~q0:(Tensor.zeros [| 3 |]) ~n_iter:8000
  in
  let kept = Array.sub r.Hmc.samples 1000 7000 in
  let mean_t, var_t = Diagnostics.chain_moments kept in
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "mean[%d] ~ 0 (got %.3f)" i (Tensor.data mean_t).(i))
      true
      (Float.abs (Tensor.data mean_t).(i) < 0.15);
    Alcotest.(check bool)
      (Printf.sprintf "var[%d] ~ 1 (got %.3f)" i (Tensor.data var_t).(i))
      true
      (Float.abs ((Tensor.data var_t).(i) -. 1.) < 0.25)
  done

(* ---------- NUTS reference sampler ---------- *)

let test_find_reasonable_eps () =
  let m = gaussian 5 in
  let eps = Nuts.find_reasonable_eps ~model:m ~q0:(Tensor.zeros [| 5 |]) () in
  Alcotest.(check bool) (Printf.sprintf "eps sane (got %.4f)" eps) true
    (eps > 1e-3 && eps < 10.)

let test_nuts_counters_monotone () =
  let m = gaussian 3 in
  let key = Counter_rng.key 77L in
  let cfg = Nuts.default_config ~eps:0.4 () in
  let r = Nuts.sample_chain cfg ~model:m ~key ~member:0 ~q0:(Tensor.zeros [| 3 |]) ~n_iter:10 in
  Alcotest.(check bool) "counter advanced" true (r.Nuts.final_counter >= 20);
  Alcotest.(check int) "samples recorded" 10 (Array.length r.Nuts.samples);
  Alcotest.(check bool) "gradients counted" true (r.Nuts.grad_evals > 0);
  Array.iter
    (fun d -> Alcotest.(check bool) "depth within limit" true (d <= cfg.Nuts.max_depth))
    r.Nuts.depths

let test_nuts_deterministic () =
  let m = gaussian 3 in
  let key = Counter_rng.key 78L in
  let cfg = Nuts.default_config ~eps:0.4 () in
  let q0 = Tensor.zeros [| 3 |] in
  let a = Nuts.sample_chain cfg ~model:m ~key ~member:1 ~q0 ~n_iter:5 in
  let b = Nuts.sample_chain cfg ~model:m ~key ~member:1 ~q0 ~n_iter:5 in
  Alcotest.(check bool) "same member same chain" true
    (Tensor.equal a.Nuts.final_q b.Nuts.final_q);
  let c = Nuts.sample_chain cfg ~model:m ~key ~member:2 ~q0 ~n_iter:5 in
  Alcotest.(check bool) "different member different chain" false
    (Tensor.equal a.Nuts.final_q c.Nuts.final_q)

let test_nuts_posterior_moments () =
  (* Pool many independent short chains — exactly the batch-of-chains
     methodology the paper advocates. *)
  let m = gaussian 3 in
  let key = Counter_rng.key 79L in
  let q0 = Tensor.zeros [| 3 |] in
  let eps = Nuts.find_reasonable_eps ~model:m ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let n_chains = 20 and n_iter = 200 and n_burn = 50 in
  let acc_mean = Tensor.zeros [| 3 |] and acc_var = Tensor.zeros [| 3 |] in
  let kept = ref 0 in
  for member = 0 to n_chains - 1 do
    let r = Nuts.sample_chain cfg ~model:m ~key ~member ~q0 ~n_iter in
    for i = n_burn to n_iter - 1 do
      incr kept;
      let s = r.Nuts.samples.(i) in
      for d = 0 to 2 do
        (Tensor.data acc_mean).(d) <- (Tensor.data acc_mean).(d) +. (Tensor.data s).(d);
        (Tensor.data acc_var).(d) <-
          (Tensor.data acc_var).(d) +. ((Tensor.data s).(d) *. (Tensor.data s).(d))
      done
    done
  done;
  let nf = float_of_int !kept in
  for d = 0 to 2 do
    let mean = (Tensor.data acc_mean).(d) /. nf in
    let var = ((Tensor.data acc_var).(d) /. nf) -. (mean *. mean) in
    Alcotest.(check bool) (Printf.sprintf "mean[%d] ~ 0 (got %.3f)" d mean) true
      (Float.abs mean < 0.12);
    Alcotest.(check bool) (Printf.sprintf "var[%d] ~ 1 (got %.3f)" d var) true
      (Float.abs (var -. 1.) < 0.25)
  done

let test_nuts_rhat_across_chains () =
  let m = gaussian 2 in
  let key = Counter_rng.key 80L in
  let q0 = Tensor.zeros [| 2 |] in
  let cfg = Nuts.default_config ~eps:0.5 () in
  let chains =
    Array.init 4 (fun member ->
        let r = Nuts.sample_chain cfg ~model:m ~key ~member ~q0 ~n_iter:200 in
        Diagnostics.column (Array.sub r.Nuts.samples 50 150) 0)
  in
  let r = Diagnostics.split_rhat chains in
  Alcotest.(check bool) (Printf.sprintf "NUTS chains mix (rhat %.3f)" r) true (r < 1.1)

let suites =
  [
    ( "leapfrog",
      [
        t "reversibility" `Quick test_leapfrog_reversibility;
        t "energy conservation" `Quick test_leapfrog_energy_conservation;
        t "input validation" `Quick test_leapfrog_bad_n;
      ] );
    ( "diagnostics",
      [
        t "mean and variance" `Quick test_mean_variance;
        t "effective sample size" `Quick test_ess;
        t "split R-hat" `Quick test_split_rhat;
      ] );
    ( "hmc",
      [
        t "dual averaging converges" `Quick test_dual_averaging_converges;
        t "dual averaging responds" `Quick test_dual_averaging_monotone_response;
        t "posterior moments" `Slow test_hmc_posterior_moments;
      ] );
    ( "nuts-reference",
      [
        t "find_reasonable_eps" `Quick test_find_reasonable_eps;
        t "counters and traces" `Quick test_nuts_counters_monotone;
        t "determinism by member" `Quick test_nuts_deterministic;
        t "posterior moments (many chains)" `Slow test_nuts_posterior_moments;
        t "chains mix (R-hat)" `Slow test_nuts_rhat_across_chains;
      ] );
  ]

(* ---------- iterative NUTS ---------- *)

let test_nuts_iter_matches_recursive_statistically () =
  (* The hand-unrolled sampler (paper §5's manual alternative to
     autobatching) must agree with the recursive one in distribution. *)
  let m = gaussian 3 in
  let q0 = Tensor.zeros [| 3 |] in
  let eps = Nuts.find_reasonable_eps ~model:m ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let stream = Splitmix.Stream.create 31L in
  let icfg = Nuts_iter.config_of_nuts cfg in
  let n_iter = 300 and n_burn = 60 and n_chains = 6 in
  let moments sampler =
    let acc = Array.make 3 0. and acc2 = Array.make 3 0. and kept = ref 0 in
    for chain = 0 to n_chains - 1 do
      let samples = sampler chain in
      for i = n_burn to n_iter - 1 do
        incr kept;
        let s = Tensor.data samples.(i) in
        for d = 0 to 2 do
          acc.(d) <- acc.(d) +. s.(d);
          acc2.(d) <- acc2.(d) +. (s.(d) *. s.(d))
        done
      done
    done;
    let nf = float_of_int !kept in
    Array.init 3 (fun d ->
        let mean = acc.(d) /. nf in
        (mean, (acc2.(d) /. nf) -. (mean *. mean)))
  in
  let iter_moments =
    moments (fun _ ->
        (Nuts_iter.sample_chain icfg ~model:m ~stream ~q0 ~n_iter).Nuts_iter.samples)
  in
  let key = Counter_rng.key 32L in
  let rec_moments =
    moments (fun chain ->
        (Nuts.sample_chain cfg ~model:m ~key ~member:chain ~q0 ~n_iter).Nuts.samples)
  in
  Array.iteri
    (fun d (mean_i, var_i) ->
      let mean_r, var_r = rec_moments.(d) in
      Alcotest.(check bool)
        (Printf.sprintf "means agree dim %d (%.3f vs %.3f)" d mean_i mean_r)
        true
        (Float.abs (mean_i -. mean_r) < 0.15);
      Alcotest.(check bool)
        (Printf.sprintf "vars agree dim %d (%.3f vs %.3f)" d var_i var_r)
        true
        (Float.abs (var_i -. var_r) < 0.3))
    iter_moments

let test_nuts_iter_moves_and_counts () =
  let m = gaussian 4 in
  let q0 = Tensor.zeros [| 4 |] in
  let stream = Splitmix.Stream.create 33L in
  let icfg = { Nuts_iter.eps = 0.4; max_depth = 8; leaf_steps = 4; delta_max = 1000. } in
  let r = Nuts_iter.sample_chain icfg ~model:m ~stream ~q0 ~n_iter:50 in
  Alcotest.(check bool) "chain moved" false (Tensor.equal r.Nuts_iter.final_q q0);
  Alcotest.(check bool) "gradients counted" true (r.Nuts_iter.grad_evals > 50)

let iter_suite =
  ( "nuts-iterative",
    [
      t "statistically matches recursive" `Slow
        test_nuts_iter_matches_recursive_statistically;
      t "moves and counts" `Quick test_nuts_iter_moves_and_counts;
    ] )

let suites = suites @ [ iter_suite ]

(* ---------- autocovariance sanity ---------- *)

let test_autocovariance_ar1 () =
  (* For AR(1) with coefficient phi, autocorrelation at lag k is phi^k. *)
  let stream = Splitmix.Stream.create 55L in
  let n = 60_000 and phi = 0.6 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (phi *. xs.(i - 1)) +. Splitmix.Stream.normal stream
  done;
  let c0 = Diagnostics.autocovariance xs 0 in
  List.iter
    (fun k ->
      let rho = Diagnostics.autocovariance xs k /. c0 in
      Alcotest.(check bool)
        (Printf.sprintf "rho(%d) ~ %.3f (got %.3f)" k (phi ** float_of_int k) rho)
        true
        (Float.abs (rho -. (phi ** float_of_int k)) < 0.05))
    [ 1; 2; 3 ];
  Alcotest.check_raises "bad lag"
    (Invalid_argument "Diagnostics.autocovariance: bad lag") (fun () ->
      ignore (Diagnostics.autocovariance xs n))

let autocov_suite =
  ("autocovariance", [ t "AR(1) decay" `Quick test_autocovariance_ar1 ])

let suites = suites @ [ autocov_suite ]
