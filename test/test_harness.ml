(* Tests for the experiment harness: the reproduced figures must have the
   paper's qualitative shape on a tiny instance, so regressions in the
   cost model or the runtimes show up in `dune runtest`, not only when
   reading bench output. *)

let t = Alcotest.test_case

let tiny_scale =
  {
    Figure5.default_scale with
    Figure5.batch_sizes = [ 1; 8; 64 ];
    n_data = 120;
    dim = 10;
    n_iter = 2;
  }

let points = lazy (Figure5.run ~scale:tiny_scale ())

let rate_exn points ~strategy ~batch =
  match Figure5.rate points ~strategy ~batch with
  | Some r -> r
  | None -> Alcotest.failf "missing point %s@%d" strategy batch

let test_figure5_complete () =
  let points = Lazy.force points in
  List.iter
    (fun strategy ->
      List.iter
        (fun batch ->
          let r = rate_exn points ~strategy ~batch in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d positive" strategy batch)
            true (r > 0.))
        tiny_scale.Figure5.batch_sizes)
    Figure5.strategies

let test_figure5_batched_scale () =
  (* Every batched strategy must gain at least 4x from batch 1 -> 64
     (the paper's headline: linear scaling while overhead dominates). *)
  let points = Lazy.force points in
  List.iter
    (fun strategy ->
      let r1 = rate_exn points ~strategy ~batch:1 in
      let r64 = rate_exn points ~strategy ~batch:64 in
      Alcotest.(check bool)
        (Printf.sprintf "%s scales (%.0f -> %.0f)" strategy r1 r64)
        true
        (r64 > 4. *. r1))
    [ "pc-xla-gpu"; "pc-xla-cpu"; "local-eager-gpu"; "local-eager-cpu"; "hybrid-cpu" ]

let test_figure5_flat_baselines () =
  let points = Lazy.force points in
  List.iter
    (fun strategy ->
      let r1 = rate_exn points ~strategy ~batch:1 in
      let r64 = rate_exn points ~strategy ~batch:64 in
      Alcotest.(check (float 1e-9)) (strategy ^ " flat") r1 r64)
    [ "eager-unbatched"; "stan" ]

let test_figure5_orderings () =
  let points = Lazy.force points in
  (* Paper: fully-fused autobatching beats eager local autobatching on the
     same device. *)
  List.iter
    (fun batch ->
      Alcotest.(check bool)
        (Printf.sprintf "pc-xla-gpu > local-eager-gpu at %d" batch)
        true
        (rate_exn points ~strategy:"pc-xla-gpu" ~batch
        > rate_exn points ~strategy:"local-eager-gpu" ~batch);
      Alcotest.(check bool)
        (Printf.sprintf "hybrid-cpu > local-eager-cpu at %d" batch)
        true
        (rate_exn points ~strategy:"hybrid-cpu" ~batch
        > rate_exn points ~strategy:"local-eager-cpu" ~batch))
    tiny_scale.Figure5.batch_sizes

let test_figure6_shape () =
  let stats = Figure6.run ~dim:12 ~batch_sizes:[ 1; 8; 32 ] ~n_iter:6 () in
  let find b =
    List.find (fun (p : Figure6.point) -> p.Figure6.batch = b) stats.Figure6.points
  in
  (* Batch of one has no synchronization waste. *)
  Alcotest.(check (float 1e-9)) "local util at z=1" 1. (find 1).Figure6.local_util;
  Alcotest.(check (float 1e-9)) "pc util at z=1" 1. (find 1).Figure6.pc_util;
  (* The paper's claim: pc recovers utilization local static leaves on the
     table, markedly so by a few dozen chains. *)
  List.iter
    (fun b ->
      let p = find b in
      Alcotest.(check bool)
        (Printf.sprintf "pc >= local at z=%d (%.3f vs %.3f)" b p.Figure6.pc_util
           p.Figure6.local_util)
        true
        (p.Figure6.pc_util >= p.Figure6.local_util))
    [ 8; 32 ];
  let p32 = find 32 in
  Alcotest.(check bool)
    (Printf.sprintf "pc recovers ≥1.5x at z=32 (%.3f vs %.3f)" p32.Figure6.pc_util
       p32.Figure6.local_util)
    true
    (p32.Figure6.pc_util > 1.5 *. p32.Figure6.local_util);
  Alcotest.(check bool) "local leaves a factor ≥2 at z=32" true
    (p32.Figure6.local_util < 0.5);
  (* Trajectory-length dispersion drives the waste. *)
  Alcotest.(check bool) "max/mean trajectory ratio > 1.5" true
    (stats.Figure6.max_grads_per_trajectory
    > 1.5 *. stats.Figure6.mean_grads_per_trajectory)

let test_ablation_masking_vs_gather () =
  let tbl = Ablations.masking_vs_gather ~dim:10 ~batch:8 ~n_iter:2 () in
  Alcotest.(check int) "three rows" 3 (List.length tbl.Ablations.rows);
  (* Masking issues more gradient lanes than it uses; gather issues
     exactly what it uses. *)
  match tbl.Ablations.rows with
  | [ mask_row; gather_row; adaptive_row ] ->
    let nth r i = List.nth r i in
    let useful_mask = int_of_string (nth mask_row 4) in
    let issued_mask = int_of_string (nth mask_row 5) in
    let useful_gather = int_of_string (nth gather_row 4) in
    let issued_gather = int_of_string (nth gather_row 5) in
    let useful_adaptive = int_of_string (nth adaptive_row 4) in
    let issued_adaptive = int_of_string (nth adaptive_row 5) in
    Alcotest.(check bool) "masking wastes lanes" true (issued_mask > useful_mask);
    Alcotest.(check int) "gather issues = useful" useful_gather issued_gather;
    Alcotest.(check int) "same useful work" useful_mask useful_gather;
    (* Adaptive sits between the two extremes. *)
    Alcotest.(check int) "adaptive same useful work" useful_mask useful_adaptive;
    Alcotest.(check bool) "adaptive wastes no more than masking" true
      (issued_adaptive <= issued_mask);
    Alcotest.(check bool) "adaptive issues at least gather" true
      (issued_adaptive >= issued_gather)
  | _ -> Alcotest.fail "unexpected table"

let test_ablation_schedulers () =
  let tbl = Ablations.schedulers ~dim:10 ~batch:8 ~n_iter:2 () in
  Alcotest.(check int) "three legacy heuristics" 3 (List.length Sched_policy.legacy);
  Alcotest.(check int) "one row per policy" 5 (List.length tbl.Ablations.rows);
  Alcotest.(check (list string)) "rows cover Sched_policy.all in order"
    (List.map Sched_policy.to_string Sched_policy.all)
    (List.map List.hd tbl.Ablations.rows)

let test_ablation_stack_opts () =
  let tbl = Ablations.stack_optimizations ~dim:10 ~batch:8 ~n_iter:2 () in
  Alcotest.(check int) "five variants" 5 (List.length tbl.Ablations.rows);
  (* Disabling the save-liveness filter must increase pushes. *)
  let pushes_of name =
    let row = List.find (fun r -> List.hd r = name) tbl.Ablations.rows in
    int_of_string (List.nth row 2)
  in
  Alcotest.(check bool) "O3 off pushes more" true
    (pushes_of "no-save-liveness (O3)" > pushes_of "all-opts")

let suites =
  [
    ( "harness",
      [
        t "figure 5 complete grid" `Slow test_figure5_complete;
        t "figure 5 batched strategies scale" `Slow test_figure5_batched_scale;
        t "figure 5 flat baselines" `Slow test_figure5_flat_baselines;
        t "figure 5 strategy orderings" `Slow test_figure5_orderings;
        t "figure 6 utilization shape" `Slow test_figure6_shape;
        t "ablation: masking vs gather" `Slow test_ablation_masking_vs_gather;
        t "ablation: schedulers" `Slow test_ablation_schedulers;
        t "ablation: stack optimizations" `Slow test_ablation_stack_opts;
      ] );
  ]

(* ---------- Batched_sampler ---------- *)

let test_sampler_moments_mode () =
  let model = Gaussian_model.model ~rho:0.4 ~dim:4 () in
  let s =
    Batched_sampler.run ~model ~chains:32 ~n_iter:60 ~n_burn:20 ()
  in
  Alcotest.(check int) "kept draws" (40 * 32) s.Batched_sampler.kept_draws;
  Alcotest.(check bool) "no ess in moments mode" true
    (Option.is_none s.Batched_sampler.ess);
  for d = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "mean[%d] ~ 0 (got %.3f)" d (Tensor.data s.Batched_sampler.mean).(d))
      true
      (Float.abs (Tensor.data s.Batched_sampler.mean).(d) < 0.25);
    Alcotest.(check bool)
      (Printf.sprintf "var[%d] ~ 1 (got %.3f)" d
         (Tensor.data s.Batched_sampler.variance).(d))
      true
      (Float.abs ((Tensor.data s.Batched_sampler.variance).(d) -. 1.) < 0.4)
  done

let test_sampler_samples_mode () =
  let model = Gaussian_model.model ~rho:0.4 ~dim:3 () in
  let s =
    Batched_sampler.run ~collect:`Samples ~model ~chains:6 ~n_iter:80 ~n_burn:20 ()
  in
  (match s.Batched_sampler.split_rhat with
  | None -> Alcotest.fail "expected rhat"
  | Some r ->
    Array.iteri
      (fun d v ->
        Alcotest.(check bool) (Printf.sprintf "rhat[%d] < 1.2 (got %.3f)" d v) true
          (v < 1.2))
      r);
  (match s.Batched_sampler.ess with
  | None -> Alcotest.fail "expected ess"
  | Some e ->
    Array.iter
      (fun v -> Alcotest.(check bool) "ess positive" true (v > 10.)) e);
  match s.Batched_sampler.samples with
  | None -> Alcotest.fail "expected samples"
  | Some rows ->
    Alcotest.(check int) "chains" 6 (Array.length rows);
    Alcotest.(check int) "iters" 80 (Array.length rows.(0))

let test_sampler_modes_agree_bitwise () =
  (* The same chain visits the same positions in both collection modes:
     trajectory-at-a-time driving only changes scheduling, not values. *)
  let model = Gaussian_model.model ~rho:0.4 ~dim:3 () in
  let m =
    Batched_sampler.run ~adapt:false ~model ~chains:3 ~n_iter:6 ~n_burn:1 ()
  in
  let s =
    Batched_sampler.run ~adapt:false ~collect:`Samples ~model ~chains:3 ~n_iter:6
      ~n_burn:1 ()
  in
  (* Compare via the final positions recoverable from the samples mode. *)
  ignore m;
  match s.Batched_sampler.samples with
  | None -> Alcotest.fail "expected samples"
  | Some rows ->
    let reg, key = Nuts_dsl.setup ~model () in
    ignore reg;
    let cfg =
      Nuts.default_config ~mass_minv:s.Batched_sampler.minv
        ~eps:s.Batched_sampler.eps ()
    in
    for c = 0 to 2 do
      let r =
        Nuts.sample_chain cfg ~model ~key ~member:c ~q0:(Tensor.zeros [| 3 |])
          ~n_iter:6
      in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d final position matches reference" c)
        true
        (Tensor.equal r.Nuts.final_q rows.(c).(5))
    done

let test_sampler_validation () =
  let model = Gaussian_model.model ~dim:2 () in
  Alcotest.check_raises "bad burn"
    (Invalid_argument "Batched_sampler.run: bad chain/iteration counts") (fun () ->
      ignore (Batched_sampler.run ~model ~chains:2 ~n_iter:5 ~n_burn:5 ()))

let sampler_suite =
  ( "batched-sampler",
    [
      t "moments mode" `Slow test_sampler_moments_mode;
      t "samples mode with diagnostics" `Slow test_sampler_samples_mode;
      t "modes agree bitwise with reference" `Quick test_sampler_modes_agree_bitwise;
      t "validation" `Quick test_sampler_validation;
    ] )

let suites = suites @ [ sampler_suite ]

(* ---------- the serving sweep (E5) ---------- *)

let test_serving_harness_smoke () =
  let stats =
    Serving.run ~dim:3 ~lanes:4 ~n_requests:6 ~max_iter:2 ~loads:[ 0.9 ]
      ~policies:[ "synchronous"; "fifo" ] ~closed_clients:0 ~seed:0xFEEDL ()
  in
  Alcotest.(check int) "one point per policy" 2 (List.length stats.Serving.points);
  List.iter
    (fun p ->
      Alcotest.(check int) "all complete" 6 p.Serving.completed;
      Alcotest.(check bool) "throughput positive" true (p.Serving.throughput > 0.);
      Alcotest.(check bool) "latency percentiles ordered" true
        (p.Serving.p50 <= p.Serving.p95 && p.Serving.p95 <= p.Serving.p99);
      Alcotest.(check bool) "sampled completions bitwise vs solo" true
        (p.Serving.verified > 0 && p.Serving.mismatches = 0))
    stats.Serving.points;
  let csv = Serving.to_csv stats in
  Alcotest.(check bool) "csv has header and rows" true
    (List.length (String.split_on_char '\n' csv) >= 4);
  Alcotest.check_raises "unknown policy"
    (Invalid_argument "Serving.run: unknown policy \"lifo\"") (fun () ->
      ignore (Serving.run ~n_requests:1 ~policies:[ "lifo" ] ()))

let suites = suites @ [ ("serve-harness", [ t "smoke" `Slow test_serving_harness_smoke ]) ]
