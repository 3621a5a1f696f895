(* Benchmark harness.

   All run by `dune exec bench/main.exe`:

   1. Bechamel micro-benchmarks (real wall-clock, OLS-estimated time/run)
      of the substrate and both autobatching runtimes.
   2. The paper-figure harnesses (Figure 5, Figure 6) and the design
      ablations (A1-A3), printed as the same series the paper plots.
   3. The gates on the simulated clock (serve, resil, observe, fuse,
      sched, tenant, eff, regress).

   Pass a subset of
   [micro|figure5|figure6|ablations|serve|resil|observe|fuse|sched|tenant|eff|regress]
   as argv to run only those stages (default: all, with bench-sized
   parameters). Every stage prints a closing host-cost line
   (wall/CPU/alloc/GC, from Obs_wall).
   [--seed N] anywhere in argv reseeds every stochastic stage. *)

open Bechamel
open Toolkit

(* ---------- shared fixtures ---------- *)

let fib_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

let fib_compiled = Autobatch.compile ~input_shapes:[ Shape.scalar ] fib_program

let fib_batch =
  [ Tensor.init [| 32 |] (fun i -> float_of_int (4 + (i.(0) mod 8))) ]

let nuts_fixture =
  lazy
    (let model = Gaussian_model.model ~dim:20 () in
     let reg, _ = Nuts_dsl.setup ~model () in
     let q0 = Tensor.zeros [| 20 |] in
     let eps = Nuts.find_reasonable_eps ~model ~q0 () in
     let cfg = Nuts.default_config ~eps () in
     let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
     let compiled =
       Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
     in
     let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter:1 ~n_burn:0 ~batch:16 () in
     (compiled, batch))

(* ---------- micro benchmarks ---------- *)

let tensor_tests =
  let a = Tensor.init [| 64; 64 |] (fun i -> float_of_int ((i.(0) * 7) + i.(1)) /. 100.) in
  let b = Tensor.init [| 64; 64 |] (fun i -> float_of_int (i.(0) - (3 * i.(1))) /. 50.) in
  let v = Tensor.init [| 4096 |] (fun i -> float_of_int i.(0)) in
  let mask = Array.init 256 (fun i -> i mod 3 = 0) in
  let rows = Tensor.init [| 256; 64 |] (fun i -> float_of_int (i.(0) + i.(1))) in
  let dst = Tensor.copy rows in
  let spd =
    (* A well-conditioned SPD matrix for the Cholesky benchmark. *)
    Tensor.add
      (Tensor.mul_scalar (Tensor.add a (Tensor.transpose a)) 0.01)
      (Tensor.mul_scalar (Tensor.eye 64) 100.)
  in
  (* The kernels of NUTS on logistic regression at bench/e2e scale (32
     chains, 250 data points, 20 features): the two products of
     grad/logp, the row-broadcast [mul z y], a per-lane scale and a
     per-lane select. *)
  let fill s k = Tensor.init s (fun i -> Stdlib.sin (float_of_int ((i.(0) * k) + i.(1)))) in
  let betas = fill [| 32; 20 |] 3 and xt = fill [| 20; 250 |] 5 in
  let z = fill [| 32; 250 |] 7 and x = fill [| 250; 20 |] 11 in
  let y = Tensor.init [| 250 |] (fun i -> float_of_int (i.(0) mod 2)) in
  let lane = fill [| 32; 1 |] 13 in
  let cond = Tensor.init [| 32; 1 |] (fun i -> if i.(0) mod 3 = 0 then 1. else 0.) in
  Test.make_grouped ~name:"tensor"
    [
      Test.make ~name:"matmul-64x64" (Staged.stage (fun () -> Tensor.matmul a b));
      Test.make ~name:"matmul-32x20x250" (Staged.stage (fun () -> Tensor.matmul betas xt));
      Test.make ~name:"matmul-32x250x20" (Staged.stage (fun () -> Tensor.matmul z x));
      Test.make ~name:"mul-row-32x250" (Staged.stage (fun () -> Tensor.mul z y));
      Test.make ~name:"mul-lane-32x20" (Staged.stage (fun () -> Tensor.mul betas lane));
      Test.make ~name:"where-lane-32x20"
        (Staged.stage (fun () -> Tensor.where cond betas lane));
      Test.make ~name:"elementwise-add-4k" (Staged.stage (fun () -> Tensor.add v v));
      Test.make ~name:"masked-blit-256x64"
        (Staged.stage (fun () -> Tensor.blit_rows_masked ~mask ~src:rows ~dst));
      Test.make ~name:"cholesky-64" (Staged.stage (fun () -> Cholesky.factor spd));
    ]

let stack_tests =
  let s = Stacked.create ~z:256 ~elem:[| 32 |] () in
  let mask = Array.init 256 (fun i -> i mod 2 = 0) in
  Test.make_grouped ~name:"stacked"
    [
      Test.make ~name:"push-pop-256x32"
        (Staged.stage (fun () ->
             Stacked.push s ~mask;
             Stacked.pop s ~mask));
    ]

let vm_tests =
  Test.make_grouped ~name:"vm"
    [
      Test.make ~name:"fib-local-z32"
        (Staged.stage (fun () -> Autobatch.run_local fib_compiled ~batch:fib_batch));
      Test.make ~name:"fib-pc-z32"
        (Staged.stage (fun () -> Autobatch.run_pc fib_compiled ~batch:fib_batch));
      Test.make ~name:"fib-unbatched-z32"
        (Staged.stage (fun () -> Autobatch.run_unbatched fib_compiled ~batch:fib_batch));
      Test.make ~name:"compile-fib"
        (Staged.stage (fun () ->
             Autobatch.compile ~input_shapes:[ Shape.scalar ] fib_program));
    ]

let nuts_tests =
  let compiled, batch = Lazy.force nuts_fixture in
  Test.make_grouped ~name:"nuts"
    [
      Test.make ~name:"trajectory-pc-z16"
        (Staged.stage (fun () -> Autobatch.run_pc compiled ~batch));
      Test.make ~name:"trajectory-local-z16"
        (Staged.stage (fun () -> Autobatch.run_local compiled ~batch));
    ]

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (real wall clock) ==";
  let tests =
    Test.make_grouped ~name:"autobatch"
      [ tensor_tests; stack_tests; vm_tests; nuts_tests ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan
        in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result) in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Table.print_stdout
    ~header:[ "benchmark"; "time/run"; "r2" ]
    ~rows:
      (List.map
         (fun (name, ns, r2) ->
           [ name; Table.si (ns /. 1e9) ^ "s"; Printf.sprintf "%.3f" r2 ])
         rows);
  print_newline ()

(* ---------- figures and ablations ---------- *)

let run_figure5 ?seed () =
  (* Bench-sized: the tuned sampler takes deep trees on this model, so the
     full default sweep belongs to the CLI (`experiments figure5`). *)
  let scale =
    {
      Figure5.default_scale with
      Figure5.batch_sizes = [ 1; 4; 16; 64; 256 ];
      n_data = 250;
      dim = 20;
      n_iter = 1;
    }
  in
  let scale =
    match seed with None -> scale | Some s -> { scale with Figure5.seed = s }
  in
  Figure5.print (Figure5.run ~scale ());
  print_newline ()

let run_figure6 ?seed () =
  let stats =
    Figure6.run ~dim:50 ~batch_sizes:[ 1; 2; 4; 8; 16; 32; 64; 128 ] ?seed ()
  in
  Figure6.print stats;
  print_newline ()

let run_ablations ?seed () =
  Ablations.print
    ~title:"Ablation A1: masking vs gather/scatter (local static, CPU eager)"
    (Ablations.masking_vs_gather ?seed ());
  print_newline ();
  Ablations.print
    ~title:"Ablation A2: block scheduling heuristics (program counter, GPU fused)"
    (Ablations.schedulers ?seed ());
  print_newline ();
  Ablations.print
    ~title:"Ablation A3: stack compiler optimizations O2-O5 (program counter, GPU fused)"
    (Ablations.stack_optimizations ?seed ());
  print_newline ()

(* A stage whose document is simulated-clock deterministic at the default
   seed commits it as a regression baseline: the first run writes [path],
   every later run must reproduce it or the stage fails. *)
let check_baseline ~stage ~path doc =
  if not (Sys.file_exists path) then begin
    Obs_report.write ~path doc;
    Printf.printf "%s: wrote new baseline %s\n\n" stage path
  end
  else begin
    let committed = In_channel.with_open_text path In_channel.input_all in
    let same =
      match Obs_json.of_string committed with
      | Ok old -> Obs_json.to_string old = Obs_json.to_string doc
      | Error _ -> false
    in
    if same then Printf.printf "%s: matches committed %s\n\n" stage path
    else begin
      prerr_endline
        (stage ^ " stage failed: output drifted from committed " ^ path
       ^ " (delete the file and rerun to re-baseline intentionally)");
      exit 1
    end
  end

(* The E5 claim, checked on the sweep itself: at every offered load,
   continuous FIFO keeps more lanes live than the fixed-batch regime,
   and every point's seeded sample of completions is bitwise equal to
   running those requests alone. *)
let serve_claim_failures (stats : Serving.stats) =
  let occupancy policy load =
    List.find_map
      (fun (p : Serving.point) ->
        if p.mode = "open" && p.policy = policy && p.load = load then Some p.mean_occupancy
        else None)
      stats.Serving.points
  in
  List.filter_map
    (fun (p : Serving.point) ->
      if p.mismatches > 0 || p.verified = 0 then
        Some
          (Printf.sprintf "%s/%s load %.2f: %d of %d sampled completions differ from solo"
             p.mode p.policy p.load p.mismatches p.verified)
      else if p.mode = "open" && p.policy = "fifo" then
        match occupancy "synchronous" p.load with
        | Some sync when p.mean_occupancy > sync -> None
        | sync ->
          Some
            (Printf.sprintf "load %.2f: fifo occupancy %.4f is not above synchronous (%s)"
               p.load p.mean_occupancy
               (Option.fold ~none:"missing" ~some:(Printf.sprintf "%.4f") sync))
      else None)
    stats.Serving.points

let run_serve ?seed () =
  (* Bench-sized serving comparison: one load level, all three policies.
     The stage fails unless the E5 claim holds (serve_claim_failures),
     with or without --seed. The sweep is simulated-clock deterministic
     at the default seed, so its JSON is also committed as
     BENCH_serve.json and any drift fails the stage (first run writes
     the baseline; --seed skips the diff). *)
  let stats = Serving.run ~dim:10 ~lanes:8 ~n_requests:24 ~loads:[ 0.9 ] ?seed () in
  Serving.print stats;
  print_newline ();
  (match serve_claim_failures stats with
  | [] -> print_endline "serve: fifo occupancy above synchronous at every load; samples bitwise"
  | failures ->
    List.iter (fun f -> prerr_endline ("serve stage failed: " ^ f)) failures;
    exit 1);
  match seed with
  | Some _ -> ()
  | None ->
    check_baseline ~stage:"serve" ~path:"BENCH_serve.json"
      (Obs_json.Obj
         [
           ("bench", Obs_json.Str "serve");
           ("source", Obs_json.Str "bench/main.exe serve");
           ( "note",
             Obs_json.Str
               "bench-sized serving sweep at the default seed on one shard of \
                Tenant_server; every field is on the simulated clock \
                (seconds), so the document is byte-stable across hosts and \
                committed as the regression baseline — the stage fails on \
                any drift, and on fifo occupancy not above synchronous or \
                any sampled completion differing from its solo run" );
           ("payload", Serving.to_json stats);
         ])

let run_resil ?seed () =
  (* Bench-sized resilience sweep: checkpoint overhead at intervals
     {1, 8, 64, inf} and recovery under a 5% per-superstep fault rate,
     with the bitwise-identity check live in the last column. Committed
     as BENCH_resil.json and diffed like the serve stage; figures carry
     the CSV export's precision. *)
  let intervals = [ 1; 8; 64; 0 ] in
  let stats =
    Resilience.run ~z:16 ~intervals ~rates:[ 0.; 0.05 ]
      ?seed:(Option.map Int64.to_int seed) ()
  in
  Resilience.print stats;
  print_newline ();
  let fixed digits x = Obs_json.Float (float_of_string (Printf.sprintf "%.*f" digits x)) in
  let interval i = if i = 0 then Obs_json.Null else Obs_json.Int i in
  match seed with
  | Some _ -> ()
  | None ->
    check_baseline ~stage:"resil" ~path:"BENCH_resil.json"
      (Obs_json.Obj
         [
           ("bench", Obs_json.Str "resil");
           ( "source",
             Obs_json.Str
               "bench/main.exe resil (dune exec bin/experiments.exe -- \
                resilience -z 16 --rates 0,0.05 --csv)" );
           ("workload", Obs_json.Str "batched recursive fib, z=16");
           ("intervals", Obs_json.List (List.map interval intervals));
           ( "note",
             Obs_json.Str
               "interval null = initial checkpoint only (infinite interval); \
                overhead is analytic checkpoint I/O (bytes / bandwidth) over \
                useful supersteps; bitwise_identical compares the recovered \
                run against the fault-free run; the stage (and CI) fails on \
                any drift from this document" );
           ("z", Obs_json.Int stats.Resilience.z);
           ( "ckpt_bandwidth_bytes_per_superstep",
             Obs_json.Float stats.Resilience.ckpt_bandwidth );
           ("delta_steps_per_checkpoint", fixed 4 stats.Resilience.delta_steps);
           ( "young_optimal",
             Obs_json.List
               (List.map
                  (fun (rate, t_opt) ->
                    Obs_json.Obj
                      [
                        ("rate", fixed 3 rate);
                        ("mtbf", fixed 1 (1. /. rate));
                        ("t_opt", fixed 1 t_opt);
                      ])
                  stats.Resilience.young) );
           ( "points",
             Obs_json.List
               (List.map
                  (fun (p : Resilience.point) ->
                    Obs_json.Obj
                      [
                        ("vm", Obs_json.Str p.vm);
                        ("interval", interval p.interval);
                        ("rate", fixed 3 p.rate);
                        ("faults", Obs_json.Int p.faults);
                        ("restores", Obs_json.Int p.restores);
                        ("link_retries", Obs_json.Int p.link_retries);
                        ("checkpoints", Obs_json.Int p.checkpoints);
                        ("ckpt_bytes", Obs_json.Int p.ckpt_bytes);
                        ("useful_supersteps", Obs_json.Int p.useful);
                        ("wasted_supersteps", Obs_json.Int p.wasted);
                        ("overhead_pct", fixed 4 p.overhead_pct);
                        ("recovered_pct", fixed 2 p.recovered_pct);
                        ("bitwise_identical", Obs_json.Bool p.identical);
                      ])
                  stats.Resilience.points) );
         ])

let run_fuse ?seed () =
  (* Superblock fusion A/B gate: compile each workload twice — plain and
     through the lib/fuse passes — and hold the fused build to the PR's
     bar: bitwise-identical outputs on every runtime (pc, local,
     sharded), at least 25% fewer supersteps (= fused kernel launches on
     the merged-PC runtime), and a lower total simulated cost. Also
     writes the committed BENCH_fuse.json baseline; everything recorded
     is simulated-clock-deterministic, so the file is stable across
     hosts. *)
  print_endline "== Superblock fusion A/B (plain vs fused compile) ==";
  let eight_schools_fixture =
    let model = Eight_schools.model () in
    let reg, _ = Nuts_dsl.setup ?seed ~model () in
    let q0 = Tensor.zeros [| model.Model.dim |] in
    let eps = Nuts.find_reasonable_eps ~model ~q0 () in
    let prog = Nuts_dsl.program () in
    let compile fuse =
      Autobatch.compile ~registry:reg ?fuse
        ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
    in
    let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter:2 ~n_burn:0 ~batch:16 () in
    ("eight_schools-z16", compile, batch)
  in
  let fib_fixture =
    let compile fuse =
      Autobatch.compile ?fuse ~input_shapes:[ Shape.scalar ] fib_program
    in
    ("fib-z32", compile, fib_batch)
  in
  let failed = ref false in
  let points = ref [] in
  let rows =
    List.map
      (fun (name, compile, batch) ->
        let plain = compile None in
        let fused = compile (Some Fuse.default_options) in
        let exec compiled =
          let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
          let config = { Pc_vm.default_config with engine = Some engine } in
          let outputs = Autobatch.run_pc ~config compiled ~batch in
          ( List.map Tensor.data outputs,
            (Engine.snapshot engine).Engine.at.Engine.Counters.blocks,
            Engine.elapsed engine )
        in
        let out_p, steps_p, sim_p = exec plain in
        let out_f, steps_f, sim_f = exec fused in
        let others compiled =
          let local = Autobatch.run_local compiled ~batch in
          let shard =
            (Autobatch.run_sharded
               ~config:
                 {
                   Sched_vm.default_config with
                   plan = Sched_plan.off;
                   mesh = Mesh.gpu_pod ~n:2 ();
                 }
               compiled ~batch)
              .Sched_vm.outputs
          in
          List.map (List.map Tensor.data) [ local; shard ]
        in
        let bitwise =
          out_f = out_p && List.for_all (( = ) out_p) (others fused)
        in
        let reduction =
          1. -. (float_of_int steps_f /. float_of_int steps_p)
        in
        let report = Option.get fused.Autobatch.fuse in
        let ok =
          bitwise && steps_f < steps_p && reduction >= 0.25 && sim_f < sim_p
        in
        if not ok then failed := true;
        points :=
          Obs_json.Obj
            [
              ("workload", Obs_json.Str name);
              ("plain_supersteps", Obs_json.Int steps_p);
              ("fused_supersteps", Obs_json.Int steps_f);
              ("superstep_reduction", Obs_json.Float reduction);
              ("plain_sim_seconds", Obs_json.Float sim_p);
              ("fused_sim_seconds", Obs_json.Float sim_f);
              ("megablocks", Obs_json.Int (Fuse.megablock_count report));
              ( "entries_duplicated",
                Obs_json.Int
                  report.Fuse.stack_stats.Fuse_stack.entries_duplicated );
              ("bitwise_identical", Obs_json.Bool bitwise);
              ("pass", Obs_json.Bool ok);
            ]
          :: !points;
        [
          name;
          string_of_int steps_p;
          string_of_int steps_f;
          Printf.sprintf "%.1f%%" (100. *. reduction);
          Table.si sim_p ^ "s";
          Table.si sim_f ^ "s";
          string_of_int (Fuse.megablock_count report);
          (if bitwise then "yes" else "NO");
          (if ok then "ok" else "FAIL");
        ])
      [ fib_fixture; eight_schools_fixture ]
  in
  Table.print_stdout
    ~header:
      [ "workload"; "steps"; "fused"; "saved"; "sim"; "fused sim";
        "megablocks"; "bitwise"; "status" ]
    ~rows;
  Obs_report.write ~path:"BENCH_fuse.json"
    (Obs_json.Obj
       [
         ("bench", Obs_json.Str "fuse");
         ("source", Obs_json.Str "bench/main.exe fuse");
         ( "workload",
           Obs_json.Str
             "plain vs fused compile of fib z=32 and NUTS-on-eight_schools \
              z=16 (2 trajectories) under the pc VM on a fused GPU engine" );
         ( "note",
           Obs_json.Str
             "supersteps = Engine.Counters.blocks = fused kernel launches \
              on the merged-PC runtime; bitwise compares Tensor.data of \
              every output across pc/local/sharded runtimes between the \
              plain and fused builds; the stage (and CI) fails unless every \
              workload is bitwise identical, saves >=25% of its supersteps, \
              and lowers the simulated cost" );
         ("points", Obs_json.List (List.rev !points));
       ]);
  print_newline ();
  if !failed then begin
    prerr_endline
      "fuse stage failed: fused build perturbed outputs or missed the \
       superstep/cost bar";
    exit 1
  end

let run_sched ?seed () =
  (* Scheduling-policy and lane-defragmentation gate, two halves.

     Determinism: every runtime — pc, local, sharded, the serving
     stack, and the defragmenting Sched_vm under both migration plans —
     must produce outputs bitwise identical to the Earliest pc baseline
     under every scheduling policy (Sched_sweep.bitwise_matrix; 30
     checks per workload). Policies and migration only move cost, never
     results.

     Utilization: retiring drained lanes and refilling small pools must
     actually pay. Each workload's whole-batch pc run (Earliest; the
     batch drains in place, Figure 6's waste) is compared against the
     Sched_vm defrag arm on a mesh of small lane pools, and the stage
     fails unless the effective-utilization factor clears the bar:
     >=2x on eight_schools z=64, >=1.5x on fib z=32. Regenerates the
     committed BENCH_sched.json; everything recorded is
     simulated-clock-deterministic. *)
  print_endline "== Scheduling policies + lane defragmentation gate ==";
  let eight_schools_fixture =
    let model = Eight_schools.model () in
    let reg, _ = Nuts_dsl.setup ?seed ~model () in
    let q0 = Tensor.zeros [| model.Model.dim |] in
    let eps = Nuts.find_reasonable_eps ~model ~q0 () in
    let prog = Nuts_dsl.program () in
    let compiled =
      Autobatch.compile ~registry:reg
        ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
    in
    let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter:1 ~n_burn:0 ~batch:64 () in
    ("eight_schools-z64", compiled, batch, 4, 2, 2.0)
  in
  let fib_fixture = ("fib-pc-z32", fib_compiled, fib_batch, 2, 4, 1.5) in
  let failed = ref false in
  let points = ref [] in
  let compares = ref [] in
  let rows =
    List.map
      (fun (name, compiled, batch, shards, lanes, bar) ->
        let checks = Sched_sweep.bitwise_matrix compiled ~batch in
        let bad = Sched_sweep.failures checks in
        let base_out, base =
          Sched_sweep.profiled_pc ~label:(name ^ "/pc")
            ~policy:Sched_policy.Earliest compiled ~batch
        in
        let r, defrag =
          Sched_sweep.defrag_view
            ~label:(Printf.sprintf "%s/defrag-%dx%d" name shards lanes)
            ~plan:Sched_plan.aggressive ~shards ~lanes compiled ~batch ()
        in
        let bitwise =
          bad = [] && List.for_all2 Tensor.equal base_out r.Sched_vm.outputs
        in
        let factor = defrag.Profile.v_effective /. base.Profile.v_effective in
        let ok = bitwise && factor >= bar in
        if not ok then failed := true;
        compares := (name, [ base; defrag ]) :: !compares;
        points :=
          Obs_json.Obj
            [
              ("workload", Obs_json.Str name);
              ("checks", Obs_json.Int (List.length checks));
              ("bitwise_failures", Obs_json.Int (List.length bad));
              ("shards", Obs_json.Int shards);
              ("lanes_per_shard", Obs_json.Int lanes);
              ("baseline_effective", Obs_json.Float base.Profile.v_effective);
              ("defrag_effective", Obs_json.Float defrag.Profile.v_effective);
              ("factor", Obs_json.Float factor);
              ("bar", Obs_json.Float bar);
              ("supersteps", Obs_json.Int r.Sched_vm.supersteps);
              ("refills", Obs_json.Int r.Sched_vm.refills);
              ("migrations", Obs_json.Int r.Sched_vm.migrations);
              ("steals", Obs_json.Int r.Sched_vm.steals);
              ("migration_bytes", Obs_json.Float r.Sched_vm.migration_bytes);
              ("compare", Profile.compare_to_json [ base; defrag ]);
              ("pass", Obs_json.Bool ok);
            ]
          :: !points;
        [
          name;
          string_of_int (List.length checks);
          Printf.sprintf "%.3f" base.Profile.v_effective;
          Printf.sprintf "%.3f" defrag.Profile.v_effective;
          Printf.sprintf "%.2fx" factor;
          Printf.sprintf ">=%.1fx" bar;
          string_of_int r.Sched_vm.migrations;
          string_of_int r.Sched_vm.steals;
          (if bitwise then "yes" else "NO");
          (if ok then "ok" else "FAIL");
        ])
      [ fib_fixture; eight_schools_fixture ]
  in
  Table.print_stdout
    ~header:
      [ "workload"; "checks"; "base eff"; "defrag eff"; "factor"; "bar";
        "migr"; "steals"; "bitwise"; "status" ]
    ~rows;
  List.iter
    (fun (name, views) ->
      print_newline ();
      Printf.printf "-- %s --\n" name;
      Profile.print_compare views)
    (List.rev !compares);
  Obs_report.write ~path:"BENCH_sched.json"
    (Obs_json.Obj
       [
         ("bench", Obs_json.Str "sched");
         ("source", Obs_json.Str "bench/main.exe sched");
         ( "workload",
           Obs_json.Str
             "fib z=32 and NUTS-on-eight_schools z=64 (1 trajectory): \
              runtime x policy x migration-plan bitwise matrix, plus the \
              whole-batch Earliest pc run vs the Sched_vm defragmenting \
              runtime on a mesh of small lane pools (aggressive plan)" );
         ( "note",
           Obs_json.Str
             "checks = bitwise_matrix comparisons against the Earliest pc \
              baseline (5 policies x {pc, local, shard, server} plus \
              Sched_vm under {no-migration, aggressive}); effective \
              utilization = Obs_prof.effective_utilization (useful lanes \
              over issued lanes weighted by simulated kernel time); the \
              stage (and CI) fails unless every check is bitwise AND the \
              defrag arm's factor clears the bar (>=2x eight_schools, \
              >=1.5x fib)" );
         ("points", Obs_json.List (List.rev !points));
       ]);
  print_newline ();
  if !failed then begin
    prerr_endline
      "sched stage failed: a policy or migration schedule perturbed outputs \
       or the defrag arm missed the utilization bar";
    exit 1
  end

let run_eff ?seed () =
  (* Handler-DSL frontend gate (DESIGN.md S22), four parts.

     Elaboration: each migrated model's spec elaborates to a log-density
     program whose outputs are bitwise identical across pc/local/shard;
     the gaussian spec's density is additionally bitwise equal to the
     hand closure, and eight_schools' NUTS pipeline (which uses the
     unchanged hand closures as prims) still matches the single-chain
     reference bitwise — the old-vs-new migration proof.

     Workloads: the SMC filter must land within tolerance of the Kalman
     closed-form log marginal with resampling actually migrating lanes;
     parallel tempering must recover the mixture's closed-form moments
     with accepted exchanges and a mode-balanced cold chain; the
     decision tree must be bitwise right on every runtime.

     Regenerates the committed BENCH_eff.json (full runs only — the
     AUTOBATCH_FAST arm shrinks the workloads and must not churn the
     committed baseline). *)
  print_endline "== Handler-DSL frontend gate (elaboration + workloads) ==";
  let fast = Sys.getenv_opt "AUTOBATCH_FAST" <> None in
  let seed_v = Option.value seed ~default:0x5EEDL in
  let failed = ref false in
  let check name detail ok =
    if not ok then failed := true;
    Printf.printf "  %-34s %-40s %s\n" name detail
      (if ok then "pass" else "FAIL")
  in
  (* 1. Elaboration bitwise matrix over the model zoo. *)
  let model_points =
    List.map
      (fun name ->
        let m = Zoo.resolve ~dim:8 name in
        let el = Model.log_density m in
        let compiled =
          Autobatch.compile ~registry:el.Eff.el_registry
            ~input_shapes:(Eff.input_shapes el) el.Eff.el_program
        in
        let stream = Splitmix.Stream.create (Int64.add seed_v 17L) in
        let z = 8 in
        let batch =
          List.map
            (fun shape ->
              Tensor.init
                (Array.append [| z |] shape)
                (fun _ -> 0.5 *. Splitmix.Stream.normal stream))
            (Eff.input_shapes el)
        in
        let pc = Autobatch.run_pc compiled ~batch in
        let same outs = List.for_all2 Tensor.equal pc outs in
        let ok =
          same (Autobatch.run_local compiled ~batch)
          && same
               (Autobatch.run_sharded
                  ~config:
                    {
                      Sched_vm.default_config with
                      plan = Sched_plan.off;
                      mesh = Mesh.gpu_pod ~n:2 ();
                    }
                  compiled ~batch)
                 .Sched_vm.outputs
        in
        check (Printf.sprintf "elaborate %s" name)
          "pc = local = shard" ok;
        (name, ok))
      Zoo.known
  in
  (* Gaussian: elaborated density is the hand density, bitwise. *)
  let gauss_exact =
    let m = Zoo.resolve ~dim:8 "gaussian" in
    let el = Model.log_density m in
    let compiled =
      Autobatch.compile ~registry:el.Eff.el_registry
        ~input_shapes:(Eff.input_shapes el) el.Eff.el_program
    in
    let stream = Splitmix.Stream.create (Int64.add seed_v 23L) in
    let z = 8 in
    let qs = Tensor.init [| z; 8 |] (fun _ -> Splitmix.Stream.normal stream) in
    let lp =
      List.nth (Autobatch.run_pc compiled ~batch:[ qs ]) el.Eff.el_lp_index
    in
    let ok = ref true in
    for b = 0 to z - 1 do
      if (Tensor.data lp).(b) <> m.Model.logp (Tensor.slice_row qs b) then
        ok := false
    done;
    check "gaussian spec = hand density" "bitwise over 8 points" !ok;
    !ok
  in
  (* Old-vs-new: the migrated eight_schools still drives the NUTS
     pipeline to the single-chain reference bitwise. *)
  let schools_ok =
    let model = Eight_schools.model () in
    let reg, key = Nuts_dsl.setup ?seed ~model () in
    let q0 = Tensor.zeros [| model.Model.dim |] in
    let cfg = Nuts.default_config ~eps:0.3 () in
    let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
    let compiled =
      Autobatch.compile ~registry:reg
        ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
    in
    let z = 4 and n_iter = if fast then 3 else 5 in
    let batch = Nuts_dsl.inputs ~q0 ~eps:0.3 ~n_iter ~n_burn:0 ~batch:z () in
    let pc = Autobatch.run_pc compiled ~batch in
    let ok = ref true in
    for member = 0 to z - 1 do
      let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
      if not (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.hd pc) member))
      then ok := false
    done;
    check "eight_schools NUTS migration" "batched = reference, bitwise" !ok;
    !ok
  in
  (* 2. SMC vs the Kalman closed form. *)
  let smc =
    Smc.run ~seed:seed_v
      ~n_particles:(if fast then 128 else 512)
      ~steps:(if fast then 15 else 40)
      ()
  in
  let smc_ok = Smc.passes ~tol:1.0 smc in
  check "smc log-marginal vs Kalman"
    (Printf.sprintf "|%.3f - %.3f| = %.3f, %d migrations" smc.Smc.log_z
       smc.Smc.log_z_exact (Smc.log_z_error smc) smc.Smc.migrations)
    smc_ok;
  (* 3. Tempering vs the mixture closed form. *)
  let temper =
    Tempering.run ~seed:seed_v
      ~c:
        {
          Tempering.default_config with
          rounds = (if fast then 200 else 400);
        }
      ()
  in
  let temper_ok = Tempering.passes temper in
  check "tempering moments + exchanges"
    (Printf.sprintf "E[x^2] %.2f (exact %.2f), %d swaps"
       temper.Tempering.cold_second_moment
       (Tempering.second_moment temper.Tempering.config)
       temper.Tempering.swaps_accepted)
    temper_ok;
  (* 4. Decision tree, pure control flow. *)
  let tree =
    Treebench.run ~seed:seed_v
      ~depth:(if fast then 5 else 7)
      ~z:(if fast then 32 else 64)
      ()
  in
  let tree_ok = Treebench.passes tree in
  check "decision tree bitwise"
    (Printf.sprintf "%d leaves, %d supersteps" tree.Treebench.distinct_leaves
       tree.Treebench.supersteps)
    tree_ok;
  if not fast then
    Obs_report.write ~path:"BENCH_eff.json"
      (Obs_json.Obj
         [
           ("bench", Obs_json.Str "eff");
           ("source", Obs_json.Str "bench/main.exe eff");
           ( "workload",
             Obs_json.Str
               "handler-DSL elaboration matrix over the model zoo (bitwise \
                across pc/local/shard, gaussian spec bitwise vs hand \
                density, eight_schools NUTS vs single-chain reference), \
                plus the three DSL workloads: SMC bootstrap filter (512 \
                particles x 40 steps, resampling through the S20 \
                lane-migration seam, gated vs the Kalman log marginal), \
                parallel tempering (8 chains x 400 rounds, exchanges \
                priced as collectives, gated on closed-form mixture \
                moments), and decision-tree inference (depth 7, gated \
                bitwise vs host evaluation)" );
           ( "note",
             Obs_json.Str
               "the stage (and CI) fails unless every arm above passes; \
                the AUTOBATCH_FAST arm shrinks the workloads and does not \
                rewrite this file" );
           ( "elaboration",
             Obs_json.Obj
               (("gaussian_exact", Obs_json.Bool gauss_exact)
               :: ("eight_schools_nuts", Obs_json.Bool schools_ok)
               :: List.map
                    (fun (name, ok) -> (name, Obs_json.Bool ok))
                    model_points) );
           ("smc", Smc.to_json smc);
           ("temper", Tempering.to_json temper);
           ("tree", Treebench.to_json tree);
         ]);
  print_newline ();
  if !failed then begin
    prerr_endline
      "eff stage failed: an elaboration arm lost bitwise equivalence or a \
       DSL workload missed its closed-form gate";
    exit 1
  end

let run_tenant ?seed () =
  (* Multi-tenant serving gate, three parts.

     Macro: the paired bursty-overload trace from Tenant_load — the fair
     arm (admission ladder + SLO-weighted placement + preemption +
     autoscaling + one injected device kill) against the FIFO
     no-admission baseline on the identical trace with the identical
     kill. Every kept completion must be bitwise identical to running
     the request alone (across cache hits, preemption, migration,
     grow/shrink, and the kill), the program cache must run >=90% hot on
     the Zipf trace, and the latency-bound p99 — read from the
     Obs_metrics histogram JSON, not the raw samples — must be >=3x
     lower than the baseline's. The fair arm must also actually have
     exercised the machinery: grows, shrinks, preemptions, resumes,
     checkpoints, and at least one restore.

     Micro: two closed-form scenarios. A 2-lane shard where a width-2
     best-effort flight must be parked exactly once for a late
     latency-bound arrival and then resumed (both bitwise); and a
     2-shard pool where a backlog spike forces a grow and the cooldown
     later drains the lightly-loaded shard while its flight is still
     live, forcing a lane migration through the export/import seam.

     Full runs at the default seed diff against the committed
     BENCH_tenant.json and fail on any drift (delete the file to
     re-baseline); the AUTOBATCH_FAST arm caps the trace at 10k requests
     and skips the diff. *)
  print_endline
    "== Multi-tenant gate (admission / preemption / pool / recovery) ==";
  let fast = Sys.getenv_opt "AUTOBATCH_FAST" <> None in
  let n_requests = if fast then 10_000 else 20_000 in
  let failed = ref false in
  let rows = ref [] in
  let check name value bar ok =
    if not ok then failed := true;
    rows := [ name; value; bar; (if ok then "ok" else "FAIL") ] :: !rows
  in
  (* ---- macro ---- *)
  let r = Tenant_load.run ?seed ~n_requests () in
  Tenant_load.print_table r;
  print_newline ();
  let hist_p99 (a : Tenant_load.arm) =
    let h =
      Obs_metrics.histogram a.Tenant_load.metrics "latency_total_latency"
    in
    match Obs_json.member "p99" (Obs_metrics.hist_to_json h) with
    | Some (Obs_json.Float f) -> f
    | Some (Obs_json.Int n) -> float_of_int n
    | _ -> Float.nan
  in
  let fair = r.Tenant_load.fair in
  let base = Option.get r.Tenant_load.baseline in
  let p99_fair = hist_p99 fair and p99_base = hist_p99 base in
  let ratio = p99_base /. p99_fair in
  let s = fair.Tenant_load.stats in
  check "macro: bitwise vs solo"
    (Printf.sprintf "%d verified, %d mismatches" r.Tenant_load.verified
       r.Tenant_load.mismatches)
    "0 mismatches"
    (r.Tenant_load.verified > 0 && r.Tenant_load.mismatches = 0);
  check "macro: cache hit rate"
    (Printf.sprintf "%.3f" r.Tenant_load.hit_rate)
    ">=0.90"
    (r.Tenant_load.hit_rate >= 0.9);
  check "macro: lb p99, fifo/fair (histogram)"
    (Printf.sprintf "%s / %s = %.2fx" (Table.si p99_base) (Table.si p99_fair)
       ratio)
    ">=3x" (ratio >= 3.);
  check "macro: pool scaled"
    (Printf.sprintf "%d grows, %d shrinks" s.Tenant_server.grows
       s.Tenant_server.shrinks)
    "both >0"
    (s.Tenant_server.grows > 0 && s.Tenant_server.shrinks > 0);
  check "macro: preemption engaged"
    (Printf.sprintf "%d parked, %d resumed" s.Tenant_server.preemptions
       s.Tenant_server.resumes)
    "both >0"
    (s.Tenant_server.preemptions > 0 && s.Tenant_server.resumes > 0);
  check "macro: kill recovered"
    (Printf.sprintf "%d checkpoints, %d restores" s.Tenant_server.checkpoints
       s.Tenant_server.restores)
    ">=1 restore"
    (s.Tenant_server.checkpoints > 0 && s.Tenant_server.restores >= 1);
  (* ---- micro fixtures ---- *)
  let shapes = Tenant_load.element_shapes in
  let prog = Tenant_load.family_program ~k:0 in
  let compiled = Autobatch.compile ~input_shapes:shapes prog in
  let digest = Prog_cache.digest ~input_shapes:shapes prog in
  let mk_item ~tenant ~id ~member ~arrival ~width ~n =
    let rows v =
      Tensor.stack_rows (List.init width (fun _ -> Tensor.scalar v))
    in
    let xs =
      Tensor.stack_rows
        (List.init width (fun j ->
             Tensor.scalar (0.3 +. (0.01 *. float_of_int j))))
    in
    let request =
      Request.make ~id ~member ~arrival ~cost_hint:(float_of_int n)
        ~program:compiled
        ~inputs:[ rows (float_of_int n); xs; rows 0. ]
        ()
    in
    { Admission.tenant; request; digest }
  in
  let completions_bitwise (st : Tenant_server.stats) =
    List.for_all Tenant_load.matches_solo st.Tenant_server.completions
  in
  (* ---- micro: preemption ---- *)
  let be = Tenant.make ~id:0 ~name:"be" () in
  let lb = Tenant.make ~slo:Tenant.Latency_bound ~id:1 ~name:"lb" () in
  let pre_st =
    let config =
      {
        (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
        Tenant_server.lanes_per_shard = 2;
        checkpoint_interval = 4;
      }
    in
    Tenant_server.run ~config
      (Tenant_server.source_of_list
         [
           mk_item ~tenant:be ~id:0 ~member:0 ~arrival:0. ~width:2 ~n:60;
           mk_item ~tenant:lb ~id:1 ~member:16 ~arrival:1e-7 ~width:1 ~n:8;
         ])
  in
  let pre_comps = pre_st.Tenant_server.completions in
  let be_parked =
    match
      List.find_opt
        (fun c -> c.Tenant_server.c_item.Admission.request.Request.id = 0)
        pre_comps
    with
    | Some c -> c.Tenant_server.c_preempted >= 1
    | None -> false
  in
  let pre_ok =
    pre_st.Tenant_server.preemptions = 1
    && pre_st.Tenant_server.resumes = 1
    && List.length pre_comps = 2
    && be_parked
    && completions_bitwise pre_st
  in
  check "micro: park / resume bitwise"
    (Printf.sprintf "%d parked, %d resumed, %d done"
       pre_st.Tenant_server.preemptions pre_st.Tenant_server.resumes
       (List.length pre_comps))
    "1 park, 2 done" pre_ok;
  (* ---- micro: drain migration ----
     Two X-bound shards: shard 0 runs a full cohort of 8 short flights,
     shard 1 one long flight (it bound via the backlog-pressure grow
     while shard 0 was full). A late batch of 3 arrivals is timed — by a
     probe run of the same prefix — to land in the very round shard 0's
     cohort retires: the pool controller sees the backlog before refill
     and holds, the batch refills shard 0 to 3 live, and the next
     planning round shrinks the now-least-loaded shard 1 while its
     flight is still live, forcing the lane migration through the
     export/import seam into shard 0's free lanes. *)
  let t0 = Tenant.make ~id:0 ~name:"t0" () in
  let mig_config =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:2 ())) with
      Tenant_server.lanes_per_shard = 8;
      pool =
        {
          Pool.min_shards = 1;
          max_shards = 2;
          grow_backlog = 0.1;
          shrink_util = 0.9;
          cooldown = 2;
        };
    }
  in
  let mig_prefix =
    List.init 9 (fun i ->
        mk_item ~tenant:t0 ~id:i ~member:(i * 8) ~arrival:0. ~width:1
          ~n:(if i < 8 then 30 else 100))
  in
  let probe =
    Tenant_server.run ~config:mig_config
      (Tenant_server.source_of_list mig_prefix)
  in
  let t_retire =
    List.fold_left
      (fun acc c ->
        if c.Tenant_server.c_item.Admission.request.Request.id = 0 then
          c.Tenant_server.c_finished
        else acc)
      0. probe.Tenant_server.completions
  in
  let mig_st =
    Tenant_server.run ~config:mig_config
      (Tenant_server.source_of_list
         (mig_prefix
         @ List.init 3 (fun i ->
               mk_item ~tenant:t0 ~id:(9 + i) ~member:((9 + i) * 8)
                 ~arrival:(t_retire -. 1e-6) ~width:1 ~n:40)))
  in
  let mig_ok =
    mig_st.Tenant_server.grows >= 1
    && mig_st.Tenant_server.shrinks >= 1
    && mig_st.Tenant_server.migrations >= 1
    && List.length mig_st.Tenant_server.completions = 12
    && completions_bitwise mig_st
  in
  check "micro: drain migration bitwise"
    (Printf.sprintf "%d grows, %d shrinks, %d migrations, %d done"
       mig_st.Tenant_server.grows mig_st.Tenant_server.shrinks
       mig_st.Tenant_server.migrations
       (List.length mig_st.Tenant_server.completions))
    ">=1 migration, 12 done" mig_ok;
  Table.print_stdout
    ~header:[ "check"; "value"; "bar"; "status" ]
    ~rows:(List.rev !rows);
  let micro_point name (st : Tenant_server.stats) ok =
    Obs_json.Obj
      [
        ("scenario", Obs_json.Str name);
        ("completions", Obs_json.Int (List.length st.Tenant_server.completions));
        ("preemptions", Obs_json.Int st.Tenant_server.preemptions);
        ("resumes", Obs_json.Int st.Tenant_server.resumes);
        ("migrations", Obs_json.Int st.Tenant_server.migrations);
        ("grows", Obs_json.Int st.Tenant_server.grows);
        ("shrinks", Obs_json.Int st.Tenant_server.shrinks);
        ("checkpoints", Obs_json.Int st.Tenant_server.checkpoints);
        ("bitwise_identical", Obs_json.Bool (completions_bitwise st));
        ("pass", Obs_json.Bool ok);
      ]
  in
  if (not fast) && seed = None then
    check_baseline ~stage:"tenant" ~path:"BENCH_tenant.json"
      (Obs_json.Obj
         [
           ("bench", Obs_json.Str "tenant");
           ("source", Obs_json.Str "bench/main.exe tenant");
           ( "workload",
             Obs_json.Str
               "20k-request bursty Zipf trace, 24 tenants x 8 programs, \
                4-shard mesh, one injected device kill: fair arm \
                (admission + preemption + autoscaling) vs FIFO \
                no-admission baseline; plus the closed-form preemption \
                and drain-migration scenarios" );
           ( "note",
             Obs_json.Str
               "p99s are read from the Obs_metrics latency histograms \
                (log-bucketed), so the committed ratio is what the \
                metrics surface reports, not the raw samples; the stage \
                (and CI) fails unless every completion is bitwise \
                identical to solo, the cache runs >=90% hot, the \
                latency-bound histogram p99 is >=3x lower than the \
                baseline's, and every subsystem (grow, shrink, preempt, \
                resume, checkpoint, restore, migrate) actually fired; \
                the AUTOBATCH_FAST arm runs 10k requests and does not \
                rewrite this file" );
           ("lb_p99_ratio", Obs_json.Float ratio);
           ("macro", Tenant_load.to_json r);
           ( "micro",
             Obs_json.List
               [
                 micro_point "preempt-park-resume" pre_st pre_ok;
                 micro_point "drain-migration" mig_st mig_ok;
               ] );
         ]);
  print_newline ();
  if !failed then begin
    prerr_endline
      "tenant stage failed: a completion diverged from solo or an \
       admission/pool/recovery bar was missed";
    exit 1
  end

(* ---------- regression probes (observe / regress) ---------- *)

(* Fixed-seed, tier-independent probes of simulated cost. `bench observe`
   embeds them in the committed BENCH_observe.json; `bench regress`
   re-runs them and diffs. Both deliberately ignore --seed — the baseline has to
   mean the same thing on every host and under AUTOBATCH_FAST. *)
let regress_probes () =
  let pc name compiled batch =
    let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
    let prof = Obs_prof.create () in
    let sink = Obs_prof.sink prof in
    Engine.set_sink engine sink;
    let config =
      { Pc_vm.default_config with engine = Some engine; sink = Some sink }
    in
    ignore (Autobatch.run_pc ~config compiled ~batch);
    ( name,
      Engine.elapsed engine,
      Obs_prof.supersteps prof,
      (Engine.snapshot engine).Engine.at.Engine.Counters.blocks )
  in
  let nuts_compiled, nuts_batch = Lazy.force nuts_fixture in
  let tenant =
    let r = Tenant_load.run ~n_requests:1000 ~verify:false ~baseline:false () in
    let s = r.Tenant_load.fair.Tenant_load.stats in
    ( "tenant-1k",
      s.Tenant_server.makespan,
      s.Tenant_server.rounds,
      List.length s.Tenant_server.completions )
  in
  [
    pc "fib-pc-z32" fib_compiled fib_batch;
    pc "nuts-pc-z16" nuts_compiled nuts_batch;
    tenant;
  ]

let probe_to_json (name, sim, supersteps, work) =
  Obs_json.Obj
    [
      ("name", Obs_json.Str name);
      ("sim_seconds", Obs_json.Float sim);
      ("supersteps", Obs_json.Int supersteps);
      ("work", Obs_json.Int work);
    ]

let run_observe ?seed () =
  (* The observer-invariance gate. Each workload — fib and NUTS under the
     pc VM, the macro tenant trace with its injected device kill — runs
     bare and with every observer fanned out on one sink (trace recorder,
     profiler and its metrics; span recorder and SLO monitor on the
     tenant trace); outputs and the simulated clock must be bitwise
     identical. The observers' own contracts ride along as assertions
     (listed in the document's note). Full runs at the default seed diff
     the document, `bench regress` probes included, against the committed
     BENCH_observe.json — delete it to re-baseline; AUTOBATCH_FAST caps
     the trace at 10k requests and skips the diff. *)
  print_endline "== Observer invariance (trace / profiler / metrics / spans / SLO) ==";
  let fast = Sys.getenv_opt "AUTOBATCH_FAST" <> None in
  let n_requests = if fast then 10_000 else 20_000 in
  let failed = ref false in
  let rows = ref [] in
  let check name value bar ok =
    if not ok then failed := true;
    rows := [ name; value; bar; (if ok then "ok" else "FAIL") ] :: !rows
  in
  let reparses write =
    let tmp = Filename.temp_file "autobatch-observe" ".trace.json" in
    write tmp;
    let contents = In_channel.with_open_text tmp In_channel.input_all in
    Sys.remove tmp;
    match Obs_json.of_string contents with
    | Ok doc -> Obs_json.member "traceEvents" doc <> None
    | Error _ -> false
  in
  (* ---- pc workloads ---- *)
  let nuts_compiled, nuts_batch = Lazy.force nuts_fixture in
  let pc_points =
    List.map
      (fun (name, compiled, batch) ->
        let exec observe =
          let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
          let sink = observe engine in
          Option.iter (Engine.set_sink engine) sink;
          let config = { Pc_vm.default_config with engine = Some engine; sink } in
          let outputs, wall =
            Obs_wall.time (fun () -> Autobatch.run_pc ~config compiled ~batch)
          in
          (List.map Tensor.data outputs, Engine.elapsed engine, wall)
        in
        let out_off, sim_off, wall_off = exec (fun _ -> None) in
        let tr = Obs_trace.create () in
        let prof =
          Obs_prof.create
            ~frames:(Profile.flame_frames compiled.Autobatch.stack compiled.Autobatch.cfg)
            ()
        in
        let out_on, sim_on, wall_on =
          exec (fun engine ->
              let track = Obs_trace.track tr name in
              Some
                (Obs_sink.fanout
                   [
                     Obs_trace.sink tr ~track ~clock:(fun () -> Engine.elapsed engine);
                     Obs_prof.sink prof;
                   ]))
        in
        check
          (name ^ ": bare vs observed")
          (Printf.sprintf "%ss / %ss sim, %ss / %ss wall" (Table.si sim_off)
             (Table.si sim_on) (Table.si wall_off.Obs_wall.wall_s)
             (Table.si wall_on.Obs_wall.wall_s))
          "bitwise identical"
          (Int64.bits_of_float sim_on = Int64.bits_of_float sim_off && out_off = out_on);
        let events = List.length (Obs_trace.entries tr) in
        let steps = Obs_prof.supersteps prof in
        let counted =
          Obs_metrics.count (Obs_metrics.counter (Obs_prof.metrics prof) "supersteps")
        in
        check (name ^ ": trace, metrics")
          (Printf.sprintf "%d events, %d / %d supersteps" events counted steps)
          "re-parses, agree"
          (events > 0 && steps > 0 && counted = steps
          && reparses (fun path -> Obs_trace.write tr ~path));
        let conservation = Float.abs (Obs_prof.attributed prof -. sim_on) /. sim_on in
        let folded = Obs_prof.folded prof in
        let stacks = List.length (String.split_on_char '\n' (String.trim folded)) in
        check (name ^ ": attribution")
          (Printf.sprintf "%.1e residual, %d folded stacks" conservation stacks)
          "<=1e-9, non-empty"
          (conservation <= 1e-9 && folded <> "");
        Obs_json.Obj
          [
            ("name", Obs_json.Str name);
            ("sim_seconds", Obs_json.Float sim_on);
            ("supersteps", Obs_json.Int steps);
            ("utilization", Obs_json.Float (Obs_prof.utilization prof));
            ("trace_events", Obs_json.Int events);
            ("folded_stacks", Obs_json.Int stacks);
          ])
      [
        ("fib-pc-z32", fib_compiled, fib_batch);
        ("nuts-pc-z16", nuts_compiled, nuts_batch);
      ]
  in
  (* ---- tenant trace ---- *)
  (* Sheds and ladder rejections are the only "bad" events under an
     infinite latency threshold, which makes the fire/silent contrast a
     pure admission-pressure readout. Burn threshold 6: the adversarial
     flood rejects >half its traffic (burn ~12 on a 5% budget) while the
     uniform trace's cold-start rejections stay near burn ~3. *)
  let slo_classes () =
    List.map
      (fun cls ->
        Obs_slo.class_config ~cls ~threshold:infinity ~burn_threshold:6. ())
      [ "latency"; "throughput"; "best-effort" ]
  in
  let digest (r : Tenant_load.result) =
    List.map
      (fun c ->
        ( c.Tenant_server.c_item.Admission.request.Request.id,
          c.Tenant_server.c_started,
          c.Tenant_server.c_finished,
          match c.Tenant_server.c_outputs with
          | None -> []
          | Some ts -> List.map Tensor.data ts ))
      r.Tenant_load.fair.Tenant_load.stats.Tenant_server.completions
  in
  let tenant ?sink ?slo () =
    Tenant_load.run ?seed ~n_requests ~verify:false ~keep_outputs:true ~baseline:false
      ?sink ?slo ()
  in
  let r_off = tenant () in
  let recorder = Obs_span.create () in
  (* The trace recorder is bounded: the gate needs it attached and its
     export well-formed, not the whole run's superstep timeline. *)
  let tr = Obs_trace.create ~limit:20_000 () in
  let prof = Obs_prof.create () in
  let r_on =
    tenant
      ~sink:
        (Obs_sink.fanout
           [
             Obs_span.sink recorder;
             Obs_trace.sink tr ~track:(Obs_trace.track tr "tenant") ~clock:(fun () -> 0.);
             Obs_prof.sink prof;
           ])
      ~slo:(Obs_slo.create ~classes:(slo_classes ()) ())
      ()
  in
  let s_off = r_off.Tenant_load.fair.Tenant_load.stats in
  let s_on = r_on.Tenant_load.fair.Tenant_load.stats in
  check "tenant: bare vs observed"
    (Printf.sprintf "%ss / %ss, %d / %d rounds, %d completions"
       (Table.si s_off.Tenant_server.makespan)
       (Table.si s_on.Tenant_server.makespan)
       s_off.Tenant_server.rounds s_on.Tenant_server.rounds
       (List.length (digest r_on)))
    "bitwise identical"
    (Int64.bits_of_float s_off.Tenant_server.makespan
     = Int64.bits_of_float s_on.Tenant_server.makespan
    && s_off.Tenant_server.rounds = s_on.Tenant_server.rounds
    && digest r_on <> []
    && digest r_off = digest r_on);
  check "tenant: trace and profiler"
    (Printf.sprintf "%d events, %d supersteps"
       (List.length (Obs_trace.entries tr))
       (Obs_prof.supersteps prof))
    "re-parses, profiled"
    (Obs_prof.supersteps prof > 0 && reparses (fun path -> Obs_trace.write tr ~path));
  let n_done = List.length s_on.Tenant_server.completions in
  let tree = Obs_span.validate recorder in
  check "tenant: span trees"
    (Printf.sprintf "%d traces, %d well-formed" tree.Obs_span.traces
       tree.Obs_span.well_formed)
    "one per completion, all well-formed"
    (Obs_span.all_well_formed recorder
    && tree.Obs_span.traces = n_done
    && Obs_span.count_named recorder "request" = n_done
    && Obs_span.dropped recorder = 0);
  let named = Obs_span.count_named recorder in
  check "tenant: lifecycle spans"
    (Printf.sprintf "%d preempted, %d migrate, %d restore, %d hit, %d compile"
       (named "preempted") (named "migrate") (named "restore")
       (named "cache-hit") (named "compile"))
    "all >=1"
    (named "preempted" >= 1
    && named "migrate" >= 1
    && named "restore" >= 1
    && named "cache-hit" >= 1
    && named "compile" >= 1);
  check "tenant: perfetto export"
    (Printf.sprintf "%d spans" (Obs_span.length recorder))
    "re-parses"
    (reparses (fun path -> Obs_span.write recorder ~path));
  (* ---- burn rate ---- *)
  let slo_run pattern =
    let slo = Obs_slo.create ~classes:(slo_classes ()) () in
    ignore
      (Tenant_load.run ?seed ~pattern ~n_requests:2000 ~verify:false
         ~baseline:false ~slo ());
    Obs_slo.fired_total slo
  in
  let adv = slo_run Tenant_load.Adversarial in
  let uni = slo_run Tenant_load.Uniform in
  check "burn rate: adversarial" (Printf.sprintf "%d alerts" adv) ">=1" (adv >= 1);
  check "burn rate: uniform" (Printf.sprintf "%d alerts" uni) "0" (uni = 0);
  Table.print_stdout
    ~header:[ "check"; "value"; "bar"; "status" ]
    ~rows:(List.rev !rows);
  let probes = regress_probes () in
  if (not fast) && seed = None then
    check_baseline ~stage:"observe" ~path:"BENCH_observe.json"
      (Obs_json.Obj
         [
           ("bench", Obs_json.Str "observe");
           ("source", Obs_json.Str "bench/main.exe observe");
           ( "workload",
             Obs_json.Str
               "fib z=32 and NUTS-on-gaussian z=16 under the pc VM, and the \
                20k-request bursty Zipf trace (fair arm only, one injected \
                device kill), each run bare and with every observer fanned \
                out (trace, profiler and metrics; spans and an SLO monitor on \
                the tenant trace); adversarial and uniform 2k traces for the \
                burn-rate monitor; fixed-seed simulated-cost probes for \
                `bench regress`" );
           ( "note",
             Obs_json.Str
               "the stage fails unless every observed run is bitwise \
                identical to its bare run (simulated clock included), the \
                traces and the Perfetto span export re-parse, profiler \
                attribution sums to the engine clock within 1e-9 relative \
                with non-empty folded stacks, every completion has a \
                well-formed span tree, preempt/migrate/restore spans are \
                present, and the burn-rate monitor fires on the adversarial \
                trace and stays silent on uniform; the probes section is the \
                `bench regress` baseline — deterministic, fixed-seed, \
                independent of AUTOBATCH_FAST (which runs 10k requests and \
                does not rewrite this file)" );
           ("pc_workloads", Obs_json.List pc_points);
           ("requests", Obs_json.Int n_requests);
           ("completions", Obs_json.Int n_done);
           ("spans", Obs_json.Int (Obs_span.length recorder));
           ("span_trees", Obs_span.stats_to_json tree);
           ( "lifecycle",
             Obs_json.Obj
               [
                 ("preempted", Obs_json.Int (named "preempted"));
                 ("migrate", Obs_json.Int (named "migrate"));
                 ("restore", Obs_json.Int (named "restore"));
                 ("cache_hit", Obs_json.Int (named "cache-hit"));
                 ("compile", Obs_json.Int (named "compile"));
               ] );
           ("slo_alerts_adversarial", Obs_json.Int adv);
           ("slo_alerts_uniform", Obs_json.Int uni);
           ("probes", Obs_json.List (List.map probe_to_json probes));
         ]);
  print_newline ();
  if !failed then begin
    prerr_endline
      "observe stage failed: an observer perturbed a run, an export was \
       malformed, attribution lost time, a span tree was malformed, or the \
       burn-rate monitor misbehaved";
    exit 1
  end

let run_regress () =
  (* Regression diff: re-run the fixed-seed probes and compare simulated
     cost and superstep counts against the committed BENCH_observe.json.
     Both sides are deterministic, so any drift is a real behavioural
     change: cost or superstep increases fail the stage; improvements
     pass with a reminder to re-baseline via `bench observe`. *)
  print_endline "== Simulated-cost regression vs committed BENCH_observe.json ==";
  let path = "BENCH_observe.json" in
  if not (Sys.file_exists path) then begin
    prerr_endline
      ("regress stage failed: " ^ path
     ^ " missing — run `bench observe` (full tier) to create the baseline");
    exit 1
  end;
  let doc =
    match
      Obs_json.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "regress stage failed: %s unparseable: %s\n" path e;
      exit 1
  in
  let baseline =
    match Obs_json.member "probes" doc with
    | Some (Obs_json.List ps) ->
      List.filter_map
        (fun p ->
          let str k =
            match Obs_json.member k p with
            | Some (Obs_json.Str s) -> Some s
            | _ -> None
          in
          let num k =
            match Obs_json.member k p with
            | Some (Obs_json.Float f) -> Some f
            | Some (Obs_json.Int n) -> Some (float_of_int n)
            | _ -> None
          in
          match (str "name", num "sim_seconds", num "supersteps") with
          | Some n, Some s, Some st -> Some (n, s, st)
          | _ -> None)
        ps
    | _ -> []
  in
  if baseline = [] then begin
    Printf.eprintf "regress stage failed: no probes section in %s\n" path;
    exit 1
  end;
  let fresh = regress_probes () in
  let failed = ref false in
  let improved = ref false in
  let rows =
    List.map
      (fun (name, sim0, steps0) ->
        match List.find_opt (fun (n, _, _, _) -> n = name) fresh with
        | None ->
          failed := true;
          [ name; "-"; "-"; "-"; "MISSING" ]
        | Some (_, sim, steps, _) ->
          let steps = float_of_int steps in
          let worse = sim > sim0 *. (1. +. 1e-9) || steps > steps0 in
          let better = sim < sim0 *. (1. -. 1e-9) || steps < steps0 in
          if worse then failed := true else if better then improved := true;
          [
            name;
            Printf.sprintf "%ss / %ss" (Table.si sim0) (Table.si sim);
            Printf.sprintf "%+.4f%%" ((sim -. sim0) /. sim0 *. 100.);
            Printf.sprintf "%.0f / %.0f" steps0 steps;
            (if worse then "REGRESSED" else if better then "improved" else "ok");
          ])
      baseline
  in
  Table.print_stdout
    ~header:[ "probe"; "sim base/now"; "delta"; "steps base/now"; "status" ]
    ~rows;
  if !improved then
    print_endline
      "note: simulated cost improved — re-baseline with `bench observe` \
       (full tier) when intentional";
  print_newline ();
  if !failed then begin
    prerr_endline
      "regress stage failed: simulated cost or supersteps regressed vs \
       BENCH_observe.json";
    exit 1
  end

let () =
  let rec parse seed stages = function
    | [] -> (seed, List.rev stages)
    | "--seed" :: v :: rest -> (
      match Int64.of_string_opt v with
      | Some s -> parse (Some s) stages rest
      | None ->
        Printf.eprintf "invalid --seed %S (want a 64-bit integer)\n" v;
        exit 1)
    | "--seed" :: [] ->
      Printf.eprintf "--seed needs a value\n";
      exit 1
    | s :: rest -> parse seed (s :: stages) rest
  in
  let seed, stages = parse None [] (List.tl (Array.to_list Sys.argv)) in
  let stages =
    match stages with
    | [] ->
      [ "micro"; "figure5"; "figure6"; "ablations"; "serve"; "resil"; "observe";
        "fuse"; "sched"; "tenant"; "eff"; "regress" ]
    | picked -> picked
  in
  List.iter
    (fun stage ->
      (* Every stage gets the same host-cost trailer: wall/CPU/alloc/GC
         from an Obs_wall probe around the whole stage. *)
      let probe = Obs_wall.probe () in
      Obs_wall.start probe;
      (match stage with
      | "micro" -> run_micro ()
      | "figure5" -> run_figure5 ?seed ()
      | "figure6" -> run_figure6 ?seed ()
      | "ablations" -> run_ablations ?seed ()
      | "serve" -> run_serve ?seed ()
      | "resil" -> run_resil ?seed ()
      | "observe" -> run_observe ?seed ()
      | "fuse" -> run_fuse ?seed ()
      | "sched" -> run_sched ?seed ()
      | "tenant" -> run_tenant ?seed ()
      | "eff" -> run_eff ?seed ()
      | "regress" -> run_regress ()
      | other ->
        Printf.eprintf
          "unknown stage %S (expected \
           micro|figure5|figure6|ablations|serve|resil|observe|fuse|sched|tenant|eff|regress)\n"
          other;
        exit 1);
      Printf.printf "[%s] %s\n\n%!" stage (Obs_wall.summary (Obs_wall.stop probe)))
    stages
