(* Tests for the divergence profiler: the Occupancy event's invariant on
   every runtime, Obs_prof attribution (conservation against the engine
   clock, golden folded-stacks export), the event-driven occupancy gauge,
   the per-primitive and stack counts derived from its rows, and that
   attaching it never perturbs a run. *)

let t = Alcotest.test_case

(* ---------- fixtures ---------- *)

let fib_compiled =
  lazy (Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib)

let fib_batch z =
  [ Tensor.init [| z |] (fun i -> float_of_int (3 + (i.(0) mod 5))) ]

(* fib at batch [z] (8 by default) on each runtime, returning outputs and
   the simulated clock; test_obs reuses these. *)
let run_pc_fib ?(z = 8) sink =
  let compiled = Lazy.force fib_compiled in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  (match sink with Some s -> Engine.set_sink engine s | None -> ());
  let config = { Pc_vm.default_config with engine = Some engine; sink } in
  let outs = Autobatch.run_pc ~config compiled ~batch:(fib_batch z) in
  (outs, Engine.elapsed engine)

let run_local_fib sink =
  let compiled = Lazy.force fib_compiled in
  let engine = Engine.create ~device:Device.cpu ~mode:Engine.Eager () in
  (match sink with Some s -> Engine.set_sink engine s | None -> ());
  let config = { Local_vm.default_config with engine = Some engine; sink } in
  let outs = Autobatch.run_local ~config compiled ~batch:(fib_batch 8) in
  (outs, Engine.elapsed engine)

let run_shard_fib ?mode sink =
  let compiled = Lazy.force fib_compiled in
  let config =
    {
      Sched_vm.default_config with
      plan = Sched_plan.off;
      mesh = Mesh.gpu_pod ~n:2 ();
      mode;
      sink;
    }
  in
  let r = Autobatch.run_sharded ~config compiled ~batch:(fib_batch 8) in
  (r.Sched_vm.outputs, r.Sched_vm.sim_time)

let occupancy ?(step = 1) ?(block = 0) ?(depth = 0) ~active ~live ~total ~width () =
  Obs_sink.Occupancy { shard = 0; step; block; active; live; total; width; depth }

(* ---------- every event kind has a distinct, stable tag ---------- *)

let all_events : Obs_sink.event list =
  (* One value per constructor; extending the event type without extending
     this list (and kind_name) is caught by the compiler's exhaustiveness
     check on kind_name itself, and this test pins the tag strings. *)
  [
    Obs_sink.Step { shard = 0; step = 1; block = 0 };
    Obs_sink.Launch { kind = Obs_sink.Kernel; name = "k" };
    Obs_sink.Launched { kind = Obs_sink.Kernel; name = "k"; t0 = 0.; t1 = 1. };
    Obs_sink.Collective { name = "all_reduce"; bytes = 8.; t0 = 0.; t1 = 1. };
    Obs_sink.Request_enqueued { id = 0; at = 0. };
    Obs_sink.Request_shed { id = 0; cls = "latency"; at = 0. };
    Obs_sink.Request_rejected { id = 0; cls = "latency"; reason = "queue-full"; at = 0. };
    Obs_sink.Request_completed
      { id = 0; cls = "latency"; queued = 0.; started = 0.; finished = 1. };
    Obs_sink.Checkpoint { step = 1; bytes = 8 };
    Obs_sink.Restore { step = 1; rolled_back = 0. };
    occupancy ~active:1 ~live:2 ~total:4 ~width:4 ~depth:1 ();
    Obs_sink.Migration { src_shard = 0; dst_shard = 1; member = 0; bytes = 8.; step = 1 };
    Obs_sink.Span
      { trace = 0; span = 0; parent = -1; track = 0; name = "request"; t0 = 0.; t1 = 1. };
    Obs_sink.Ladder { level = "normal"; occupancy = 0.; at = 0. };
    Obs_sink.Slo_alert
      { slo = "latency"; fired = true; burn_fast = 1.; burn_slow = 1.; at = 0. };
    Obs_sink.Round { round = 1; at = 0. };
  ]

let test_kind_names_distinct () =
  let tags = List.map Obs_sink.kind_name all_events in
  Alcotest.(check (list string))
    "stable tags"
    [
      "step"; "launch"; "launched"; "collective"; "enqueue"; "shed";
      "reject"; "complete"; "checkpoint"; "restore"; "occupancy";
      "migration"; "span"; "ladder"; "slo-alert"; "round";
    ]
    tags;
  Alcotest.(check int) "all distinct"
    (List.length tags)
    (List.length (List.sort_uniq compare tags))

let test_tag_shard_rewrites_occupancy () =
  let got = ref [] in
  let sink = Obs_sink.tag_shard 3 (fun ev -> got := ev :: !got) in
  sink (Obs_sink.Step { shard = 0; step = 1; block = 2 });
  sink (occupancy ~block:2 ~active:1 ~live:2 ~total:4 ~width:1 ~depth:7 ());
  sink (Obs_sink.Checkpoint { step = 1; bytes = 8 });
  match List.rev !got with
  | [
   Obs_sink.Step { shard = 3; _ };
   Obs_sink.Occupancy
     { shard = 3; active = 1; live = 2; total = 4; width = 1; depth = 7; _ };
   Obs_sink.Checkpoint _;
  ] ->
    ()
  | _ -> Alcotest.fail "tag_shard should rewrite Step and Occupancy shards only"

(* ---------- Occupancy invariant on every runtime ---------- *)

(* 0 <= active <= live <= total, on every event, from every runtime. *)
let occupancy_checker () =
  let seen = ref 0 and bad = ref 0 in
  let sink ev =
    match ev with
    | Obs_sink.Occupancy { active; live; total; _ } ->
      incr seen;
      if not (0 <= active && active <= live && live <= total) then incr bad
    | _ -> ()
  in
  (sink, seen, bad)

let check_occupancy name run =
  let sink, seen, bad = occupancy_checker () in
  run sink;
  Alcotest.(check bool) (name ^ ": saw occupancy events") true (!seen > 0);
  Alcotest.(check int) (name ^ ": invariant violations") 0 !bad

let test_occupancy_invariant_pc () =
  check_occupancy "pc" (fun sink -> ignore (run_pc_fib (Some sink)))

let test_occupancy_invariant_local () =
  check_occupancy "local" (fun sink -> ignore (run_local_fib (Some sink)))

let test_occupancy_invariant_shard () =
  check_occupancy "shard" (fun sink ->
      ignore (run_shard_fib ~mode:Engine.Fused (Some sink)))

(* Four fib requests through one shard of the serving runtime, behind a
   fresh tenant (its token bucket is mutable); returns the outputs in
   completion order and the makespan. *)
let run_server_fib sink =
  let compiled = Lazy.force fib_compiled in
  let tenant = Tenant.make ~id:0 ~name:"t0" () in
  let items =
    List.init 4 (fun id ->
        {
          Admission.tenant;
          request =
            Request.make ~id ~member:(id * 16) ~arrival:0.
              ~cost_hint:(float_of_int (4 + id))
              ~program:compiled
              ~inputs:[ Tensor.of_list [ float_of_int (4 + id) ] ]
              ();
          digest = 0L;
        })
  in
  let config =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
      Tenant_server.lanes_per_shard = 2;
      sink;
    }
  in
  let stats = Tenant_server.run ~config (Tenant_server.source_of_list items) in
  ( List.concat_map
      (fun c -> Option.get c.Tenant_server.c_outputs)
      stats.Tenant_server.completions,
    stats.Tenant_server.makespan )

let test_occupancy_invariant_server () =
  check_occupancy "server" (fun sink -> ignore (run_server_fib (Some sink)))

(* ---------- the occupancy gauge is event-fed ---------- *)

let test_occupancy_feeds_gauge () =
  (* The profiler's live-lane gauge and any other sink see the same
     events, so the superstep count equals the event count and
     mean_occupancy equals the ratio of the summed fields. *)
  let compiled = Lazy.force fib_compiled in
  let n = ref 0 and live_sum = ref 0 and total_sum = ref 0 in
  let counting = function
    | Obs_sink.Occupancy { live; total; _ } ->
      incr n;
      live_sum := !live_sum + live;
      total_sum := !total_sum + total
    | _ -> ()
  in
  let prof = Obs_prof.create () in
  let config =
    {
      Pc_vm.default_config with
      sink = Some (Obs_sink.fanout [ Obs_prof.sink prof; counting ]);
    }
  in
  ignore (Autobatch.run_pc ~config compiled ~batch:(fib_batch 8));
  Alcotest.(check bool) "saw events" true (!n > 0);
  Alcotest.(check int) "one gauge sample per event" !n (Obs_prof.supersteps prof);
  Alcotest.(check (float 0.))
    "mean occupancy is the event ratio"
    (float_of_int !live_sum /. float_of_int !total_sum)
    (Obs_prof.mean_occupancy prof);
  Alcotest.(check bool) "series non-empty" true (Obs_prof.occupancy_series prof <> [])

let test_occupancy_gauge () =
  let prof = Obs_prof.create () in
  let sink = Obs_prof.sink prof in
  Alcotest.(check (float 0.)) "no samples reads full" 1. (Obs_prof.mean_occupancy prof);
  for _ = 1 to 10 do
    sink (occupancy ~active:1 ~live:2 ~total:4 ~width:4 ())
  done;
  Alcotest.(check (float 0.)) "mean over samples" 0.5 (Obs_prof.mean_occupancy prof);
  Alcotest.(check int) "samples counted" 10 (Obs_prof.supersteps prof);
  let series = Obs_prof.occupancy_series prof in
  Alcotest.(check bool) "series non-empty" true (List.length series > 0);
  List.iter (fun (_, occ) -> Alcotest.(check (float 0.)) "bucket occupancy" 0.5 occ) series

let test_occupancy_gauge_compaction () =
  let prof = Obs_prof.create () in
  let sink = Obs_prof.sink prof in
  (* Twice the bucket budget of samples: the gauge must downsample, keep
     the step axis anchored at the start, and preserve the mean. *)
  for i = 1 to 1024 do
    let live = if i <= 512 then 4 else 0 in
    sink (occupancy ~active:live ~live ~total:4 ~width:4 ())
  done;
  let series = Obs_prof.occupancy_series prof in
  Alcotest.(check bool) "bounded" true (List.length series <= 256);
  (match series with
  | (first_step, first_occ) :: _ ->
    Alcotest.(check int) "anchored at step 0" 0 first_step;
    Alcotest.(check (float 0.)) "early buckets full" 1. first_occ
  | [] -> Alcotest.fail "empty series");
  Alcotest.(check (float 0.)) "mean preserved" 0.5 (Obs_prof.mean_occupancy prof);
  match List.rev series with
  | (_, last_occ) :: _ -> Alcotest.(check (float 0.)) "late buckets empty" 0. last_occ
  | [] -> ()

(* ---------- counts derived from the profiler's rows ---------- *)

(* Hand-fed rows over a one-block program: each of the block's ops runs
   over the superstep's lanes, so its counts follow from the row sums. *)
let test_derived_counts () =
  let open Lang in
  let compiled =
    Autobatch.compile ~input_shapes:[ Shape.scalar ]
      (program ~main:"f"
         [
           func "f" ~params:[ "x" ]
             [ return_ [ prim "add" [ prim "mul" [ var "x"; var "x" ]; var "x" ] ] ];
         ])
  in
  let ops = Profile.pc_ops compiled.Autobatch.stack in
  let prof = Obs_prof.create () in
  let sink = Obs_prof.sink prof in
  sink (occupancy ~active:3 ~live:4 ~total:8 ~width:8 ~depth:5 ());
  sink (occupancy ~active:5 ~live:6 ~total:8 ~width:8 ~depth:2 ());
  let d = Profile.derive ops prof in
  let mul = Profile.prim d "mul" in
  Alcotest.(check int) "calls" 2 mul.Profile.calls;
  Alcotest.(check int) "useful" 8 mul.Profile.useful;
  Alcotest.(check int) "issued" 16 mul.Profile.issued;
  Alcotest.(check (float 0.)) "utilization" 0.5 (Profile.lane_utilization mul);
  let grad = Profile.prim d "grad" in
  Alcotest.(check int) "unknown prim never issued" 0 grad.Profile.issued;
  Alcotest.(check (float 0.)) "unknown prim reads full" 1. (Profile.lane_utilization grad);
  Alcotest.(check (float 0.)) "overall" 0.5 (Obs_prof.utilization prof);
  Alcotest.(check int) "max depth keeps max" 5 (Obs_prof.max_depth prof);
  Alcotest.(check int) "no stack traffic" 0 (d.Profile.pushes + d.Profile.pops);
  (* Gathered execution issues fewer lanes than the batch. *)
  sink (occupancy ~active:2 ~live:2 ~total:8 ~width:2 ());
  Alcotest.(check int) "gathered issue" 18
    (Profile.prim (Profile.derive ops prof) "mul").Profile.issued;
  (* A fresh profiler has no rows. *)
  let empty = Obs_prof.create () in
  Alcotest.(check int) "empty" 0 (Obs_prof.supersteps empty);
  Alcotest.(check (float 0.)) "empty utilization" 1. (Obs_prof.utilization empty)

(* Derived call and lane counts equal what a counting wrapper around every
   primitive of the registry sees over the same run — on the pc VM and on
   the local VM under every execution style, over random programs (with
   and without a second, recursive function) and batch sizes. *)
let prop_derived_counts_exact =
  QCheck.Test.make ~name:"derived lane counts = counting wrapper" ~count:40
    (QCheck.pair Test_random_programs.arb_program (QCheck.int_range 1 7))
    (fun (prog, z) ->
      let calls : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
      let std = Prim.standard () in
      let reg = Prim.create_registry () in
      List.iter
        (fun name ->
          let p = Prim.find_exn std name in
          let n = ref 0 and lanes = ref 0 in
          Hashtbl.replace calls name (n, lanes);
          Prim.register reg
            {
              p with
              Prim.batched =
                (fun ~members args ->
                  incr n;
                  lanes := !lanes + Array.length members;
                  p.Prim.batched ~members args);
            })
        (Prim.names std);
      let compiled =
        Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
      in
      let batch =
        List.map
          (fun t -> Tensor.init [| z |] (fun i -> Tensor.get t [| i.(0) mod 5 |]))
          Test_random_programs.batch_inputs
      in
      let agrees label ops run =
        Hashtbl.iter (fun _ (n, l) -> n := 0; l := 0) calls;
        let prof = Obs_prof.create () in
        run (Obs_prof.sink prof);
        let d = Profile.derive ops prof in
        Hashtbl.iter
          (fun name (n, l) ->
            let got = Profile.prim d name in
            if got.Profile.calls <> !n || got.Profile.issued <> !l then
              QCheck.Test.fail_reportf
                "%s z=%d %s: derived %d calls / %d issued lanes, wrapper saw %d / %d"
                label z name got.Profile.calls got.Profile.issued !n !l)
          calls
      in
      let pc_ops = Profile.pc_ops compiled.Autobatch.stack
      and local_ops = Profile.local_ops compiled.Autobatch.cfg in
      agrees "pc" pc_ops (fun sink ->
          ignore
            (Autobatch.run_pc ~config:{ Pc_vm.default_config with sink = Some sink }
               compiled ~batch));
      List.iter
        (fun (label, style) ->
          agrees label local_ops (fun sink ->
              ignore
                (Autobatch.run_local
                   ~config:{ Local_vm.default_config with style; sink = Some sink }
                   compiled ~batch)))
        [
          ("local/mask", Local_vm.Masking);
          ("local/gather", Local_vm.Gather_scatter);
          ("local/adaptive", Local_vm.Adaptive 0.5);
        ];
      true)

(* What the profiler reports once the host gathers. NUTS on logistic
   regression runs [grad] on the active rows only (its flops per row
   dwarf the elements it moves), so a counting wrapper sees exactly the
   derived *useful* lanes, while the derived *issued* lanes stay the full
   width the engine prices: z per call. *)
let test_grad_rows_pinned () =
  let model = Logistic_model.model ~n:24 ~dim:4 () in
  let reg, _ = Nuts_dsl.setup ~model () in
  let grad = Prim.find_exn reg "grad" in
  let calls = ref 0 and rows = ref 0 in
  Prim.register reg
    {
      grad with
      Prim.batched =
        (fun ~members args ->
          incr calls;
          rows := !rows + Array.length members;
          grad.Prim.batched ~members args);
    };
  let q0 = Tensor.zeros [| 4 |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model)
      (Nuts_dsl.program
         ~params:(Nuts_dsl.params_of_config (Nuts.default_config ~eps ()))
         ())
  in
  let z = 8 in
  let prof = Obs_prof.create () in
  ignore
    (Autobatch.run_pc
       ~config:{ Pc_vm.default_config with sink = Some (Obs_prof.sink prof) }
       compiled
       ~batch:(Nuts_dsl.inputs ~q0 ~eps ~n_iter:3 ~n_burn:0 ~batch:z ()));
  let d = Profile.prim (Profile.derive (Profile.pc_ops compiled.Autobatch.stack) prof) "grad" in
  Alcotest.(check int) "calls" !calls d.Profile.calls;
  Alcotest.(check int) "host rows = useful lanes" !rows d.Profile.useful;
  Alcotest.(check int) "issued lanes = z x calls" (z * !calls) d.Profile.issued;
  Alcotest.(check bool) "some calls gathered" true (d.Profile.useful < d.Profile.issued)

(* Figure 6's gradient utilization is priced at full width, so active-row
   host execution leaves it where it was (the literal predates it). At
   dim 20 the correlated Gaussian's [grad] gathers. *)
let test_figure6_util_pinned () =
  match (Figure6.run ~dim:20 ~batch_sizes:[ 8 ] ~n_iter:3 ()).Figure6.points with
  | [ p ] ->
    Alcotest.(check (float 0.)) "pc grad utilization" 0x1.3cf3cf3cf3cf4p-1
      p.Figure6.pc_util;
    Alcotest.(check (float 0.)) "local grad utilization" 0x1.5e50d79435e51p-2
      p.Figure6.local_util
  | _ -> Alcotest.fail "one point expected"

(* ---------- attribution: conservation against the engine clock ---------- *)

(* The engine clock is what the rows attribute less what restores
   rolled back. *)
let check_conservation name total prof =
  let attributed = Obs_prof.attributed prof -. Obs_prof.rolled_back prof in
  let rel = Float.abs (attributed -. total) /. total in
  if rel > 1e-9 then
    Alcotest.failf "%s: attributed %.12g vs engine %.12g (rel %.3g)" name
      attributed total rel;
  Alcotest.(check bool) (name ^ ": has block rows") true
    (Obs_prof.block_rows prof <> []);
  List.iter
    (fun (r : Obs_prof.block_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: block %d effective <= charged" name r.block)
        true
        (r.effective <= r.charged +. 1e-12))
    (Obs_prof.block_rows prof);
  let u = Obs_prof.utilization prof in
  Alcotest.(check bool) (name ^ ": utilization in (0,1]") true (u > 0. && u <= 1.);
  Alcotest.(check (float 1e-9))
    (name ^ ": waste fractions complete the lane budget")
    1.
    (u +. Obs_prof.divergence_waste prof +. Obs_prof.idle_waste prof)

let test_conservation_pc () =
  let prof = Obs_prof.create () in
  let _, clock = run_pc_fib ~z:16 (Some (Obs_prof.sink prof)) in
  check_conservation "pc" clock prof

let test_conservation_shard () =
  (* Each shard has its own engine; attribution must conserve the sum of
     the per-shard clocks (collectives live on the mesh timeline and are
     excluded on both sides). *)
  let compiled = Lazy.force fib_compiled in
  let prof = Obs_prof.create () in
  let config =
    {
      Sched_vm.default_config with
      plan = Sched_plan.off;
      mesh = Mesh.gpu_pod ~n:2 ();
      mode = Some Engine.Fused;
      sink = Some (Obs_prof.sink prof);
    }
  in
  let r = Autobatch.run_sharded ~config compiled ~batch:(fib_batch 16) in
  let total = Array.fold_left ( +. ) 0. r.Sched_vm.shard_times in
  check_conservation "shard" total prof

(* Serving runs: the profiler sees every shard engine's spans through
   the server's sink, and they sum to the engines' merged clock. A
   device kill rewinds its shard's engine to a checkpoint while the
   profiler keeps the spans it saw; the [Restore] event says how many
   engine seconds went back, and the profiler books them. *)
let test_conservation_server () =
  List.iter
    (fun (name, kill_round) ->
      let prof = Obs_prof.create () in
      let r =
        Tenant_load.run ~n_requests:200 ~baseline:false ~kill_round ~verify:false
          ~sink:(Obs_prof.sink prof) ()
      in
      let stats = r.Tenant_load.fair.Tenant_load.stats in
      let killed = stats.Tenant_server.restores > 0 in
      Alcotest.(check bool) (name ^ ": restored iff killed") (kill_round >= 0) killed;
      Alcotest.(check bool) (name ^ ": rolled back iff restored") killed
        (Obs_prof.rolled_back prof > 0.);
      check_conservation name stats.Tenant_server.counters.Engine.Counters.elapsed_seconds
        prof)
    [ ("server", -1); ("server, device kill", 40) ]

(* Two functions under the local VM: attribution conserves the engine
   clock, and the blocks of [main] and [fib] keep separate rows — the
   runtime reports program-unique block ids. *)
let test_conservation_local () =
  let compiled =
    let open Lang in
    let open Lang.Infix in
    Autobatch.compile ~input_shapes:[ Shape.scalar ]
      (program ~main:"main"
         (func "main" ~params:[ "n" ]
            [
              if_
                (var "n" <= flt 4.)
                [ call [ "r" ] "fib" [ var "n" ] ]
                [ call [ "r" ] "fib" [ var "n" - flt 1. ] ];
              return_ [ var "r" + flt 1. ];
            ]
         :: Test_programs.fib.funcs))
  in
  let prof = Obs_prof.create () in
  let sink = Obs_prof.sink prof in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.set_sink engine sink;
  let config =
    { Local_vm.default_config with engine = Some engine; sink = Some sink }
  in
  ignore (Autobatch.run_local ~config compiled ~batch:(fib_batch 16));
  check_conservation "local" (Engine.elapsed engine) prof;
  let cfg = compiled.Autobatch.cfg in
  let ids f =
    let base = Cfg.block_base cfg f in
    List.init (Array.length (Cfg.find_func_exn cfg f).Cfg.blocks) (fun k -> base + k)
  in
  let rows =
    List.sort compare
      (List.map (fun (r : Obs_prof.block_row) -> r.block) (Obs_prof.block_rows prof))
  in
  let main_ids = ids "main" and fib_ids = ids "fib" in
  let some_in range = List.exists (fun b -> List.mem b range) rows in
  Alcotest.(check bool) "rows are blocks of the program" true
    (List.for_all (fun b -> List.mem b (main_ids @ fib_ids)) rows);
  Alcotest.(check bool) "both functions have rows" true
    (some_in main_ids && some_in fib_ids);
  (* Function-local ids would fold both functions into one range. *)
  Alcotest.(check bool) "functions keep separate rows" true
    (List.length rows > max (List.length main_ids) (List.length fib_ids))

(* ---------- the profiler must not perturb execution ---------- *)

(* Run a workload bare and again with [sink] attached: outputs and the
   engine clock must be bitwise identical. test_obs reuses this with
   every observer fanned out on one sink. *)
let check_unperturbed name sink run =
  let outs_off, clock_off = run None in
  let outs_on, clock_on = run (Some sink) in
  Alcotest.(check bool)
    (name ^ ": clock identical")
    true
    (Int64.equal (Int64.bits_of_float clock_off) (Int64.bits_of_float clock_on));
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output %d bitwise" name i)
        true (Tensor.equal a b))
    (List.combine outs_off outs_on)

let check_prof_unperturbed name run =
  let prof = Obs_prof.create () in
  check_unperturbed name (Obs_prof.sink prof) run;
  Alcotest.(check bool)
    (name ^ ": profiled something")
    true
    (Obs_prof.supersteps prof > 0)

let test_prof_off_on_pc () = check_prof_unperturbed "pc" run_pc_fib
let test_prof_off_on_local () = check_prof_unperturbed "local" run_local_fib

let test_prof_off_on_shard () =
  check_prof_unperturbed "shard" (run_shard_fib ~mode:Engine.Fused)

let test_prof_off_on_server () = check_prof_unperturbed "server" run_server_fib

(* ---------- golden folded-stacks export ---------- *)

(* A hand-fed event sequence covering every attribution path: two framed
   blocks (one with divergence), a frameless block, a bookkeeping kernel,
   and a collective on its own timeline. Every engine charge has a span,
   back to back, so attribution sums to the engine clock. The folded
   export is compared byte-for-byte with test/folded_golden.txt;
   regenerate every golden at once with AUTOBATCH_BLESS=/abs/path/to/test
   (the directory to write into) after a deliberate format change. *)
let golden_prof () =
  let frames = [| [| "main"; "main#0" |]; [| "main"; "f"; "f#0" |] |] in
  let p = Obs_prof.create ~frames () in
  let s = Obs_prof.sink p in
  s (Obs_sink.Step { shard = 0; step = 1; block = 0 });
  s (occupancy ~step:1 ~block:0 ~active:4 ~live:6 ~total:8 ~width:8 ());
  s (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = "block 0"; t0 = 0.; t1 = 1e-3 });
  s (Obs_sink.Launched
       { kind = Obs_sink.Kernel; name = "transfer"; t0 = 1e-3; t1 = 1.1e-3 });
  s (Obs_sink.Step { shard = 0; step = 2; block = 1 });
  s (occupancy ~step:2 ~block:1 ~active:2 ~live:2 ~total:8 ~width:8 ());
  s (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = "block 1"; t0 = 1.1e-3; t1 = 2.1e-3 });
  s (Obs_sink.Collective
       { name = "all_reduce"; bytes = 4096.; t0 = 10.; t1 = 10.3 });
  s (Obs_sink.Step { shard = 0; step = 3; block = 2 });
  s (occupancy ~step:3 ~block:2 ~active:8 ~live:8 ~total:8 ~width:8 ());
  s (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = "block 2"; t0 = 2.1e-3; t1 = 2.3e-3 });
  p

let test_folded_golden () =
  let p = golden_prof () in
  (* The synthetic feed's books first: engine clock ends at 2.3e-3. *)
  Alcotest.(check (float 1e-15)) "attributed = engine clock" 2.3e-3
    (Obs_prof.attributed p);
  Alcotest.(check (float 1e-15)) "collective excluded" 0.3
    (Obs_prof.collective_time p);
  Alcotest.(check int) "supersteps" 3 (Obs_prof.supersteps p);
  Alcotest.(check (float 1e-12)) "utilization" (14. /. 24.)
    (Obs_prof.utilization p);
  Alcotest.(check (float 1e-12)) "divergence waste" (2. /. 24.)
    (Obs_prof.divergence_waste p);
  Alcotest.(check (float 1e-12)) "idle waste" (8. /. 24.)
    (Obs_prof.idle_waste p);
  Result.iter_error Alcotest.fail
    (Golden.check ~path:"folded_golden.txt" (Obs_prof.folded p));
  (* A block span before any Step has no block to charge: it is not
     booked, so attribution falls short of the engine clock. *)
  let q = Obs_prof.create () in
  Obs_prof.sink q
    (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = "block ?"; t0 = 0.; t1 = 1e-4 });
  Alcotest.(check (float 0.)) "context-less span not booked" 0.
    (Obs_prof.attributed q)

(* ---------- live folded export over the real callgraph ---------- *)

let test_live_folded () =
  let compiled = Lazy.force fib_compiled in
  let frames =
    Profile.flame_frames compiled.Autobatch.stack compiled.Autobatch.cfg
  in
  Alcotest.(check int) "one frame stack per merged block"
    (Array.length compiled.Autobatch.stack.Stack_ir.origin)
    (Array.length frames);
  Array.iter
    (fun stack ->
      Alcotest.(check bool) "stack rooted at entry" true
        (Array.length stack >= 2 && stack.(0) = "fib");
      let leaf = stack.(Array.length stack - 1) in
      Alcotest.(check bool) "leaf is fn#local" true
        (String.length leaf > 4 && String.contains leaf '#'))
    frames;
  let prof = Obs_prof.create ~frames () in
  let sink = Obs_prof.sink prof in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.set_sink engine sink;
  let config =
    { Pc_vm.default_config with engine = Some engine; sink = Some sink }
  in
  ignore (Autobatch.run_pc ~config compiled ~batch:(fib_batch 8));
  let folded = Obs_prof.folded prof in
  Alcotest.(check bool) "non-empty" true (String.length folded > 0);
  let lines = String.split_on_char '\n' (String.trim folded) in
  List.iter
    (fun line ->
      (* flamegraph.pl grammar: "frame(;frame)* <positive int>". *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no weight separator: %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let weight = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool) "stack non-empty" true (String.length stack > 0);
        (match int_of_string_opt weight with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.failf "bad weight in %S" line))
    lines;
  Alcotest.(check bool) "some stack reaches a fib block" true
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "fib;")
       lines)

let suites =
  [
    ( "prof",
      [
        t "event tags distinct and stable" `Quick test_kind_names_distinct;
        t "tag_shard rewrites occupancy" `Quick test_tag_shard_rewrites_occupancy;
        t "occupancy invariant pc" `Quick test_occupancy_invariant_pc;
        t "occupancy invariant local" `Quick test_occupancy_invariant_local;
        t "occupancy invariant shard" `Quick test_occupancy_invariant_shard;
        t "occupancy invariant server" `Quick test_occupancy_invariant_server;
        t "occupancy feeds the gauge" `Quick test_occupancy_feeds_gauge;
        t "occupancy gauge" `Quick test_occupancy_gauge;
        t "gauge compaction" `Quick test_occupancy_gauge_compaction;
        t "derived prim and stack counts" `Quick test_derived_counts;
        QCheck_alcotest.to_alcotest prop_derived_counts_exact;
        t "grad host rows = useful lanes" `Quick test_grad_rows_pinned;
        t "conservation pc" `Quick test_conservation_pc;
        t "conservation shard" `Quick test_conservation_shard;
        t "figure 6 utilization pinned" `Quick test_figure6_util_pinned;
        t "conservation local" `Quick test_conservation_local;
        t "conservation server" `Quick test_conservation_server;
        t "profiler off/on pc" `Quick test_prof_off_on_pc;
        t "profiler off/on local" `Quick test_prof_off_on_local;
        t "profiler off/on shard" `Quick test_prof_off_on_shard;
        t "profiler off/on server" `Quick test_prof_off_on_server;
        t "golden folded stacks" `Quick test_folded_golden;
        t "live folded over the callgraph" `Quick test_live_folded;
      ] );
  ]
