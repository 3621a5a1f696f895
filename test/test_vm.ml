(* Unit tests for the runtime layer: scheduling, stacked storage, and
   VM-specific behaviours (error handling, input immutability, cost
   accounting hooks). *)

let t = Alcotest.test_case

(* ---------- Sched ---------- *)

let test_sched_earliest () =
  Alcotest.(check (option int)) "first nonzero" (Some 1)
    (Sched_policy.pick Sched_policy.Earliest ~last:5 ~counts:[| 0; 3; 1 |]);
  Alcotest.(check (option int)) "none" None
    (Sched_policy.pick Sched_policy.Earliest ~last:0 ~counts:[| 0; 0 |])

let test_sched_most_active () =
  Alcotest.(check (option int)) "argmax" (Some 1)
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 2; 5; 3 |]);
  Alcotest.(check (option int)) "tie -> earliest" (Some 0)
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 5; 5; 3 |]);
  Alcotest.(check (option int)) "none" None
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 0; 0; 0 |])

let test_sched_round_robin () =
  let counts = [| 1; 1; 0; 1 |] in
  Alcotest.(check (option int)) "after 0 -> 1" (Some 1)
    (Sched_policy.pick Sched_policy.Round_robin ~last:0 ~counts);
  Alcotest.(check (option int)) "after 1 skips 2 -> 3" (Some 3)
    (Sched_policy.pick Sched_policy.Round_robin ~last:1 ~counts);
  Alcotest.(check (option int)) "wraps" (Some 0)
    (Sched_policy.pick Sched_policy.Round_robin ~last:3 ~counts);
  Alcotest.(check (option int)) "initial -1" (Some 0)
    (Sched_policy.pick Sched_policy.Round_robin ~last:(-1) ~counts)

let prop_sched_picks_nonzero =
  QCheck.Test.make ~name:"sched picks only runnable blocks" ~count:300
    (QCheck.triple
       (QCheck.oneofl Sched_policy.all)
       (QCheck.int_range (-1) 10)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) (QCheck.int_bound 5)))
    (fun (policy, last, counts) ->
      let counts = Array.of_list counts in
      match Sched_policy.pick policy ~last ~counts with
      | Some i -> counts.(i) > 0
      | None -> Array.for_all (fun c -> c = 0) counts)

(* ---------- Stacked ---------- *)

let test_stacked_basic () =
  let s = Stacked.create ~z:3 ~elem:[| 2 |] () in
  Alcotest.(check (array int)) "top shape" [| 3; 2 |] (Tensor.shape (Stacked.top s));
  let all = [| true; true; true |] in
  Stacked.write_top_masked s ~mask:all
    (Tensor.create [| 3; 2 |] [| 1.; 1.; 2.; 2.; 3.; 3. |]);
  (* Save member 1 only, then overwrite everyone. *)
  Stacked.push s ~mask:[| false; true; false |];
  Stacked.write_top_masked s ~mask:all (Tensor.full [| 3; 2 |] 9.);
  Alcotest.(check int) "depth member 1" 1 (Stacked.depth s 1);
  Alcotest.(check int) "depth member 0" 0 (Stacked.depth s 0);
  Stacked.pop s ~mask:[| false; true; false |];
  let top = Stacked.top s in
  Alcotest.(check (float 0.)) "member 1 restored" 2. (Tensor.get top [| 1; 0 |]);
  Alcotest.(check (float 0.)) "member 0 untouched" 9. (Tensor.get top [| 0; 0 |])

let test_stacked_growth () =
  let s = Stacked.create ~z:2 ~elem:[||] ~initial_depth:1 () in
  let all = [| true; true |] in
  for i = 1 to 20 do
    Stacked.write_top_masked s ~mask:all (Tensor.full [| 2 |] (float_of_int i));
    Stacked.push s ~mask:all
  done;
  Alcotest.(check bool) "capacity grew" true (Stacked.capacity s >= 20);
  Alcotest.(check int) "high water" 20 (Stacked.high_water s);
  (* Pop everything back in LIFO order. *)
  for i = 20 downto 1 do
    Stacked.pop s ~mask:all;
    Alcotest.(check (float 0.)) "LIFO restore" (float_of_int i)
      (Tensor.get (Stacked.top s) [| 0 |])
  done

let test_stacked_underflow () =
  let s = Stacked.create ~z:1 ~elem:[||] () in
  Alcotest.check_raises "underflow"
    (Invalid_argument "Stacked.pop: underflow for member 0") (fun () ->
      Stacked.pop s ~mask:[| true |])

let prop_stacked_push_pop_identity =
  QCheck.Test.make ~name:"push;pop is identity on the top" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.bool) (fun mask_list ->
      let z = List.length mask_list in
      let mask = Array.of_list mask_list in
      let s = Stacked.create ~z ~elem:[| 2 |] () in
      let v = Tensor.init [| z; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1))) in
      Stacked.write_top_masked s ~mask:(Array.make z true) v;
      let before = Tensor.copy (Stacked.top s) in
      Stacked.push s ~mask;
      Stacked.pop s ~mask;
      Tensor.equal before (Stacked.top s))

(* ---------- VM behaviours ---------- *)

let fib_compiled =
  Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib

let test_vm_inputs_not_mutated () =
  (* Regression: the local VM once wrote through to caller tensors. *)
  let inputs = Tensor.of_list [ 5.; 6.; 7. ] in
  let snapshot = Tensor.copy inputs in
  ignore (Autobatch.run_local fib_compiled ~batch:[ inputs ]);
  Alcotest.(check bool) "local VM leaves inputs intact" true
    (Tensor.equal snapshot inputs);
  ignore (Autobatch.run_pc fib_compiled ~batch:[ inputs ]);
  Alcotest.(check bool) "pc VM leaves inputs intact" true (Tensor.equal snapshot inputs)

let test_vm_rerun_same_result () =
  let batch = [ Tensor.of_list [ 8.; 9. ] ] in
  let a = Autobatch.run_pc fib_compiled ~batch in
  let b = Autobatch.run_pc fib_compiled ~batch in
  Alcotest.(check bool) "pc deterministic" true (Tensor.equal (List.hd a) (List.hd b));
  let c = Autobatch.run_local fib_compiled ~batch in
  let d = Autobatch.run_local fib_compiled ~batch in
  Alcotest.(check bool) "local deterministic" true (Tensor.equal (List.hd c) (List.hd d))

let test_vm_bad_inputs () =
  Alcotest.check_raises "local: scalar input"
    (Invalid_argument "Local_vm: inputs must carry a leading batch dimension")
    (fun () -> ignore (Autobatch.run_local fib_compiled ~batch:[ Tensor.scalar 1. ]));
  Alcotest.check_raises "local: no inputs"
    (Invalid_argument "Local_vm: at least one input required") (fun () ->
      ignore (Autobatch.run_local fib_compiled ~batch:[]));
  Alcotest.check_raises "pc: input count"
    (Invalid_argument "Pc_vm: input count mismatch") (fun () ->
      ignore
        (Autobatch.run_pc fib_compiled
           ~batch:[ Tensor.of_list [ 1. ]; Tensor.of_list [ 2. ] ]))

let test_vm_empty_active () =
  Alcotest.check_raises "empty active set"
    (Invalid_argument "Local_vm: initial active set is empty") (fun () ->
      ignore
        (Local_vm.run_active fib_compiled.Autobatch.registry fib_compiled.Autobatch.cfg
           ~batch:[ Tensor.of_list [ 1.; 2. ] ]
           ~active:[| false; false |]))

let test_vm_partial_active () =
  let batch = [ Tensor.of_list [ 3.; 4.; 5. ] ] in
  let out =
    Local_vm.run_active fib_compiled.Autobatch.registry fib_compiled.Autobatch.cfg
      ~batch ~active:[| true; false; true |]
  in
  let data = Tensor.data (List.hd out) in
  Alcotest.(check (float 0.)) "active member 0" 3. data.(0);
  Alcotest.(check (float 0.)) "active member 2" 8. data.(2)

let test_vm_step_limit () =
  let infinite =
    Lang.program ~main:"spin"
      [
        Lang.func "spin" ~params:[ "x" ]
          [
            Lang.while_ (Lang.prim "ge" [ Lang.var "x"; Lang.flt 0. ])
              [ Lang.assign "x" (Lang.prim "add" [ Lang.var "x"; Lang.flt 1. ]) ];
            Lang.return_ [ Lang.var "x" ];
          ];
      ]
  in
  let compiled = Autobatch.compile ~input_shapes:[ Shape.scalar ] infinite in
  let batch = [ Tensor.of_list [ 0. ] ] in
  Alcotest.check_raises "local step limit" Ir_util.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_local
           ~config:{ Local_vm.default_config with max_steps = 100 }
           compiled ~batch));
  Alcotest.check_raises "pc step limit" Ir_util.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_pc
           ~config:{ Pc_vm.default_config with max_steps = 100 }
           compiled ~batch));
  Alcotest.check_raises "interp step limit" Ir_util.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_single ~max_steps:100 compiled ~member:0
           ~args:[ Tensor.scalar 0. ]))

let test_vm_engine_accounting () =
  let engine = Engine.create ~device:Device.cpu ~mode:Engine.Eager () in
  let config = { Local_vm.default_config with engine = Some engine } in
  ignore (Autobatch.run_local ~config fib_compiled ~batch:[ Tensor.of_list [ 6. ] ]);
  let c = (Engine.snapshot engine).Engine.at in
  Alcotest.(check bool) "time advanced" true (Engine.elapsed engine > 0.);
  Alcotest.(check bool) "blocks executed" true (c.Engine.Counters.blocks > 0);
  Alcotest.(check bool) "host calls for recursion" true (c.Engine.Counters.host_calls > 0);
  let engine2 = Engine.create ~device:Device.cpu ~mode:Engine.Fused () in
  let config2 = { Pc_vm.default_config with engine = Some engine2 } in
  ignore (Autobatch.run_pc ~config:config2 fib_compiled ~batch:[ Tensor.of_list [ 6. ] ]);
  let c2 = (Engine.snapshot engine2).Engine.at in
  Alcotest.(check int) "pc has no host calls" 0 c2.Engine.Counters.host_calls;
  Alcotest.(check bool) "pc fused launches" true (c2.Engine.Counters.fused_launches > 0)

let test_pc_max_depth_profiled () =
  let prof = Obs_prof.create () in
  let config = { Pc_vm.default_config with sink = Some (Obs_prof.sink prof) } in
  ignore (Autobatch.run_pc ~config fib_compiled ~batch:[ Tensor.of_list [ 10. ] ]);
  (* fib(10) recursion depth is at least 5 pc frames. *)
  Alcotest.(check bool) "depth recorded" true (Obs_prof.max_depth prof >= 5);
  let d = Profile.derive (Profile.pc_ops fib_compiled.Autobatch.stack) prof in
  Alcotest.(check bool) "pushes counted" true (d.Profile.pushes > 0);
  Alcotest.(check int) "pushes balance pops" d.Profile.pushes d.Profile.pops

let test_pc_shape_change_rejected () =
  (* A program whose variable changes element shape across writes must be
     rejected by the runtime (static shapes are the contract). *)
  let bad =
    Lang.program ~main:"m"
      [
        Lang.func "m" ~params:[ "x" ]
          [
            Lang.assign "y" (Lang.var "x");
            Lang.assign "y" (Lang.vec [| 1.; 2. |]);
            Lang.return_ [ Lang.prim "sum" [ Lang.var "y" ] ];
          ];
      ]
  in
  (* Shape inference rejects it at compile time... *)
  (match Autobatch.compile ~input_shapes:[ Shape.scalar ] bad with
  | _ -> Alcotest.fail "expected shape conflict"
  | exception Shape_infer.Error _ -> ());
  (* ... and the lazy-allocation runtime rejects it at run time. *)
  let compiled = Autobatch.compile bad in
  (match Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 1. ] ] with
  | _ -> Alcotest.fail "expected runtime shape error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions shape change" true
      (String.length msg > 0))

let suites =
  [
    ( "sched",
      [
        t "earliest" `Quick test_sched_earliest;
        t "most active" `Quick test_sched_most_active;
        t "round robin" `Quick test_sched_round_robin;
        QCheck_alcotest.to_alcotest prop_sched_picks_nonzero;
      ] );
    ( "stacked",
      [
        t "masked push/pop" `Quick test_stacked_basic;
        t "growth and LIFO" `Quick test_stacked_growth;
        t "underflow" `Quick test_stacked_underflow;
        QCheck_alcotest.to_alcotest prop_stacked_push_pop_identity;
      ] );
    ( "vm",
      [
        t "inputs not mutated" `Quick test_vm_inputs_not_mutated;
        t "reruns deterministic" `Quick test_vm_rerun_same_result;
        t "bad inputs rejected" `Quick test_vm_bad_inputs;
        t "empty active set rejected" `Quick test_vm_empty_active;
        t "partial active set" `Quick test_vm_partial_active;
        t "step limits" `Quick test_vm_step_limit;
        t "engine accounting" `Quick test_vm_engine_accounting;
        t "pc depth instrumented" `Quick test_pc_max_depth_profiled;
        t "shape changes rejected" `Quick test_pc_shape_change_rejected;
      ] );
  ]

(* ---------- the pre-resolved lane pool ---------- *)

(* One pool, several load -> step* -> retire cycles: lanes that held a
   deep recursion are recycled for shallow requests and vice versa, and
   every retired row must equal the single-example interpreter. *)
let test_lanes_reusable () =
  let reg = fib_compiled.Autobatch.registry and stack = fib_compiled.Autobatch.stack in
  let z = 3 in
  let lanes = Pc_vm.Lanes.create reg stack ~z in
  let member = ref 0 in
  List.iter
    (fun ns ->
      List.iteri
        (fun lane n ->
          Pc_vm.Lanes.load lanes ~lane ~member:!member ~inputs:[ Tensor.scalar n ];
          incr member)
        ns;
      while Pc_vm.Lanes.step lanes do
        ()
      done;
      List.iteri
        (fun lane n ->
          let got = Pc_vm.Lanes.retire lanes ~lane in
          let want =
            Autobatch.run_single fib_compiled
              ~member:(Pc_vm.Lanes.member lanes ~lane)
              ~args:[ Tensor.scalar n ]
          in
          List.iter2
            (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "fib %g in lane %d" n lane)
                true (Tensor.equal a b))
            want got)
        ns)
    [ [ 12.; 11.; 10. ]; [ 3.; 1.; 5. ]; [ 9.; 0.; 13. ]; [ 2.; 2.; 2. ] ]

(* A program compiled without input shapes allocates each variable on its
   first write. Capturing before some variable exists and restoring after
   it does must drop that variable again: the replay then passes through
   exactly the states of the uninterrupted run, image for image. *)
let test_lanes_lazy_restore () =
  let compiled = Autobatch.compile Test_programs.fib in
  let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
  let z = 4 in
  let lanes = Pc_vm.Lanes.create reg stack ~z in
  List.iteri
    (fun lane n -> Pc_vm.Lanes.load lanes ~lane ~member:lane ~inputs:[ Tensor.scalar n ])
    [ 6.; 2.; 8.; 4. ];
  ignore (Pc_vm.Lanes.step lanes);
  let img = Pc_vm.Lanes.capture lanes in
  let drain () =
    let trace = ref [] in
    while Pc_vm.Lanes.step lanes do
      trace := Pc_vm.Lanes.capture lanes :: !trace
    done;
    (List.rev !trace, Pc_vm.Lanes.outputs lanes)
  in
  let trace, outs = drain () in
  let vars (i : Pc_vm.Lanes.image) = List.length i.Pc_vm.Lanes.li_store in
  Alcotest.(check bool) "variables first written after the capture" true
    (vars (Pc_vm.Lanes.capture lanes) > vars img);
  Pc_vm.Lanes.restore lanes img;
  Alcotest.(check int) "restored store is the image's" (vars img)
    (vars (Pc_vm.Lanes.capture lanes));
  let trace', outs' = drain () in
  Alcotest.(check int) "same supersteps" (List.length trace) (List.length trace');
  Alcotest.(check bool) "every replayed image equals the original" true
    (trace = trace');
  List.iter2
    (fun a b -> Alcotest.(check bool) "outputs bitwise" true (Tensor.equal a b))
    outs outs'

(* The engine charges and lane counts of fib, pinned to the values the
   per-step interpreter produced before blocks were pre-resolved (the
   lane counts read off a profiler and the program's op table). The
   naive arm also prices the O4 gathers and O5 pop+push writes.
   Statically shaped and lazily allocated builds must agree. *)
let accounting_cases () =
  let naive =
    { Pc_vm.default_config with top_cache = false; naive_stack_writes = true }
  in
  [
    ( "gpu fused",
      Pc_vm.default_config,
      Engine.create ~device:Device.gpu ~mode:Engine.Fused,
      [ 6.; 8. ],
      (0, 201, 0x1.d2p+9, 0x1.5d8p+14, 0x1.8b2eed49c572cp-6),
      (201, 66, 66, 8, 0x1.5cf9a1c051833p-1) );
    ( "cpu eager naive",
      naive,
      Engine.create ~device:Device.cpu ~mode:Engine.Eager,
      [ 9.; 4.; 11. ],
      (4083, 876, 0x1.7e5p+12, 0x1.b48cp+17, 0x1.d44b9522e9138p-4),
      (876, 291, 289, 11, 0x1.d84176105d841p-2) );
  ]

(* Runs every case on both builds and hands [check] the label maker, the
   case's expected values, the engine, and the profiler of the run with
   the counts derived from it. *)
let each_accounting_run check =
  let lazy_compiled = Autobatch.compile Test_programs.fib in
  List.iter
    (fun (build, compiled) ->
      List.iter
        (fun (name, config, engine, batch, charges, counts) ->
          let label what = Printf.sprintf "%s %s: %s" build name what in
          let engine = engine () and prof = Obs_prof.create () in
          let config =
            { config with Pc_vm.engine = Some engine; sink = Some (Obs_prof.sink prof) }
          in
          ignore (Autobatch.run_pc ~config compiled ~batch:[ Tensor.of_list batch ]);
          let derived = Profile.derive (Profile.pc_ops compiled.Autobatch.stack) prof in
          check label charges counts engine (prof, derived))
        (accounting_cases ()))
    [ ("static", fib_compiled); ("lazy", lazy_compiled) ]

let test_lanes_engine_golden () =
  each_accounting_run
    (fun label (kernels, blocks, flops, traffic, elapsed) _ engine _ ->
      let c = (Engine.snapshot engine).Engine.at in
      Alcotest.(check int) (label "kernel launches") kernels
        c.Engine.Counters.kernel_launches;
      Alcotest.(check int) (label "blocks") blocks c.Engine.Counters.blocks;
      Alcotest.(check (float 0.)) (label "flops") flops c.Engine.Counters.flops;
      Alcotest.(check (float 0.)) (label "traffic") traffic
        c.Engine.Counters.traffic_bytes;
      Alcotest.(check (float 0.)) (label "elapsed") elapsed
        c.Engine.Counters.elapsed_seconds)

let test_lanes_counts_golden () =
  each_accounting_run
    (fun label _ (steps, pushes, pops, depth, util) _ (prof, derived) ->
      Alcotest.(check int) (label "supersteps") steps (Obs_prof.supersteps prof);
      Alcotest.(check int) (label "pushes") pushes derived.Profile.pushes;
      Alcotest.(check int) (label "pops") pops derived.Profile.pops;
      Alcotest.(check int) (label "max depth") depth (Obs_prof.max_depth prof);
      Alcotest.(check (float 0.)) (label "utilization") util
        (Obs_prof.utilization prof))

let lanes_suite =
  ( "pc-lanes",
    [
      t "reusable over load/retire" `Quick test_lanes_reusable;
      t "lazy restore drops late vars" `Quick test_lanes_lazy_restore;
      t "engine accounting golden" `Quick test_lanes_engine_golden;
      t "instrumentation golden" `Quick test_lanes_counts_golden;
    ] )

(* ---------- the program-counter stack itself ---------- *)

let test_pc_stack_growth () =
  (* Start with capacity 1 and push far past it: the backing array must
     regrow without losing any member's saved frames. *)
  let z = 3 in
  let s = Pc_vm.Pc_stack.create ~z ~bottom:99 ~start:0 ~initial_depth:1 in
  let all = Array.make z true in
  let only b = Array.init z (fun i -> i = b) in
  for depth = 1 to 20 do
    Pc_vm.Pc_stack.set_top_masked s ~mask:all depth;
    Pc_vm.Pc_stack.push s ~mask:all
  done;
  Alcotest.(check bool) "capacity grew" true (s.Pc_vm.Pc_stack.cap >= 21);
  Alcotest.(check int) "high water" 21 s.Pc_vm.Pc_stack.high;
  (* Unwind member 1 alone; its frames come back in LIFO order while the
     other members' stacks are untouched. *)
  for depth = 20 downto 1 do
    Pc_vm.Pc_stack.pop s ~mask:(only 1);
    Alcotest.(check int)
      (Printf.sprintf "member 1 depth %d" depth)
      depth s.Pc_vm.Pc_stack.top.(1)
  done;
  Pc_vm.Pc_stack.pop s ~mask:(only 1);
  Alcotest.(check int) "member 1 bottom" 99 s.Pc_vm.Pc_stack.top.(1);
  Alcotest.(check int) "member 0 untouched" 21 s.Pc_vm.Pc_stack.sp.(0)

let test_pc_stack_masked_push () =
  let z = 2 in
  let s = Pc_vm.Pc_stack.create ~z ~bottom:(-1) ~start:7 ~initial_depth:2 in
  (* Push only member 0: member 1's stack pointer must not move. *)
  Pc_vm.Pc_stack.push s ~mask:[| true; false |];
  Alcotest.(check int) "member 0 sp" 2 s.Pc_vm.Pc_stack.sp.(0);
  Alcotest.(check int) "member 1 sp" 1 s.Pc_vm.Pc_stack.sp.(1);
  Pc_vm.Pc_stack.pop s ~mask:[| true; false |];
  Alcotest.(check int) "member 0 restored" 7 s.Pc_vm.Pc_stack.top.(0)

let test_pc_stack_underflow () =
  let s = Pc_vm.Pc_stack.create ~z:2 ~bottom:0 ~start:0 ~initial_depth:1 in
  (* Each member starts with the single bottom sentinel frame: one pop is
     fine, a second must raise rather than read out of bounds. *)
  Pc_vm.Pc_stack.pop s ~mask:[| false; true |];
  Alcotest.check_raises "underflow"
    (Invalid_argument "Pc_vm: pc stack underflow for member 1") (fun () ->
      Pc_vm.Pc_stack.pop s ~mask:[| false; true |])

let pc_stack_suite =
  ( "pc-stack",
    [
      t "growth preserves frames" `Quick test_pc_stack_growth;
      t "masked push isolates members" `Quick test_pc_stack_masked_push;
      t "underflow raises" `Quick test_pc_stack_underflow;
    ] )

(* ---------- lane lifecycle, recycling, and input checks ---------- *)

let check_f = Alcotest.(check (float 1e-12))

let test_lanes_lifecycle () =
  let lanes =
    Pc_vm.Lanes.create fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z:3
  in
  Alcotest.(check int) "all free" 3 (Pc_vm.Lanes.free_count lanes);
  Alcotest.(check bool) "idle pool does not step" false (Pc_vm.Lanes.step lanes);
  Pc_vm.Lanes.load lanes ~lane:1 ~member:0 ~inputs:[ Tensor.scalar 6. ];
  Alcotest.(check int) "one occupied" 2 (Pc_vm.Lanes.free_count lanes);
  Alcotest.(check bool) "live" true (Pc_vm.Lanes.live lanes ~lane:1);
  while Pc_vm.Lanes.step lanes do () done;
  Alcotest.(check bool) "finished" true (Pc_vm.Lanes.finished lanes ~lane:1);
  Alcotest.(check (list int)) "finished lanes" [ 1 ] (Pc_vm.Lanes.finished_lanes lanes);
  let outs = Pc_vm.Lanes.retire lanes ~lane:1 in
  Alcotest.(check int) "freed" 3 (Pc_vm.Lanes.free_count lanes);
  (* fib 6 = 13 with fib 0 = fib 1 = 1. *)
  check_f "fib 6" 13. (Tensor.get (List.hd outs) [||])

let test_lanes_recycling_bitwise () =
  (* A recycled lane must behave exactly like a fresh VM: run fib(10) in
     a lane, retire it, reuse the same lane for fib(5) while another lane
     is mid-flight, and compare against solo runs. *)
  let solo n = List.hd (Autobatch.run_pc fib_compiled ~batch:[ Tensor.of_list [ n ] ]) in
  let lanes =
    Pc_vm.Lanes.create fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z:2
  in
  Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ Tensor.scalar 10. ];
  Pc_vm.Lanes.load lanes ~lane:1 ~member:1 ~inputs:[ Tensor.scalar 13. ];
  (* Drain lane 0 (fib 10 finishes first), refill it mid-run. *)
  while not (Pc_vm.Lanes.finished lanes ~lane:0) do
    ignore (Pc_vm.Lanes.step lanes)
  done;
  let out10 = List.hd (Pc_vm.Lanes.retire lanes ~lane:0) in
  Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ Tensor.scalar 5. ];
  while Pc_vm.Lanes.step lanes do () done;
  let out5 = List.hd (Pc_vm.Lanes.retire lanes ~lane:0) in
  let out13 = List.hd (Pc_vm.Lanes.retire lanes ~lane:1) in
  check_f "fib 10 bitwise" (Tensor.get (solo 10.) [| 0 |]) (Tensor.get out10 [||]);
  check_f "fib 5 in recycled lane" (Tensor.get (solo 5.) [| 0 |]) (Tensor.get out5 [||]);
  check_f "fib 13 undisturbed" (Tensor.get (solo 13.) [| 0 |]) (Tensor.get out13 [||])

(* An input whose shape the program does not declare takes its storage
   shape from the first load. A later row must match that shape exactly:
   a different element count, or the same count in another shape, is
   refused before anything is written. *)
let test_lanes_input_mismatch () =
  let lanes =
    Pc_vm.Lanes.create fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z:1
  in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Pc_vm: input count mismatch")
    (fun () -> Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[]);
  let open Lang in
  let pair =
    Autobatch.compile
      (program ~main:"f" [ func "f" ~params:[ "x"; "y" ] [ return_ [ var "x"; var "y" ] ] ])
  in
  let lanes = Pc_vm.Lanes.create pair.Autobatch.registry pair.Autobatch.stack ~z:2 in
  let x = Tensor.init [| 2; 3 |] (fun i -> float_of_int ((3 * i.(0)) + i.(1))) in
  Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ x; Tensor.scalar 1. ];
  let refused name inputs =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Pc_vm.Lanes: input f/x has row shape %s, expected [2;3]"
            (Shape.to_string (Tensor.shape (List.hd inputs)))))
      (fun () -> Pc_vm.Lanes.load lanes ~lane:1 ~member:1 ~inputs);
    Alcotest.(check bool) (name ^ ": lane 1 left free") false (Pc_vm.Lanes.occupied lanes ~lane:1)
  in
  refused "same count, other shape" [ Tensor.reshape x [| 3; 2 |]; Tensor.scalar 2. ];
  refused "other count" [ Tensor.zeros [| 5 |]; Tensor.scalar 2. ];
  while Pc_vm.Lanes.step lanes do () done;
  match Pc_vm.Lanes.retire lanes ~lane:0 with
  | [ x'; y' ] ->
    Alcotest.(check bool) "lane 0 row intact" true (Tensor.equal x x');
    check_f "lane 0 second input" 1. (Tensor.get y' [||])
  | _ -> Alcotest.fail "two outputs expected"

(* ---------- engine lane counters ---------- *)

let test_engine_refill_retire_counters () =
  let e = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.charge_refill e ~bytes:64.;
  Engine.charge_refill e ~bytes:64.;
  Engine.charge_retire e ~bytes:128.;
  let c = (Engine.snapshot e).Engine.at in
  Alcotest.(check int) "refills" 2 c.Engine.Counters.lane_refills;
  Alcotest.(check int) "retires" 1 c.Engine.Counters.lane_retires;
  check_f "traffic accumulates" 256. c.Engine.Counters.traffic_bytes;
  Alcotest.(check bool) "time advances" true (Engine.elapsed e > 0.);
  let sum = Engine.Counters.add c Engine.Counters.zero in
  Alcotest.(check int) "refills survive add" 2 sum.Engine.Counters.lane_refills;
  Alcotest.(check int) "retires survive add" 1 sum.Engine.Counters.lane_retires

(* The suite names predate the move from the retired request server's
   test file; they are kept so the test ids stay stable. *)
let serve_suites =
  [
    ( "serve-lanes",
      [
        t "lifecycle" `Quick test_lanes_lifecycle;
        t "recycling is bitwise clean" `Quick test_lanes_recycling_bitwise;
        t "input mismatch" `Quick test_lanes_input_mismatch;
      ] );
    ( "serve-instrument",
      [ t "engine refill/retire counters" `Quick test_engine_refill_retire_counters ] );
  ]

let suites = suites @ [ lanes_suite; pc_stack_suite ] @ serve_suites
