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

(* The active list [Stacked] and the VM's writes take: the set lanes of
   [mask], ascending, and how many there are. *)
let lanes mask =
  let active = Vm_util.indices_of_mask mask in
  (active, Array.length active)

let write_top s mask v =
  let active, n = lanes mask in
  Stacked.write_top s ~active ~n v

let push s mask =
  let active, n = lanes mask in
  Stacked.push s ~active ~n

let pop s mask =
  let active, n = lanes mask in
  Stacked.pop s ~active ~n

(* A stack of scalars seeded as the VM seeds its pc stack: every member
   holds one saved frame [bottom] (the halt sentinel) below its top
   [start]. Seeding moves no high-water mark. *)
let seeded ~z ~bottom ~start ~initial_depth =
  let s = Stacked.create ~z ~elem:Shape.scalar ~initial_depth () in
  for b = 0 to z - 1 do
    Stacked.restore_lane s b
      { Stacked.l_elem = Shape.scalar; l_sp = 1; l_frames = [| bottom |]; l_top = [| start |] }
  done;
  s

let test_stacked_basic () =
  let s = Stacked.create ~z:3 ~elem:[| 2 |] () in
  Alcotest.(check (array int)) "top shape" [| 3; 2 |] (Tensor.shape (Stacked.top s));
  let all = [| true; true; true |] in
  write_top s all (Tensor.create [| 3; 2 |] [| 1.; 1.; 2.; 2.; 3.; 3. |]);
  (* Save member 1 only, then overwrite everyone. *)
  push s [| false; true; false |];
  write_top s all (Tensor.full [| 3; 2 |] 9.);
  Alcotest.(check int) "depth member 1" 1 (Stacked.depth s 1);
  Alcotest.(check int) "depth member 0" 0 (Stacked.depth s 0);
  pop s [| false; true; false |];
  let top = Stacked.top s in
  Alcotest.(check (float 0.)) "member 1 restored" 2. (Tensor.get top [| 1; 0 |]);
  Alcotest.(check (float 0.)) "member 0 untouched" 9. (Tensor.get top [| 0; 0 |])

let test_stacked_growth () =
  let s = Stacked.create ~z:2 ~elem:[||] ~initial_depth:1 () in
  let all = [| true; true |] in
  for i = 1 to 20 do
    write_top s all (Tensor.full [| 2 |] (float_of_int i));
    push s all
  done;
  Alcotest.(check bool) "capacity grew" true (Stacked.capacity s >= 20);
  Alcotest.(check int) "high water" 20 (Stacked.high_water s);
  (* Pop everything back in LIFO order. *)
  for i = 20 downto 1 do
    pop s all;
    Alcotest.(check (float 0.)) "LIFO restore" (float_of_int i)
      (Tensor.get (Stacked.top s) [| 0 |])
  done

let test_stacked_underflow () =
  let s = Stacked.create ~z:1 ~elem:[||] () in
  Alcotest.check_raises "underflow"
    (Invalid_argument "Stacked.pop: underflow for member 0") (fun () ->
      pop s [| true |])

(* ---------- the program-counter stack ---------- *)

(* The pool's pc stack is a [Stacked] of scalars seeded by [seeded]. *)

let test_pc_stack_growth () =
  (* Start with capacity 1 and push far past it: the backing array must
     regrow without losing any member's saved frames. *)
  let z = 3 in
  let s = seeded ~z ~bottom:99. ~start:0. ~initial_depth:1 in
  let all = Array.make z true in
  for depth = 1 to 20 do
    write_top s all (Tensor.full [| z |] (float_of_int depth));
    push s all
  done;
  Alcotest.(check bool) "capacity grew" true (Stacked.capacity s >= 21);
  Alcotest.(check int) "high water" 21 (Stacked.high_water s);
  (* Unwind member 1 alone; its frames come back in LIFO order down to
     the sentinel while the other members' stacks are untouched. *)
  let only_1 = [| false; true; false |] in
  for depth = 20 downto 1 do
    pop s only_1;
    Alcotest.(check (float 0.))
      (Printf.sprintf "member 1 depth %d" depth)
      (float_of_int depth) (Tensor.get (Stacked.top s) [| 1 |])
  done;
  pop s only_1;
  Alcotest.(check (float 0.)) "member 1 bottom" 99. (Tensor.get (Stacked.top s) [| 1 |]);
  Alcotest.(check int) "member 0 untouched" 21 (Stacked.depth s 0)

let test_pc_stack_masked_push () =
  let s = seeded ~z:2 ~bottom:(-1.) ~start:7. ~initial_depth:2 in
  (* Push only member 0: member 1's stack pointer must not move. *)
  push s [| true; false |];
  Alcotest.(check int) "member 0 sp" 2 (Stacked.depth s 0);
  Alcotest.(check int) "member 1 sp" 1 (Stacked.depth s 1);
  pop s [| true; false |];
  Alcotest.(check (float 0.)) "member 0 restored" 7. (Tensor.get (Stacked.top s) [| 0 |])

let test_pc_stack_underflow () =
  let s = seeded ~z:2 ~bottom:0. ~start:0. ~initial_depth:1 in
  (* Each member starts with the single sentinel frame: one pop is fine,
     a second must raise rather than read out of bounds. *)
  pop s [| false; true |];
  Alcotest.check_raises "underflow"
    (Invalid_argument "Stacked.pop: underflow for member 1") (fun () ->
      pop s [| false; true |])

let prop_stacked_push_pop_identity =
  QCheck.Test.make ~name:"push;pop is identity on the top" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.bool) (fun mask_list ->
      let z = List.length mask_list in
      let mask = Array.of_list mask_list in
      let s = Stacked.create ~z ~elem:[| 2 |] () in
      let v = Tensor.init [| z; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1))) in
      write_top s (Array.make z true) v;
      let before = Tensor.copy (Stacked.top s) in
      push s mask;
      pop s mask;
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
  (* ... and a primitive whose [batched] breaks its declared [shape] is
     caught where its result is written into preallocated storage. *)
  let std = Prim.standard () in
  let reg = Prim.create_registry () in
  List.iter
    (fun name ->
      let p = Prim.find_exn std name in
      Prim.register reg
        (if name <> "add" then p
         else
           {
             p with
             Prim.batched =
               (fun ~members _ -> Tensor.zeros [| Array.length members; 2 |]);
           }))
    (Prim.names std);
  let double =
    let open Lang in
    program ~main:"m" [ func "m" ~params:[ "x" ] [ return_ [ Infix.(var "x" + var "x") ] ] ]
  in
  let compiled = Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar ] double in
  Alcotest.check_raises "write of a wrong row shape"
    (Invalid_argument "Pc_vm: variable m/$ret0 changes shape from [2] to [2;2]")
    (fun () -> ignore (Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 1.; 2. ] ]))

(* The validator refuses a program that may read a variable before any
   write, so this stack program is built by hand: its only block reads
   [y], to which no shape is given. [y] therefore has no storage, and
   every attempt at the block fails with the same message. *)
let test_pc_unwritten_read () =
  let p =
    {
      Stack_ir.blocks =
        [|
          {
            Stack_ir.ops = [ Stack_ir.Sprim { dst = "z"; prim = "add"; args = [ "x"; "y" ] } ];
            term = Stack_ir.Sreturn;
          };
        |];
      classes = Ir_util.Smap.empty;
      shapes = Ir_util.Smap.of_list [ ("x", Shape.scalar); ("z", Shape.scalar) ];
      inputs = [ "x" ];
      outputs = [ "z" ];
      origin = [| ("m", 0) |];
      func_entries = [ ("m", 0) ];
    }
  in
  let lanes = Pc_vm.Lanes.create fib_compiled.Autobatch.registry p ~z:2 in
  Pc_vm.Lanes.load lanes ~lane:1 ~member:0 ~inputs:[ Tensor.scalar 1. ];
  for _ = 1 to 2 do
    Alcotest.check_raises "read of a variable with no shape"
      (Invalid_argument "Pc_vm: variable y has no inferred shape") (fun () ->
        ignore (Pc_vm.Lanes.step lanes))
  done

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
    ( "pc-stack",
      [
        t "growth preserves frames" `Quick test_pc_stack_growth;
        t "masked push isolates members" `Quick test_pc_stack_masked_push;
        t "underflow raises" `Quick test_pc_stack_underflow;
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
        t "unwritten read rejected" `Quick test_pc_unwritten_read;
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

(* Restoring rewrites the pool's own storage in place: it allocates
   fewer words than that storage holds (the registers and stack tops
   alone are z words per element of every variable), and the replay then
   passes through exactly the states of the uninterrupted run, image for
   image. *)
let test_lanes_restore_in_place () =
  let reg = fib_compiled.Autobatch.registry and stack = fib_compiled.Autobatch.stack in
  let z = 64 in
  let lanes = Pc_vm.Lanes.create reg stack ~z in
  for lane = 0 to z - 1 do
    Pc_vm.Lanes.load lanes ~lane ~member:lane
      ~inputs:[ Tensor.scalar (float_of_int (4 + (lane mod 7))) ]
  done;
  for _ = 1 to 200 do
    ignore (Pc_vm.Lanes.step lanes)
  done;
  let img = Pc_vm.Lanes.capture lanes in
  let drain () =
    let trace = ref [] in
    while Pc_vm.Lanes.step lanes do
      trace := Pc_vm.Lanes.capture lanes :: !trace
    done;
    (List.rev !trace, Pc_vm.Lanes.outputs lanes)
  in
  let trace, outs = drain () in
  Alcotest.(check bool) "ran past the capture" true (trace <> []);
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  Pc_vm.Lanes.restore lanes img;
  let allocated = words () -. before in
  let storage =
    Array.fold_left
      (fun n lv -> n + (z * Shape.numel lv.Pc_vm.Lanes.lv_elem))
      0 img.Pc_vm.Lanes.li_vars
  in
  Alcotest.(check bool)
    (Printf.sprintf "restore allocates %.0f words, under the storage's %d" allocated
       storage)
    true
    (allocated < float_of_int storage);
  let trace', outs' = drain () in
  Alcotest.(check int) "same supersteps" (List.length trace) (List.length trace');
  Alcotest.(check bool) "every replayed image equals the original" true
    (trace = trace');
  List.iter2
    (fun a b -> Alcotest.(check bool) "outputs bitwise" true (Tensor.equal a b))
    outs outs'

(* A pool restored to the image it had when empty is a fresh pool, event
   for event. One engine carries a fib pool that serves deep requests,
   then a second program's pool (the shard serving digest A, then B),
   then the fib pool again after the engine is restored to a fresh
   engine's snapshot and the pool to its empty image (A again, as a shard rebinding to a
   digest it kept does). Serving shallow requests, that pool gives the
   outputs, step count and Step / Occupancy / Launched stream of a fresh
   pool on a fresh engine — including Occupancy's [depth], which the
   deep requests had raised. *)
let test_lanes_reuse_is_fresh () =
  let z = 4 in
  let record () =
    let events = ref [] in
    let sink ev =
      match ev with
      | Obs_sink.Step _ | Obs_sink.Occupancy _ | Obs_sink.Launched _ ->
        events := ev :: !events
      | _ -> ()
    in
    let engine = Engine.create ~device:Device.gpu ~mode:Engine.Hybrid () in
    Engine.set_sink engine sink;
    (engine, { Pc_vm.default_config with engine = Some engine; sink = Some sink }, events)
  in
  let pool config (c : Autobatch.compiled) =
    Pc_vm.Lanes.create ~config c.Autobatch.registry c.Autobatch.stack ~z
  in
  let serve lanes inputs =
    List.iteri
      (fun lane inputs -> Pc_vm.Lanes.load lanes ~lane ~member:(10 + lane) ~inputs)
      inputs;
    while Pc_vm.Lanes.step lanes do
      ()
    done;
    List.concat (List.mapi (fun lane _ -> Pc_vm.Lanes.retire lanes ~lane) inputs)
  in
  let fib ns = List.map (fun n -> [ Tensor.scalar n ]) ns in
  let shallow = fib [ 3.; 1.; 4.; 2. ] in
  let fresh_outs, fresh_steps, fresh_events =
    let _, config, events = record () in
    let lanes = pool config fib_compiled in
    let outs = serve lanes shallow in
    (outs, Pc_vm.Lanes.steps lanes, List.rev !events)
  in
  let engine, config, events = record () in
  let a = pool config fib_compiled in
  let empty = Pc_vm.Lanes.capture a in
  ignore (serve a (fib [ 12.; 11.; 9.; 10. ]));
  let b =
    pool config
      (Autobatch.compile ~input_shapes:[ [| 3 |]; Shape.scalar ] Test_programs.vec_double)
  in
  ignore
    (serve b
       [ [ Tensor.of_array [| 3 |] [| 1.; 2.; 3. |]; Tensor.scalar 4. ];
         [ Tensor.of_array [| 3 |] [| 0.5; 0.; 1. |]; Tensor.scalar 2. ] ]);
  (* A fresh engine's state, restored into the one the pools priced
     their blocks on. *)
  Engine.restore engine (Engine.snapshot (Engine.create ~device:Device.gpu ~mode:Engine.Hybrid ()));
  events := [];
  Pc_vm.Lanes.restore a empty;
  let outs = serve a shallow in
  Alcotest.(check int) "same step count" fresh_steps (Pc_vm.Lanes.steps a);
  List.iter2
    (fun x y -> Alcotest.(check bool) "outputs bitwise" true (Tensor.equal x y))
    fresh_outs outs;
  let depths evs =
    List.filter_map (function Obs_sink.Occupancy { depth; _ } -> Some depth | _ -> None) evs
  in
  Alcotest.(check (list int)) "Occupancy depths" (depths fresh_events) (depths (List.rev !events));
  Alcotest.(check bool) "same event stream" true (fresh_events = List.rev !events)

(* A pool checkpoint is its occupied lanes' states. Requests stream
   through a pool whose lanes retire and refill mid-run; at a random
   superstep the pool is captured. The image is restored into a fresh
   pool, and into the captured pool itself after it ran further (loading
   and retiring more lanes, and possibly allocating more variables). All
   three pools then drain under the same request loop: every request's outputs
   are bitwise equal, the step counts agree, the restored pools run the
   reference's supersteps past the capture with the same lane counts,
   the image holds exactly the lanes occupied at the capture, and each
   restored pool captures back to that image. *)
type recycle_case = {
  rc_program : string;
  rc_policy : Sched_policy.t;
  rc_z : int;
  rc_args : int list;  (* one request per element *)
  rc_gap : int;  (* lane [l] refills only on rounds [r] with [(r + l) mod rc_gap = 0] *)
  rc_capture : int;  (* rounds before the capture *)
  rc_more : int;  (* rounds the captured pool runs on before its restore *)
}

let recycle_programs =
  lazy
    [
      ("fib", fib_compiled, fun a -> [ Tensor.scalar (float_of_int (a mod 10)) ]);
      ( "vec_double",
        Autobatch.compile ~input_shapes:[ [| 3 |]; Shape.scalar ] Test_programs.vec_double,
        fun a ->
          [ Tensor.init [| 3 |] (fun i -> float_of_int (a + i.(0)) *. 0.25);
            Tensor.scalar (float_of_int (a mod 5)) ] );
    ]

let gen_recycle_case =
  let open QCheck.Gen in
  let* rc_program = oneofl [ "fib"; "vec_double" ] in
  let* rc_policy = oneofl Sched_policy.all in
  let* rc_z = int_range 1 5 in
  let* rc_args = list_size (int_range 1 12) (int_bound 20) in
  let* rc_gap = int_range 1 4 in
  let* rc_capture = int_bound 60 in
  let* rc_more = int_bound 30 in
  return { rc_program; rc_policy; rc_z; rc_args; rc_gap; rc_capture; rc_more }

let print_recycle_case c =
  Printf.sprintf "%s %s z=%d args=[%s] gap=%d capture@%d more=%d" c.rc_program
    (Sched_policy.to_string c.rc_policy) c.rc_z
    (String.concat ";" (List.map string_of_int c.rc_args))
    c.rc_gap c.rc_capture c.rc_more

let recycled_restore_agrees c =
  let _, compiled, inputs_of =
    List.find (fun (name, _, _) -> name = c.rc_program) (Lazy.force recycle_programs)
  in
  let args = Array.of_list c.rc_args in
  let n = Array.length args in
  (* Each pool logs its supersteps' block and lane counts, newest first
     (the stack depth is left out: it is a high-water mark of the pool's
     whole history). *)
  let create () =
    let log = ref [] in
    let sink = function
      | Obs_sink.Occupancy { step; block; active; live; _ } ->
        log := (step, block, active, live) :: !log
      | _ -> ()
    in
    ( Pc_vm.Lanes.create
        ~config:{ Pc_vm.default_config with Pc_vm.sched = c.rc_policy; sink = Some sink }
        compiled.Autobatch.registry compiled.Autobatch.stack ~z:c.rc_z,
      log )
  in
  (* The request loop's state: the round, the next request to load, and each
     retired request's outputs as bit patterns (member = request index).
     Lanes left free between staggered refills put idle lanes, with
     requests still pending, into the images. *)
  let round pool (r, next, outs) =
    let outs =
      List.fold_left
        (fun outs lane ->
          let m = Pc_vm.Lanes.member pool ~lane in
          let bits t = Array.map Int64.bits_of_float (Tensor.data t) in
          (m, List.map bits (Pc_vm.Lanes.retire pool ~lane)) :: outs)
        outs (Pc_vm.Lanes.finished_lanes pool)
    in
    let next = ref next in
    for lane = 0 to c.rc_z - 1 do
      if (r + lane) mod c.rc_gap = 0 && !next < n && not (Pc_vm.Lanes.occupied pool ~lane)
      then begin
        Pc_vm.Lanes.load pool ~lane ~member:!next ~inputs:(inputs_of args.(!next));
        incr next
      end
    done;
    (Pc_vm.Lanes.step pool || !next < n, (r + 1, !next, outs))
  in
  let rec drain pool st =
    match round pool st with
    | true, st -> drain pool st
    | false, (_, _, outs) -> (Pc_vm.Lanes.steps pool, List.sort compare outs)
  in
  let rec advance pool st k =
    if k = 0 then st else advance pool (snd (round pool st)) (k - 1)
  in
  let reference, reference_log = create () in
  let reference = drain reference (0, 0, []) in
  let captured, captured_log = create () in
  let st = advance captured (0, 0, []) c.rc_capture in
  let img = Pc_vm.Lanes.capture captured in
  let exact_lanes =
    List.for_all
      (fun lane ->
        Pc_vm.Lanes.occupied captured ~lane
        = Option.is_some img.Pc_vm.Lanes.li_lanes.(lane))
      (List.init c.rc_z Fun.id)
  in
  (* A restored pool captures back to the image it was restored from,
     then drains through the reference's supersteps past the capture. *)
  let after_capture =
    List.filter (fun (step, _, _, _) -> step > img.Pc_vm.Lanes.li_steps) !reference_log
  in
  let restore pool log =
    Pc_vm.Lanes.restore pool img;
    log := [];
    Pc_vm.Lanes.capture pool = img
  in
  let fresh, fresh_log = create () in
  let fresh_exact = restore fresh fresh_log in
  let from_fresh = drain fresh st in
  ignore (advance captured st c.rc_more);
  let same_exact = restore captured captured_log in
  let from_same = drain captured st in
  exact_lanes && fresh_exact && same_exact && from_fresh = reference
  && from_same = reference
  && !fresh_log = after_capture
  && !captured_log = after_capture
  && List.length (snd reference) = n

(* The fast tier's budget and the full suite's. *)
let prop_recycled_restore ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "%d recycled-lane restores are bitwise" count)
    (QCheck.make ~print:print_recycle_case gen_recycle_case)
    recycled_restore_agrees

(* The engine charges and lane counts of fib, pinned to the values the
   per-step interpreter produced before blocks were pre-resolved (the
   lane counts read off a profiler and the program's op table). The
   naive arm also prices the O4 gathers and O5 pop+push writes. *)
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

(* Runs every case and hands [check] the label maker, the case's
   expected values, the engine, and the profiler of the run with the
   counts derived from it. *)
let each_accounting_run check =
  List.iter
    (fun (name, config, engine, batch, charges, counts) ->
      let label what = Printf.sprintf "%s: %s" name what in
      let engine = engine () and prof = Obs_prof.create () in
      let config =
        { config with Pc_vm.engine = Some engine; sink = Some (Obs_prof.sink prof) }
      in
      ignore (Autobatch.run_pc ~config fib_compiled ~batch:[ Tensor.of_list batch ]);
      let derived = Profile.derive (Profile.pc_ops fib_compiled.Autobatch.stack) prof in
      check label charges counts engine (prof, derived))
    (accounting_cases ())

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

(* Active-row execution. A primitive op whose flops per row dwarf the
   elements it moves computes only the active rows of a masked
   superstep; give every primitive huge flops and every op does. Row
   counts are recorded to show the gathered path ran, the gathered
   member ids must come in ascending lane order, and the outputs
   must equal the plain registry's bitwise — the random walk's draws key
   on the gathered member ids and fib recurses at mixed depths. Under the
   plain registry every call stays full width: the standard primitives
   are all below the gate. *)
let test_pc_active_rows () =
  let std = Prim.standard () in
  let rows = ref [] and ascending = ref true in
  let wrap flops =
    let reg = Prim.create_registry () in
    List.iter
      (fun name ->
        let p = Prim.find_exn std name in
        Prim.register reg
          {
            p with
            Prim.flops = (fun ss -> flops +. p.Prim.flops ss);
            batched =
              (fun ~members args ->
                rows := Array.length members :: !rows;
                Array.iteri
                  (fun j m -> if j > 0 && members.(j - 1) >= m then ascending := false)
                  members;
                p.Prim.batched ~members args);
          })
      (Prim.names std);
    reg
  in
  let z = 6 in
  let config = { Pc_vm.default_config with member_base = 7 } in
  List.iter
    (fun (label, prog) ->
      let run flops =
        rows := [];
        let compiled =
          Autobatch.compile ~registry:(wrap flops) ~input_shapes:[ Shape.scalar ] prog
        in
        let outs =
          Autobatch.run_pc ~config compiled
            ~batch:[ Tensor.of_list [ 0.; 3.; 1.; 5.; 2.; 4. ] ]
        in
        (outs, !rows)
      in
      let plain, plain_rows = run 0. in
      let heavy, heavy_rows = run 1e9 in
      Alcotest.(check bool) (label ^ ": plain stays full width") true
        (List.for_all (( = ) z) plain_rows);
      Alcotest.(check bool) (label ^ ": heavy gathers") true
        (List.exists (fun n -> n > 0 && n < z) heavy_rows);
      Alcotest.(check bool) (label ^ ": lanes in ascending order") true !ascending;
      Alcotest.(check bool) (label ^ ": bitwise") true (List.for_all2 Tensor.equal plain heavy))
    [ ("random walk", Test_programs.random_walk); ("fib", Test_programs.fib) ]

(* Every lane's pc column holds the halt sentinel below its top: a lane
   that [bind], [evict] or [restore] leaves idle has top halt, a loaded
   lane top 0. Occupancy's [depth] counts pushes with the sentinel as a
   frame: 0 until the first call, then the deepest the pc stack has
   been (fib's variable stacks are never deeper), and 0 again after a
   restore. *)
let test_lanes_pc_columns () =
  let halt = float_of_int (Stack_ir.halt fib_compiled.Autobatch.stack) in
  let idle = { Stacked.l_elem = Shape.scalar; l_sp = 1; l_frames = [| halt |]; l_top = [| halt |] } in
  let fresh = { idle with Stacked.l_top = [| 0. |] } in
  let depths = ref [] in
  let sink = function
    | Obs_sink.Occupancy { depth; _ } -> depths := depth :: !depths
    | _ -> ()
  in
  let config = { Pc_vm.default_config with sink = Some sink } in
  let lanes =
    Pc_vm.Lanes.create ~config fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z:2
  in
  let column what lane want =
    Alcotest.(check bool) what true (Pc_vm.Lanes.pc_column lanes ~lane = want)
  in
  column "bound lane 0" 0 idle;
  column "bound lane 1" 1 idle;
  let empty = Pc_vm.Lanes.capture lanes in
  (* Run lane 0 to the end, reading the pc depth the sentinel counts in
     after every superstep: each Occupancy reports the deepest so far. *)
  let run_lane_0 n =
    Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ Tensor.scalar n ];
    column "loaded lane" 0 fresh;
    column "idle neighbour" 1 idle;
    depths := [];
    let deepest = ref 0 and want = ref [] in
    while
      want := !deepest :: !want;
      Pc_vm.Lanes.step lanes
    do
      let sp = (Pc_vm.Lanes.pc_column lanes ~lane:0).Stacked.l_sp in
      if sp > 1 then deepest := max !deepest sp
    done;
    Alcotest.(check (list int)) "Occupancy depth" (List.tl !want) !depths;
    Alcotest.(check bool) "called" true (!deepest > 2);
    Alcotest.(check bool) "halted past the sentinel" true
      (Pc_vm.Lanes.pc_column lanes ~lane:0
      = { idle with Stacked.l_sp = 0; l_frames = [||] })
  in
  run_lane_0 6.;
  ignore (Pc_vm.Lanes.retire lanes ~lane:0);
  Pc_vm.Lanes.load lanes ~lane:1 ~member:1 ~inputs:[ Tensor.scalar 5. ];
  for _ = 1 to 8 do
    ignore (Pc_vm.Lanes.step lanes)
  done;
  Alcotest.(check bool) "mid-call" true ((Pc_vm.Lanes.pc_column lanes ~lane:1).Stacked.l_sp > 1);
  Pc_vm.Lanes.evict lanes ~lane:1;
  column "evicted lane" 1 idle;
  Pc_vm.Lanes.restore lanes empty;
  column "restored lane 0" 0 idle;
  column "restored lane 1" 1 idle;
  run_lane_0 6.

(* [import_lane] takes a pc column only if it holds block indices: every
   saved entry and the top an integer in [0, halt]. A top of -1 would
   index the block counts out of bounds on the next step, and a top of
   halt + 1 would leave a live lane that never runs. Each refusal comes
   before anything is written. *)
let test_lanes_import_checks_pc () =
  let reg = fib_compiled.Autobatch.registry and stack = fib_compiled.Autobatch.stack in
  let halt = float_of_int (Stack_ir.halt stack) in
  let src = Pc_vm.Lanes.create reg stack ~z:1 in
  Pc_vm.Lanes.load src ~lane:0 ~member:3 ~inputs:[ Tensor.scalar 7. ];
  for _ = 1 to 5 do
    ignore (Pc_vm.Lanes.step src)
  done;
  let st = Pc_vm.Lanes.export_lane src ~lane:0 in
  let pc = st.Pc_vm.Lanes.ls_pc in
  Alcotest.(check bool) "saved entries" true (pc.Stacked.l_sp > 1);
  let dst = Pc_vm.Lanes.create reg stack ~z:2 in
  Pc_vm.Lanes.load dst ~lane:1 ~member:4 ~inputs:[ Tensor.scalar 4. ];
  let before = Pc_vm.Lanes.capture dst in
  let with_top x = { pc with Stacked.l_top = [| x |] } in
  let with_entry x =
    let f = Array.copy pc.Stacked.l_frames in
    f.(Array.length f - 1) <- x;
    { pc with Stacked.l_frames = f }
  in
  List.iter
    (fun (what, bad) ->
      Alcotest.check_raises what
        (Invalid_argument
           "Pc_vm.Lanes.import_lane: the pc column holds a value that is not a block index")
        (fun () -> Pc_vm.Lanes.import_lane dst ~lane:0 { st with Pc_vm.Lanes.ls_pc = bad });
      Alcotest.(check bool) (what ^ ": pool unchanged") true (Pc_vm.Lanes.capture dst = before))
    [
      ("top -1", with_top (-1.));
      ("top halt + 1", with_top (halt +. 1.));
      ("top 2.5", with_top 2.5);
      ("top NaN", with_top Float.nan);
      ("top infinity", with_top Float.infinity);
      ("entry -1", with_entry (-1.));
      ("entry halt + 1", with_entry (halt +. 1.));
      ("entry NaN", with_entry Float.nan);
      ("entry -infinity", with_entry Float.neg_infinity);
      ("frames shorter than the depth", { pc with Stacked.l_sp = pc.Stacked.l_sp + 1 });
    ];
  (* The state itself imports and runs to the solo result. *)
  Pc_vm.Lanes.import_lane dst ~lane:0 st;
  while Pc_vm.Lanes.step dst do
    ()
  done;
  let solo n = List.hd (Autobatch.run_pc fib_compiled ~batch:[ Tensor.of_list [ n ] ]) in
  Alcotest.(check (float 0.)) "imported lane finishes" (Tensor.get (solo 7.) [| 0 |])
    (Tensor.get (List.hd (Pc_vm.Lanes.retire dst ~lane:0)) [||])

let lanes_suite =
  ( "pc-lanes",
    [
      t "reusable over load/retire" `Quick test_lanes_reusable;
      t "restore replays bitwise in place" `Quick test_lanes_restore_in_place;
      t "engine accounting golden" `Quick test_lanes_engine_golden;
      t "instrumentation golden" `Quick test_lanes_counts_golden;
      t "active rows are bitwise" `Quick test_pc_active_rows;
      QCheck_alcotest.to_alcotest ~speed_level:`Quick (prop_recycled_restore ~count:200);
      QCheck_alcotest.to_alcotest ~speed_level:`Slow (prop_recycled_restore ~count:5_000);
      t "a pool restored empty is a fresh pool" `Quick test_lanes_reuse_is_fresh;
      t "pc columns and depth from the sentinel" `Quick test_lanes_pc_columns;
      t "import refuses a pc that is no block" `Quick test_lanes_import_checks_pc;
    ] )

(* ---------- active-list lane loops against the mask scan ---------- *)

(* The VM's lane loops walk the superstep's active list. Before they did,
   they scanned a full-width mask; those scans are kept here, verbatim,
   as the reference model. A masked variable's reference is
   [Tensor.blit_rows_masked], the library function it used. *)
module Mask_scan = struct
  (* [Stacked.t]'s layout, with its fields open. *)
  type stk = {
    z : int;
    row : int;
    mutable cap : int;
    mutable data : float array;
    sp : int array;
    top : float array;
    mutable high : int;
  }

  let create ~z ~row ~initial_depth =
    let cap = max 1 initial_depth in
    { z; row; cap; data = Array.make (cap * z * row) 0.; sp = Array.make z 0;
      top = Array.make (z * row) 0.; high = 0 }

  let grow t =
    let cap' = t.cap * 2 in
    let data' = Array.make (cap' * t.z * t.row) 0. in
    Array.blit t.data 0 data' 0 (t.cap * t.z * t.row);
    t.cap <- cap';
    t.data <- data'

  let slot t d b = ((d * t.z) + b) * t.row

  let write_top t ~mask value =
    Array.iteri
      (fun b m -> if m then Array.blit value (b * t.row) t.top (b * t.row) t.row)
      mask

  let push t ~mask =
    let need = ref 0 in
    Array.iteri (fun b m -> if m && t.sp.(b) >= !need then need := t.sp.(b) + 1) mask;
    while !need > t.cap do
      grow t
    done;
    if !need > t.high then t.high <- !need;
    Array.iteri
      (fun b m ->
        if m then begin
          Array.blit t.top (b * t.row) t.data (slot t t.sp.(b) b) t.row;
          t.sp.(b) <- t.sp.(b) + 1
        end)
      mask

  let pop t ~mask =
    Array.iteri
      (fun b m ->
        if m then begin
          if t.sp.(b) = 0 then
            invalid_arg (Printf.sprintf "Stacked.pop: underflow for member %d" b);
          t.sp.(b) <- t.sp.(b) - 1;
          Array.blit t.data (slot t t.sp.(b) b) t.top (b * t.row) t.row
        end)
      mask

  (* [t]'s stack pointers, live frames (member-major), tops, high-water
     mark and capacity. *)
  let image t =
    let frames =
      Array.concat
        (List.concat
           (List.init t.z (fun b ->
                List.init t.sp.(b) (fun d -> Array.sub t.data (slot t d b) t.row))))
    in
    (Array.copy t.sp, frames, Array.copy t.top, t.high, t.cap)
end

(* [Pc] is the VM's pc stack: a [Stacked] of scalars, each member seeded
   with the halt sentinel [pc_halt] below a top of 0, written with
   integer block indices. *)
type lane_storage = Msk | Stk | Pc
type lane_op = Write | Push | Pop

let pc_halt = 99.

type lane_case = {
  storage : lane_storage;
  z : int;
  row : int;  (* elements per lane; the pc stack's is 1 *)
  depth : int;  (* initial stack capacity *)
  ops : (lane_op * bool array) list;
}

let gen_lane_case =
  let open QCheck.Gen in
  let* storage = oneofl [ Msk; Stk; Pc ] in
  let* z = int_range 1 8 in
  let* row = if storage = Pc then return 1 else oneofl [ 1; 3 ] in
  let* depth = int_range 1 3 in
  let op = oneofl (match storage with Msk -> [ Write ] | Stk | Pc -> [ Write; Push; Pop ]) in
  let* ops = list_size (int_range 1 40) (pair op (array_size (return z) bool)) in
  return { storage; z; row; depth; ops }

let print_lane_case c =
  Printf.sprintf "%s z=%d row=%d depth=%d: %s"
    (match c.storage with Msk -> "msk" | Stk -> "stk" | Pc -> "pc")
    c.z c.row c.depth
    (String.concat "; "
       (List.map
          (fun (op, mask) ->
            Printf.sprintf "%s %s"
              (match op with Write -> "write" | Push -> "push" | Pop -> "pop")
              (String.concat "" (Array.to_list (Array.map (fun m -> if m then "1" else "0") mask))))
          c.ops))

(* Run [c] through the active-list code and through [Mask_scan], with the
   same value written at each step, and compare the whole state and the
   raised exception (if any) after every op. *)
let lane_case_agrees c =
  let result f = match f () with () -> None | exception Invalid_argument m -> Some m in
  let frac = if c.storage = Pc then 0. else 0.25 in
  let value i = Array.init (c.z * c.row) (fun e -> float_of_int ((i * 1000) + e) +. frac) in
  let step, state =
    match c.storage with
    | Msk ->
      let shape = [| c.z; c.row |] in
      let live = Tensor.zeros shape and model = Tensor.zeros shape in
      ( (fun i _op mask ->
          let active, n = lanes mask and src = Tensor.create shape (value i) in
          ( result (fun () -> Vm_util.blit_active_rows ~active ~n ~src ~dst:live),
            result (fun () -> Tensor.blit_rows_masked ~mask ~src ~dst:model) )),
        fun () -> Tensor.data live = Tensor.data model )
    | Stk | Pc ->
      let elem = if c.storage = Pc then Shape.scalar else [| c.row |] in
      let live, model =
        if c.storage = Pc then begin
          let model = Mask_scan.create ~z:c.z ~row:1 ~initial_depth:c.depth in
          for b = 0 to c.z - 1 do
            model.Mask_scan.sp.(b) <- 1;
            model.Mask_scan.data.(b) <- pc_halt
          done;
          (seeded ~z:c.z ~bottom:pc_halt ~start:0. ~initial_depth:c.depth, model)
        end
        else
          ( Stacked.create ~z:c.z ~elem ~initial_depth:c.depth (),
            Mask_scan.create ~z:c.z ~row:c.row ~initial_depth:c.depth )
      in
      ( (fun i op mask ->
          let active, n = lanes mask in
          match op with
          | Write ->
            ( result (fun () ->
                  Stacked.write_top live ~active ~n
                    (Tensor.create (Shape.concat_outer c.z elem) (value i))),
              result (fun () -> Mask_scan.write_top model ~mask (value i)) )
          | Push ->
            ( result (fun () -> Stacked.push live ~active ~n),
              result (fun () -> Mask_scan.push model ~mask) )
          | Pop ->
            ( result (fun () -> Stacked.pop live ~active ~n),
              result (fun () -> Mask_scan.pop model ~mask) )),
        fun () ->
          let cols = List.init c.z (Stacked.capture_lane live) in
          let field f = Array.concat (List.map f cols) in
          ( field (fun l -> [| l.Stacked.l_sp |]),
            field (fun l -> l.Stacked.l_frames),
            field (fun l -> l.Stacked.l_top),
            Stacked.high_water live,
            Stacked.capacity live )
          = Mask_scan.image model )
  in
  List.for_all
    (fun (i, (op, mask)) ->
      let got, want = step i op mask in
      got = want && state ())
    (List.mapi (fun i op -> (i, op)) c.ops)

(* The fast tier's budget and the full suite's. *)
let prop_active_lanes_match_mask_scan ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "active lists equal the mask scan (%d cases)" count)
    (QCheck.make ~print:print_lane_case gen_lane_case)
    lane_case_agrees

let active_lanes_suite =
  ( "active-lanes",
    [
      QCheck_alcotest.to_alcotest ~speed_level:`Quick (prop_active_lanes_match_mask_scan ~count:300);
      QCheck_alcotest.to_alcotest ~speed_level:`Slow (prop_active_lanes_match_mask_scan ~count:10_000);
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

(* An input row must have exactly its declared shape: a different
   element count, or the same count in another shape, is refused before
   anything is written. *)
let test_lanes_input_mismatch () =
  let lanes =
    Pc_vm.Lanes.create fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z:1
  in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Pc_vm: input count mismatch")
    (fun () -> Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[]);
  let open Lang in
  let pair =
    Autobatch.compile ~input_shapes:[ [| 2; 3 |]; Shape.scalar ]
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

(* ---------- pool templates ---------- *)

(* The eight-schools NUTS program and a 4-chain batch of two iterations. *)
let es_nuts =
  lazy
    (let model = Eight_schools.model () in
     let reg, _ = Nuts_dsl.setup ~model () in
     let cfg = Nuts.default_config ~eps:0.2 () in
     let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
     ( Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog,
       Nuts_dsl.inputs ~q0:(Tensor.zeros [| model.Model.dim |]) ~eps:0.2 ~n_iter:2 ~n_burn:0
         ~batch:4 () ))

(* Run [batch] to completion on the pool [make] builds, on a fresh
   engine: the outputs, the Step / Occupancy / Launched stream and the
   engine's snapshot. *)
let drive make batch =
  let events = ref [] in
  let sink ev =
    match ev with
    | Obs_sink.Step _ | Obs_sink.Occupancy _ | Obs_sink.Launched _ -> events := ev :: !events
    | _ -> ()
  in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Hybrid () in
  Engine.set_sink engine sink;
  let config = { Pc_vm.default_config with engine = Some engine; sink = Some sink } in
  let z = (Tensor.shape (List.hd batch)).(0) in
  let lanes = make ~config ~z in
  for lane = 0 to z - 1 do
    Pc_vm.Lanes.load lanes ~lane ~member:(7 + lane)
      ~inputs:(List.map (fun x -> Tensor.slice_row x lane) batch)
  done;
  while Pc_vm.Lanes.step lanes do
    ()
  done;
  (Pc_vm.Lanes.outputs lanes, List.rev !events, Engine.snapshot engine)

(* Pools bound from one template run exactly as pools that share
   nothing: two pools bound in turn from one template and a pool from
   [create] give bitwise the same outputs, event stream and engine
   counters, on fib and on NUTS. *)
let test_template_pools_bitwise () =
  let es, es_batch = Lazy.force es_nuts in
  List.iter
    (fun (name, (c : Autobatch.compiled), batch) ->
      let reg = c.Autobatch.registry in
      let outs, events, snap =
        drive (fun ~config ~z -> Pc_vm.Lanes.create ~config reg c.Autobatch.stack ~z) batch
      in
      let tpl = Pc_vm.Lanes.template c.Autobatch.stack in
      for i = 1 to 2 do
        let outs', events', snap' =
          drive (fun ~config ~z -> Pc_vm.Lanes.bind ~config reg tpl ~z) batch
        in
        let what = Printf.sprintf "%s, pool %d of the template" name i in
        Alcotest.(check bool) (what ^ ": outputs bitwise") true
          (List.for_all2 Tensor.equal outs outs');
        Alcotest.(check int) (what ^ ": event count") (List.length events)
          (List.length events');
        Alcotest.(check bool) (what ^ ": same event stream") true (events = events');
        Alcotest.(check bool) (what ^ ": same engine snapshot") true (snap = snap')
      done)
    [ ("fib", fib_compiled, [ Tensor.of_list [ 5.; 3.; 7.; 1. ] ]); ("nuts", es, es_batch) ]

(* The template names primitives and never holds them, so a copy of a
   compiled program on another registry (the e2e benchmark's probe
   swaps in a timed one) runs that registry's primitives even after the
   shared template was built. Counted through [run_pc] on the copy and
   through an independent pool on a second counting registry, every
   [add] call is seen. *)
let test_template_registry_swap () =
  let counting () =
    let reg = Prim.copy fib_compiled.Autobatch.registry and calls = ref 0 in
    let add = Prim.find_exn reg "add" in
    Prim.register reg
      { add with Prim.batched = (fun ~members args -> incr calls; add.Prim.batched ~members args) };
    (reg, calls)
  in
  let batch = [ Tensor.of_list [ 6.; 2.; 9. ] ] in
  ignore (Autobatch.run_pc fib_compiled ~batch);
  let reg, calls = counting () in
  let probed = { fib_compiled with Autobatch.registry = reg } in
  Alcotest.(check bool) "the copy shares the built template" true
    (Autobatch.template probed == Autobatch.template fib_compiled);
  let outs = Autobatch.run_pc probed ~batch in
  let reg', calls' = counting () in
  let outs' = Pc_vm.run reg' fib_compiled.Autobatch.stack ~batch in
  Alcotest.(check bool) "outputs bitwise" true (List.for_all2 Tensor.equal outs outs');
  Alcotest.(check bool) "add ran" true (!calls' > 0);
  Alcotest.(check int) "every add call seen" !calls' !calls

(* Pools of one template share its stored-variable array, so lane states
   and images cross between them on [same_vars]'s physical-equality
   test; pools from separate [create]s hold equal but distinct arrays,
   and still accept each other's states. *)
let test_template_shares_vars () =
  let reg = fib_compiled.Autobatch.registry and stack = fib_compiled.Autobatch.stack in
  let tpl = Pc_vm.Lanes.template stack in
  let a = Pc_vm.Lanes.bind reg tpl ~z:2 and b = Pc_vm.Lanes.bind reg tpl ~z:3 in
  let c = Pc_vm.Lanes.create reg stack ~z:2 in
  Pc_vm.Lanes.load a ~lane:1 ~member:4 ~inputs:[ Tensor.scalar 8. ];
  for _ = 1 to 5 do
    ignore (Pc_vm.Lanes.step a)
  done;
  let st = Pc_vm.Lanes.export_lane a ~lane:1 and img = Pc_vm.Lanes.capture a in
  let vars p = (Pc_vm.Lanes.capture p).Pc_vm.Lanes.li_vars in
  Alcotest.(check bool) "one array for the template's pools" true
    (st.Pc_vm.Lanes.ls_vars == vars b && img.Pc_vm.Lanes.li_vars == vars b);
  Alcotest.(check bool) "another create's array is equal, not shared" true
    (vars c != vars a && vars c = vars a);
  Pc_vm.Lanes.evict a ~lane:1;
  Pc_vm.Lanes.import_lane b ~lane:2 st;
  Pc_vm.Lanes.restore c img;
  let drain p lane =
    while Pc_vm.Lanes.step p do
      ()
    done;
    Pc_vm.Lanes.retire p ~lane
  in
  let want = Autobatch.run_single fib_compiled ~member:4 ~args:[ Tensor.scalar 8. ] in
  List.iter
    (fun (name, got) ->
      Alcotest.(check bool) name true (List.for_all2 Tensor.equal want got))
    [ ("migrated lane", drain b 2); ("restored image", drain c 1) ]

(* ---------- allocation gates ---------- *)

(* Allocation counts do not move with code placement or host load, so
   these bounds can be tight. A later change may lower them, never raise
   them. *)

(* fib's stepping at z = 64 on a fixed pool, priced on a fused GPU engine
   with no sink: depths 6..15, 8,423 supersteps. It allocated 75.6 minor
   words per superstep while the engine boxed its float totals and built
   its launch events unobserved, and 64.6 since. *)
let test_fib_stepping_words () =
  let z = 64 in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let lanes =
    Pc_vm.Lanes.create
      ~config:{ Pc_vm.default_config with engine = Some engine }
      fib_compiled.Autobatch.registry fib_compiled.Autobatch.stack ~z
  in
  for lane = 0 to z - 1 do
    Pc_vm.Lanes.load lanes ~lane ~member:lane
      ~inputs:[ Tensor.scalar (float_of_int (6 + (lane mod 10))) ]
  done;
  let steps = ref 0 in
  let before = Gc.minor_words () in
  while Pc_vm.Lanes.step lanes do
    incr steps
  done;
  let per_step = (Gc.minor_words () -. before) /. float_of_int !steps in
  Alcotest.(check int) "supersteps" 8423 !steps;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per superstep, under 70" per_step)
    true (per_step < 70.)

(* With no sink set, an engine charge builds no event and boxes no
   float: a thousand of each kind of charge allocate (almost) nothing. *)
let test_engine_charge_words () =
  List.iter
    (fun (name, mode) ->
      let e = Engine.create ~device:Device.gpu ~mode () in
      let p = Engine.price e ~ops:[ "add"; "mul" ] ~flops:8. ~control_ops:2 ~traffic_bytes:64. in
      Engine.charge_kernel e ~name:"k" ~flops:1.;
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        Engine.charge_priced e p;
        Engine.charge_kernel e ~name:"k" ~flops:1.;
        Engine.charge_refill e ~bytes:8.;
        Engine.charge_retire e ~bytes:8.;
        Engine.charge_host_call e;
        Engine.charge_transfer e ~name:"move" ~bytes:8. ~seconds:0.
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 6,000 charges allocate %.0f words, under 16"
           name words)
        true (words < 16.))
    [ ("eager", Engine.Eager); ("fused", Engine.Fused); ("hybrid", Engine.Hybrid) ]

(* Binding a z = 2 pool of the eight-schools NUTS program from a built
   template allocates its storage and bound blocks only: ~10k words,
   against ~28k for [create], which builds the template too (and ~49k
   before the template existed). *)
let test_bind_words () =
  let c, _ = Lazy.force es_nuts in
  let reg = c.Autobatch.registry in
  let tpl = Autobatch.template c in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let bound = 14_000. in
  let bind = words (fun () -> Pc_vm.Lanes.bind reg tpl ~z:2) in
  let create = words (fun () -> Pc_vm.Lanes.create reg c.Autobatch.stack ~z:2) in
  Alcotest.(check bool)
    (Printf.sprintf "bind allocates %.0f words, under %.0f" bind bound)
    true (bind < bound);
  Alcotest.(check bool)
    (Printf.sprintf "create allocates %.0f words, over %.0f" create bound)
    true (create > bound)

let template_suite =
  ( "pool-template",
    [
      t "pools of one template are bitwise fresh pools" `Quick test_template_pools_bitwise;
      t "a swapped registry sees every call" `Quick test_template_registry_swap;
      t "pools of one template share vars" `Quick test_template_shares_vars;
    ] )

(* The batched logistic-regression kernels at z = 32 on nuts-logreg-z32's
   250 x 20 data. [Gc.minor_words] counts the minor heap only: the
   tensor records, the [z] logp result and shape arrays. The [z; n]
   buffers and the [z; dim] gradient are over [Max_young_wosize] (256
   words) and are allocated directly on the major heap, so the bound does
   not count them. What it catches is per-element work that allocates:
   one boxed float per element would read 32,000 words. The unfused
   kernels read 29 (grad) and 208 (logp) words; the fused ones 15 and
   50. *)
let test_logistic_kernel_words () =
  let m = Logistic_model.model ~seed:0xDA7AL ~n:250 ~dim:20 () in
  let stream = Splitmix.Stream.create 0x6A7EL in
  let q = Tensor.init [| 32; 20 |] (fun _ -> Splitmix.Stream.normal stream) in
  List.iter
    (fun (name, f) ->
      ignore (Sys.opaque_identity (f q));
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (f q));
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocates %.0f minor words, under 256" name words)
        true (words < 256.))
    [ ("grad_batch", m.Model.grad_batch); ("logp_batch", m.Model.logp_batch) ]

let alloc_suite =
  ( "alloc-gate",
    [
      t "engine charges without a sink" `Quick test_engine_charge_words;
      t "fib stepping words per superstep" `Quick test_fib_stepping_words;
      t "bind from a template" `Quick test_bind_words;
      t "logistic kernels at z = 32" `Quick test_logistic_kernel_words;
    ] )

let suites =
  suites
  @ [ lanes_suite; active_lanes_suite ]
  @ serve_suites
  @ [ template_suite; alloc_suite ]
