(* lib/sched — the scheduling subsystem: policy picks and tie-breaking,
   static cost/depth tables, the pure defragmentation planner, the lane
   migration seam (Pc_vm.Lanes export/evict/import), and migration
   determinism: every runtime stays bitwise identical to the Earliest
   program-counter baseline under every policy and migration schedule. *)

let scalar_batch a = Tensor.init [| Array.length a |] (fun i -> a.(i.(0)))

let fib_compiled =
  Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib

let fib_batch = [ scalar_batch [| 4.; 7.; 5.; 9.; 6.; 8. |] ]

let walk_compiled =
  Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.random_walk

let walk_batch = [ scalar_batch [| 3.; 6.; 1.; 8.; 4.; 2. |] ]

(* ---------- Sched_policy ---------- *)

let test_policy_strings () =
  Alcotest.(check int) "three legacy heuristics" 3 (List.length Sched_policy.legacy);
  Alcotest.(check int) "five policies" 5 (List.length Sched_policy.all);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("round-trip " ^ Sched_policy.to_string p)
        true
        (Sched_policy.of_string (Sched_policy.to_string p) = Some p))
    Sched_policy.all;
  Alcotest.(check bool) "cost alias" true
    (Sched_policy.of_string "cost" = Some Sched_policy.Cost_lookahead);
  Alcotest.(check bool) "critical alias" true
    (Sched_policy.of_string "critical" = Some Sched_policy.Critical_path);
  Alcotest.(check bool) "unknown" true (Sched_policy.of_string "zippy" = None);
  Alcotest.check_raises "of_string_exn raises"
    (Invalid_argument
       "Sched_policy.of_string_exn: unknown policy \"zippy\" \
        (earliest|most-active|round-robin|cost-lookahead|critical-path)")
    (fun () -> ignore (Sched_policy.of_string_exn "zippy"))

let test_policy_picks () =
  let counts = [| 0; 2; 3; 3; 1 |] in
  let tables =
    {
      Sched_policy.cost = [| 1.; 10.; 1.; 2.; 100. |];
      depth = [| 0.; 1.; 5.; 5.; 9. |];
    }
  in
  let pick ?tables p = Sched_policy.pick ?tables p ~last:(-1) ~counts in
  Alcotest.(check (option int)) "earliest -> lowest runnable" (Some 1)
    (pick Sched_policy.Earliest);
  Alcotest.(check (option int)) "most-active ties to lowest" (Some 2)
    (pick Sched_policy.Most_active);
  (* counts.(i) * cost.(i): 20, 3, 6, 100 -> block 4. *)
  Alcotest.(check (option int)) "cost-lookahead maximizes count*cost" (Some 4)
    (pick ~tables Sched_policy.Cost_lookahead);
  (* Longest remaining road among runnable blocks: depths 1, 5, 5, 9. *)
  Alcotest.(check (option int)) "critical-path maximizes depth" (Some 4)
    (pick ~tables Sched_policy.Critical_path);
  (* Depth ties break toward the lowest block index. *)
  Alcotest.(check (option int)) "critical-path tie to lowest" (Some 2)
    (Sched_policy.pick
       ~tables:
         { Sched_policy.cost = [| 1.; 1.; 1.; 1.; 1. |];
           depth = [| 9.; 0.; 5.; 5.; 1. |] }
       Sched_policy.Critical_path ~last:(-1) ~counts);
  (* Without tables the table-driven policies degrade as documented. *)
  Alcotest.(check (option int)) "no tables: cost-lookahead = most-active"
    (pick Sched_policy.Most_active)
    (pick Sched_policy.Cost_lookahead);
  Alcotest.(check (option int)) "no tables: critical-path = earliest"
    (pick Sched_policy.Earliest)
    (pick Sched_policy.Critical_path);
  (* All-idle pools pick nothing, under every policy. *)
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        ("all-zero " ^ Sched_policy.to_string p)
        None
        (Sched_policy.pick ~tables p ~last:(-1) ~counts:[| 0; 0; 0; 0; 0 |]))
    Sched_policy.all;
  Alcotest.(check bool) "needs_tables" true
    (Sched_policy.needs_tables Sched_policy.Cost_lookahead
    && Sched_policy.needs_tables Sched_policy.Critical_path
    && not (List.exists Sched_policy.needs_tables Sched_policy.legacy))

let test_cost_tables () =
  let stack = fib_compiled.Autobatch.stack in
  let tables =
    Sched_cost.stack_tables ~registry:fib_compiled.Autobatch.registry stack
  in
  let n = Array.length stack.Stack_ir.blocks in
  Alcotest.(check int) "costs cover every block" n
    (Array.length tables.Sched_policy.cost);
  Alcotest.(check int) "depths cover every block" n
    (Array.length tables.Sched_policy.depth);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d launch charge" i)
        true (c >= 1.);
      (* depth = own cost + longest forward path, so never below cost. *)
      Alcotest.(check bool)
        (Printf.sprintf "block %d depth >= cost" i)
        true
        (tables.Sched_policy.depth.(i) >= c))
    tables.Sched_policy.cost;
  (* Mismatched tables are rejected rather than silently truncated. *)
  Alcotest.(check bool) "short tables rejected" true
    (match
       Sched_policy.pick
         ~tables:{ Sched_policy.cost = [| 1. |]; depth = [| 1. |] }
         Sched_policy.Cost_lookahead ~last:(-1)
         ~counts:(Array.make n 1)
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "func_tables unknown fn" true
    (match Sched_cost.func_costs fib_compiled.Autobatch.cfg ~fn:"nope" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Sched_plan ---------- *)

let test_choose_lanes () =
  let free = [| false; true; true; false; true |] in
  Alcotest.(check bool) "lowest free lanes" true
    (Sched_plan.choose_lanes ~free ~width:2 = Some [| 1; 2 |]);
  Alcotest.(check bool) "all free lanes" true
    (Sched_plan.choose_lanes ~free ~width:3 = Some [| 1; 2; 4 |]);
  Alcotest.(check bool) "too wide" true
    (Sched_plan.choose_lanes ~free ~width:4 = None)

let test_plan_refills () =
  let views =
    [|
      { Sched_plan.free = [ 0; 2 ]; live = [ 1 ] };
      { Sched_plan.free = [ 1 ]; live = [ 0 ] };
    |]
  in
  let plan = Sched_plan.plan Sched_plan.no_migration ~pending:2 ~views in
  Alcotest.(check bool) "(shard, lane) order" true
    (plan.Sched_plan.refills
    = [
        { Sched_plan.r_shard = 0; r_lane = 0 };
        { Sched_plan.r_shard = 0; r_lane = 2 };
      ]);
  Alcotest.(check bool) "no moves without migration" true
    (plan.Sched_plan.moves = []);
  let full = Sched_plan.plan Sched_plan.no_migration ~pending:9 ~views in
  Alcotest.(check int) "refills bounded by free lanes" 3
    (List.length full.Sched_plan.refills);
  let off = Sched_plan.plan Sched_plan.off ~pending:9 ~views in
  Alcotest.(check bool) "off plans nothing" true
    (off.Sched_plan.refills = [] && off.Sched_plan.moves = [])

let test_plan_steals () =
  let views () =
    [|
      { Sched_plan.free = []; live = [ 0; 1; 2; 3 ] };
      { Sched_plan.free = [ 0; 1; 2; 3 ]; live = [] };
    |]
  in
  (* Default: one steal per round, donor's highest live lane into the
     recipient's lowest free lane. *)
  let plan = Sched_plan.plan Sched_plan.default ~pending:0 ~views:(views ()) in
  Alcotest.(check bool) "one capped steal" true
    (plan.Sched_plan.moves
    = [
        { Sched_plan.m_src_shard = 0; m_src_lane = 3; m_dst_shard = 1; m_dst_lane = 0 };
      ]);
  (* Aggressive: steal until the imbalance drops below the margin
     (4-0 -> 3-1 -> 2-2, stop). *)
  let plan = Sched_plan.plan Sched_plan.aggressive ~pending:0 ~views:(views ()) in
  Alcotest.(check bool) "steals until balanced" true
    (plan.Sched_plan.moves
    = [
        { Sched_plan.m_src_shard = 0; m_src_lane = 3; m_dst_shard = 1; m_dst_lane = 0 };
        { Sched_plan.m_src_shard = 0; m_src_lane = 2; m_dst_shard = 1; m_dst_lane = 1 };
      ])

let test_plan_compaction () =
  (* One shard, fragmented: live members slide down into the lowest free
     lanes (3 -> 0), and a move that would not lower the member's lane
     index (1 -> 2) is not emitted. *)
  let views = [| { Sched_plan.free = [ 0; 2 ]; live = [ 1; 3 ] } |] in
  let plan = Sched_plan.plan Sched_plan.default ~pending:0 ~views in
  Alcotest.(check bool) "slides top live lane down" true
    (plan.Sched_plan.moves
    = [
        { Sched_plan.m_src_shard = 0; m_src_lane = 3; m_dst_shard = 0; m_dst_lane = 0 };
      ]);
  let no_compact =
    Sched_plan.plan { Sched_plan.default with compact = false } ~pending:0 ~views
  in
  Alcotest.(check bool) "compaction can be disabled" true
    (no_compact.Sched_plan.moves = [])

let test_plan_deterministic () =
  let views () =
    [|
      { Sched_plan.free = [ 2; 5 ]; live = [ 0; 1; 3; 4 ] };
      { Sched_plan.free = [ 0; 1; 2; 4 ]; live = [ 3; 5 ] };
      { Sched_plan.free = [ 1 ]; live = [ 0; 2 ] };
    |]
  in
  let a = Sched_plan.plan Sched_plan.aggressive ~pending:3 ~views:(views ()) in
  let b = Sched_plan.plan Sched_plan.aggressive ~pending:3 ~views:(views ()) in
  Alcotest.(check bool) "plans are a pure function of the view" true (a = b);
  (* The plan is valid applied in order: every refill targets a lane
     that is free at that point, and every move reads a live source and
     lands in a free destination at that point. (A lane may be targeted
     twice — e.g. refilled, stolen away, then refilled by compaction —
     so global distinctness is NOT the invariant.) *)
  let occupied = Hashtbl.create 16 in
  Array.iteri
    (fun s v -> List.iter (fun l -> Hashtbl.replace occupied (s, l) ()) v.Sched_plan.live)
    (views ());
  List.iter
    (fun r ->
      let key = (r.Sched_plan.r_shard, r.Sched_plan.r_lane) in
      Alcotest.(check bool) "refill targets a free lane" false
        (Hashtbl.mem occupied key);
      Hashtbl.replace occupied key ())
    a.Sched_plan.refills;
  List.iter
    (fun m ->
      let src = (m.Sched_plan.m_src_shard, m.Sched_plan.m_src_lane) in
      let dst = (m.Sched_plan.m_dst_shard, m.Sched_plan.m_dst_lane) in
      Alcotest.(check bool) "move reads a live source" true
        (Hashtbl.mem occupied src);
      Alcotest.(check bool) "move lands in a free lane" false
        (Hashtbl.mem occupied dst);
      Hashtbl.remove occupied src;
      Hashtbl.replace occupied dst ())
    a.Sched_plan.moves;
  (* This view set exercises the re-target case: steals drain a refilled
     lane and compaction refills it, so there are more targets than
     distinct lanes. *)
  Alcotest.(check bool) "steals and compaction both fired" true
    (List.length a.Sched_plan.moves >= 3)

(* ---------- the lane migration seam ---------- *)

(* Drain a pool that got its members preloaded, migrating by [migrate]
   every few steps, and return the per-member outputs. *)
let drain_pool ?(migrate_every = 3) ?(migrate = fun _ _ -> ()) pool ~n =
  let z = Pc_vm.Lanes.z pool in
  let outputs = Array.make n [] in
  let retire_finished () =
    List.iter
      (fun lane ->
        let m = Pc_vm.Lanes.member pool ~lane in
        outputs.(m) <- Pc_vm.Lanes.retire pool ~lane)
      (Pc_vm.Lanes.finished_lanes pool)
  in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    retire_finished ();
    if !steps mod migrate_every = 0 then begin
      let lanes = List.init z Fun.id in
      let live = List.filter (fun l -> Pc_vm.Lanes.live pool ~lane:l) lanes in
      let free =
        List.filter (fun l -> not (Pc_vm.Lanes.occupied pool ~lane:l)) lanes
      in
      migrate live free
    end;
    incr steps;
    if not (Pc_vm.Lanes.step pool) then continue_ := false
  done;
  retire_finished ();
  outputs

let check_members label baseline outputs =
  Array.iteri
    (fun m outs ->
      Alcotest.(check int)
        (Printf.sprintf "%s: member %d retired" label m)
        (List.length baseline) (List.length outs);
      List.iteri
        (fun j t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: member %d output %d bitwise" label m j)
            true
            (Tensor.equal t (Tensor.slice_row (List.nth baseline j) m)))
        outs)
    outputs

let preloaded compiled batch ~z =
  let pool =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack ~z
  in
  let n = (Tensor.shape (List.hd batch)).(0) in
  for m = 0 to n - 1 do
    Pc_vm.Lanes.load pool ~lane:m ~member:m
      ~inputs:(List.map (fun t -> Tensor.slice_row t m) batch)
  done;
  (pool, n)

let test_migration_in_pool () =
  (* fib (stacked recursion state) and random_walk (counter-keyed RNG
     draws): sliding the top live lane into the lowest free lane every
     few steps must leave every member's outputs bitwise intact. The
     pool has two spare lanes so a migration target exists even when no
     member has retired yet (random_walk members all finish on the same
     superstep, so mid-run retirement never frees a lane there). *)
  List.iter
    (fun (label, compiled, batch) ->
      let baseline = Autobatch.run_pc compiled ~batch in
      let pool, n = preloaded compiled batch ~z:((Tensor.shape (List.hd batch)).(0) + 2) in
      let moved = ref 0 in
      let outputs =
        drain_pool pool ~n ~migrate:(fun live free ->
            match (List.rev live, free) with
            | src :: _, dst :: _ ->
              ignore (Pc_vm.Lanes.migrate pool ~src ~dst);
              incr moved
            | _ -> ())
      in
      Alcotest.(check bool) (label ^ ": migrations happened") true (!moved > 0);
      check_members label baseline outputs)
    [
      ("fib", fib_compiled, fib_batch);
      ("random_walk", walk_compiled, walk_batch);
    ]

let test_migration_across_pools () =
  (* Export a live lane mid-run, evict it, and import it into a fresh
     pool at a different lane index: the member's trajectory continues
     bitwise-exactly (the RNG keys on the member identity carried in the
     state, never on the lane index or the pool). *)
  let compiled, batch = (walk_compiled, walk_batch) in
  let baseline = Autobatch.run_pc compiled ~batch in
  let n = (Tensor.shape (List.hd batch)).(0) in
  let pool_a, _ = preloaded compiled batch ~z:n in
  let pool_b =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack ~z:4
  in
  (* Run A a few steps, then deport its highest live lane into B. *)
  for _ = 1 to 5 do
    ignore (Pc_vm.Lanes.step pool_a)
  done;
  let src =
    match
      List.rev
        (List.filter
           (fun l -> Pc_vm.Lanes.live pool_a ~lane:l)
           (List.init n Fun.id))
    with
    | src :: _ -> src
    | [] -> Alcotest.fail "walk drained in five steps"
  in
  let state = Pc_vm.Lanes.export_lane pool_a ~lane:src in
  let bytes = Pc_vm.Lanes.lane_state_bytes state in
  Alcotest.(check bool) "migration payload is priced" true (bytes > 0.);
  Pc_vm.Lanes.evict pool_a ~lane:src;
  Pc_vm.Lanes.import_lane pool_b ~lane:1 state;
  Alcotest.(check int) "member identity travels with the state"
    state.Pc_vm.Lanes.ls_member
    (Pc_vm.Lanes.member pool_b ~lane:1);
  let out_a = drain_pool pool_a ~n in
  let out_b = drain_pool pool_b ~n in
  (* Each member finished in exactly one of the two pools. *)
  let outputs =
    Array.init n (fun m -> if out_a.(m) = [] then out_b.(m) else out_a.(m))
  in
  check_members "cross-pool" baseline outputs

(* [Lanes.lane_bytes] sizes a lane from the live storage; it must agree
   exactly with sizing the exported copy — on every occupied lane at every
   superstep, and on a lane just filled by [import_lane]. Covers fib
   (scalar stacked recursion), vec_double (vector rows on stacks whose
   depth grows) and fib compiled without input shapes (slots allocated on
   first write, so early supersteps have unwritten variables). *)
let test_lane_bytes_matches_export () =
  let vec_batch =
    [
      Tensor.init [| 4; 3 |] (fun i -> float_of_int ((i.(0) * 3) + i.(1)) *. 0.25);
      scalar_batch [| 2.; 5.; 0.; 3. |];
    ]
  in
  List.iter
    (fun (label, compiled, batch) ->
      let n = (Tensor.shape (List.hd batch)).(0) in
      let pool, _ = preloaded compiled batch ~z:(n + 1) in
      let z = n + 1 in
      let check_lane what lane expected =
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: %s lane %d" label what lane)
          expected
          (Pc_vm.Lanes.lane_bytes pool ~lane)
      in
      let steps = ref 0 and imports = ref 0 in
      let check_all () =
        for lane = 0 to z - 1 do
          if Pc_vm.Lanes.occupied pool ~lane then
            check_lane "occupied" lane
              (Pc_vm.Lanes.lane_state_bytes (Pc_vm.Lanes.export_lane pool ~lane))
        done
      in
      check_all ();
      while Pc_vm.Lanes.step pool do
        incr steps;
        check_all ();
        (* Every third superstep, move the highest live lane into a free
           one and size the freshly imported lane. *)
        if !steps mod 3 = 0 then begin
          let lanes = List.init z Fun.id in
          match
            ( List.rev (List.filter (fun l -> Pc_vm.Lanes.live pool ~lane:l) lanes),
              List.filter (fun l -> not (Pc_vm.Lanes.occupied pool ~lane:l)) lanes )
          with
          | src :: _, dst :: _ ->
            let st = Pc_vm.Lanes.export_lane pool ~lane:src in
            Pc_vm.Lanes.evict pool ~lane:src;
            Pc_vm.Lanes.import_lane pool ~lane:dst st;
            incr imports;
            check_lane "imported" dst (Pc_vm.Lanes.lane_state_bytes st)
          | _ -> ()
        end
      done;
      Alcotest.(check bool) (label ^ ": ran and migrated") true (!steps > 3 && !imports > 0))
    [
      ("fib", fib_compiled, fib_batch);
      ( "vec_double",
        Autobatch.compile ~input_shapes:[ [| 3 |]; Shape.scalar ] Test_programs.vec_double,
        vec_batch );
      ("fib without shapes", Autobatch.compile Test_programs.fib, fib_batch);
    ]

(* Seeded-schedule fuzzer: a deterministic RNG drives arbitrary legal
   migrations (any live lane into any free lane, at random step counts)
   and the per-member outputs must stay bitwise equal to the plain
   program-counter run — under a random scheduling policy, too. *)
let prop_migration_fuzz =
  QCheck.Test.make ~name:"seeded migration schedules stay bitwise" ~count:40
    (QCheck.triple QCheck.small_nat
       (QCheck.oneofl Sched_policy.all)
       (QCheck.oneofl [ `Fib; `Walk ]))
    (fun (seed, sched, which) ->
      let compiled, batch =
        match which with
        | `Fib -> (fib_compiled, fib_batch)
        | `Walk -> (walk_compiled, walk_batch)
      in
      let baseline =
        Autobatch.run_pc
          ~config:{ Pc_vm.default_config with sched }
          compiled ~batch
      in
      let n = (Tensor.shape (List.hd batch)).(0) in
      let z = n + 3 in
      let pool =
        Pc_vm.Lanes.create
          ~config:{ Pc_vm.default_config with sched }
          compiled.Autobatch.registry compiled.Autobatch.stack ~z
      in
      for m = 0 to n - 1 do
        Pc_vm.Lanes.load pool ~lane:m ~member:m
          ~inputs:(List.map (fun t -> Tensor.slice_row t m) batch)
      done;
      let rng = Random.State.make [| seed; 0xA1 |] in
      let outputs =
        drain_pool pool ~n ~migrate_every:1 ~migrate:(fun live free ->
            if live <> [] && free <> [] && Random.State.bool rng then begin
              let pick l = List.nth l (Random.State.int rng (List.length l)) in
              ignore (Pc_vm.Lanes.migrate pool ~src:(pick live) ~dst:(pick free))
            end)
      in
      Array.iteri
        (fun m outs ->
          List.iteri
            (fun j t ->
              if not (Tensor.equal t (Tensor.slice_row (List.nth baseline j) m))
              then
                QCheck.Test.fail_reportf
                  "member %d output %d diverged under seed %d / %s" m j seed
                  (Sched_policy.to_string sched))
            outs)
        outputs;
      true)

(* ---------- migration differentials (Sched_sweep.bitwise_matrix) ---------- *)

let expect_all_bitwise label checks =
  Alcotest.(check int)
    (label ^ ": policies x runtimes x plans covered")
    (* pc, local, shard, server, and Sched_vm under two plans *)
    (List.length Sched_policy.all * 6)
    (List.length checks);
  match Sched_sweep.failures checks with
  | [] -> ()
  | bad ->
    let c = List.hd bad in
    Alcotest.failf "%s: %d checks not bitwise (first: %s under %s, plan %s)"
      label (List.length bad) c.Sched_sweep.c_runtime c.Sched_sweep.c_policy
      c.Sched_sweep.c_plan

let test_matrix_fib () =
  expect_all_bitwise "fib" (Sched_sweep.bitwise_matrix fib_compiled ~batch:fib_batch)

let test_matrix_walk () =
  expect_all_bitwise "random_walk"
    (Sched_sweep.bitwise_matrix walk_compiled ~batch:walk_batch)

let test_matrix_vector () =
  let compiled =
    Autobatch.compile ~input_shapes:[ [| 4 |]; Shape.scalar ]
      Test_programs.vec_double
  in
  let batch =
    [
      Tensor.init [| 5; 4 |] (fun i -> float_of_int ((i.(0) * 4) + i.(1) + 1));
      scalar_batch [| 0.; 3.; 5.; 1.; 2. |];
    ]
  in
  expect_all_bitwise "vec_double" (Sched_sweep.bitwise_matrix compiled ~batch)

(* ---------- Sched_vm ---------- *)

let test_sched_vm_rejects () =
  let run config =
    Sched_vm.run ~config fib_compiled.Autobatch.registry
      fib_compiled.Autobatch.stack ~batch:fib_batch
  in
  Alcotest.(check bool) "zero lanes rejected" true
    (match run { Sched_vm.default_config with lanes = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sched_vm_accounting () =
  let config =
    {
      Sched_vm.default_config with
      lanes = 2;
      mesh = Mesh.gpu_pod ~n:2 ();
      plan = Sched_plan.aggressive;
    }
  in
  let r =
    Sched_vm.run ~config walk_compiled.Autobatch.registry
      walk_compiled.Autobatch.stack ~batch:walk_batch
  in
  let baseline = Autobatch.run_pc walk_compiled ~batch:walk_batch in
  List.iteri
    (fun j t ->
      Alcotest.(check bool)
        (Printf.sprintf "output %d bitwise" j)
        true
        (Tensor.equal t (List.nth baseline j)))
    r.Sched_vm.outputs;
  (* Capacity (2 shards x 2 lanes) is below the batch (6): lanes must
     recycle, so there are more refills than the initial fill. *)
  Alcotest.(check bool) "lanes recycled" true (r.Sched_vm.refills > 4);
  Alcotest.(check bool) "supersteps counted" true (r.Sched_vm.supersteps > 0);
  Alcotest.(check bool) "steals within migrations" true
    (r.Sched_vm.steals <= r.Sched_vm.migrations);
  Alcotest.(check bool) "migrations are priced" true
    (r.Sched_vm.migrations = 0 || r.Sched_vm.migration_bytes > 0.);
  Alcotest.(check bool) "clock advanced" true (r.Sched_vm.sim_time > 0.)

let suites =
  [
    ( "sched-policy",
      [
        ("policy strings", `Quick, test_policy_strings);
        ("policy picks", `Quick, test_policy_picks);
        ("cost tables", `Quick, test_cost_tables);
      ] );
    ( "sched-plan",
      [
        ("choose_lanes", `Quick, test_choose_lanes);
        ("refills", `Quick, test_plan_refills);
        ("steals", `Quick, test_plan_steals);
        ("compaction", `Quick, test_plan_compaction);
        ("deterministic", `Quick, test_plan_deterministic);
      ] );
    ( "sched-migration",
      [
        ("in-pool migration bitwise", `Quick, test_migration_in_pool);
        ("cross-pool migration bitwise", `Quick, test_migration_across_pools);
        ("lane_bytes matches export", `Quick, test_lane_bytes_matches_export);
        ("bitwise matrix: fib", `Quick, test_matrix_fib);
        ("bitwise matrix: random_walk", `Quick, test_matrix_walk);
        ("bitwise matrix: vec_double", `Quick, test_matrix_vector);
        QCheck_alcotest.to_alcotest prop_migration_fuzz;
      ] );
    ( "sched-vm",
      [
        ("invalid configs rejected", `Quick, test_sched_vm_rejects);
        ("defrag run accounting", `Quick, test_sched_vm_accounting);
      ] );
  ]
