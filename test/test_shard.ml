(* Tests for multi-device sharded execution (Sched_vm's static partition):
   batch partitioning, the collective cost formulas, counter merging, and
   the acceptance criterion that sharded execution is bitwise-identical to
   the single-device run for the same seed. *)

let t = Alcotest.test_case
let check_f = Alcotest.(check (float 1e-12))

(* ---------- partitioning ---------- *)

let check_parts msg parts expected =
  Alcotest.(check (list (pair int int)))
    msg expected
    (Array.to_list
       (Array.map (fun p -> (p.Sched_plan.offset, p.Sched_plan.length)) parts))

let test_partition_remainder () =
  (* Front-loaded remainder: 10 over 4 shards is 3,3,2,2. *)
  check_parts "z=10 n=4"
    (Sched_plan.partition ~z:10 ~shards:4)
    [ (0, 3); (3, 3); (6, 2); (8, 2) ]

let test_partition_even () =
  check_parts "z=8 n=4"
    (Sched_plan.partition ~z:8 ~shards:4)
    [ (0, 2); (2, 2); (4, 2); (6, 2) ]

let test_partition_more_shards_than_members () =
  (* Never create empty shards: k = min(shards, z). *)
  check_parts "z=3 n=8"
    (Sched_plan.partition ~z:3 ~shards:8)
    [ (0, 1); (1, 1); (2, 1) ]

let test_partition_identity () =
  check_parts "z=5 n=1" (Sched_plan.partition ~z:5 ~shards:1) [ (0, 5) ]

let test_partition_covers () =
  (* Exact cover of [0, z): contiguous, ordered, total length z. *)
  for z = 1 to 17 do
    for shards = 1 to 9 do
      let parts = Sched_plan.partition ~z ~shards in
      let next = ref 0 in
      Array.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "contiguous z=%d n=%d" z shards)
            !next p.Sched_plan.offset;
          Alcotest.(check bool) "non-empty" true (p.Sched_plan.length > 0);
          next := p.Sched_plan.offset + p.Sched_plan.length)
        parts;
      Alcotest.(check int) (Printf.sprintf "total z=%d n=%d" z shards) z !next
    done
  done

let test_partition_invalid () =
  Alcotest.check_raises "z=0"
    (Invalid_argument "Sched_plan.partition: batch must be positive") (fun () ->
      ignore (Sched_plan.partition ~z:0 ~shards:2));
  Alcotest.check_raises "shards=0"
    (Invalid_argument "Sched_plan.partition: need at least one shard") (fun () ->
      ignore (Sched_plan.partition ~z:4 ~shards:0))

(* ---------- collective cost formulas ---------- *)

let round_link = { Mesh.name = "round"; bytes_per_sec = 100.; latency = 0.5 }
let mesh_n n = Mesh.create ~device:Device.gpu ~link:round_link ~n ()

let test_ring_all_reduce () =
  (* 2·(N-1)/N·bytes/bw + 2·(N-1)·lat = 2·(3/4)·4 + 6·0.5 = 9. *)
  check_f "n=4" 9.
    (Collectives.all_reduce_time (mesh_n 4) Collectives.Ring ~bytes:400.)

let test_tree_all_reduce () =
  (* 2·ceil(log2 N)·(bytes/bw + lat) = 4·(4 + 0.5) = 18. *)
  check_f "n=4" 18.
    (Collectives.all_reduce_time (mesh_n 4) Collectives.Tree ~bytes:400.);
  (* Non-power-of-two rounds the tree depth up: ceil(log2 5) = 3. *)
  check_f "n=5" 27.
    (Collectives.all_reduce_time (mesh_n 5) Collectives.Tree ~bytes:400.)

let test_all_gather () =
  (* Ring: (N-1)/N·bytes/bw + (N-1)·lat = 3 + 1.5 = 4.5. *)
  check_f "ring n=4" 4.5
    (Collectives.all_gather_time (mesh_n 4) Collectives.Ring ~bytes:400.);
  (* Recursive doubling: same bandwidth term, ceil(log2 N) latencies. *)
  check_f "tree n=4" 4.
    (Collectives.all_gather_time (mesh_n 4) Collectives.Tree ~bytes:400.)

let test_broadcast () =
  (* Pipelined chain: bytes/bw + (N-1)·lat = 4 + 1.5 = 5.5. *)
  check_f "ring n=4" 5.5
    (Collectives.broadcast_time (mesh_n 4) Collectives.Ring ~bytes:400.);
  (* Tree: ceil(log2 N)·(bytes/bw + lat) = 2·4.5 = 9. *)
  check_f "tree n=4" 9.
    (Collectives.broadcast_time (mesh_n 4) Collectives.Tree ~bytes:400.)

let test_single_device_free () =
  let m = mesh_n 1 in
  List.iter
    (fun algo ->
      check_f "all_reduce" 0. (Collectives.all_reduce_time m algo ~bytes:1e9);
      check_f "all_gather" 0. (Collectives.all_gather_time m algo ~bytes:1e9);
      check_f "broadcast" 0. (Collectives.broadcast_time m algo ~bytes:1e9))
    [ Collectives.Ring; Collectives.Tree ]

(* ---------- counter merging ---------- *)

let test_add_counters () =
  let e1 = Engine.create ~device:Device.gpu ~mode:Engine.Eager () in
  let e2 = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.charge_block e1 ~ops:[ ("a", 100.) ] ~control_ops:1 ~traffic_bytes:64.;
  Engine.charge_block e2 ~ops:[ ("b", 50.); ("c", 25.) ] ~control_ops:0
    ~traffic_bytes:32.;
  let c1 = (Engine.snapshot e1).Engine.at and c2 = (Engine.snapshot e2).Engine.at in
  let sum = Engine.Counters.add c1 c2 in
  Alcotest.(check int) "blocks"
    (c1.Engine.Counters.blocks + c2.Engine.Counters.blocks)
    sum.Engine.Counters.blocks;
  check_f "flops" (c1.Engine.Counters.flops +. c2.Engine.Counters.flops)
    sum.Engine.Counters.flops;
  check_f "traffic"
    (c1.Engine.Counters.traffic_bytes +. c2.Engine.Counters.traffic_bytes)
    sum.Engine.Counters.traffic_bytes;
  check_f "elapsed"
    (Engine.elapsed e1 +. Engine.elapsed e2)
    sum.Engine.Counters.elapsed_seconds;
  let z = Engine.Counters.zero in
  Alcotest.(check int) "zero blocks" 0 z.Engine.Counters.blocks;
  check_f "zero elapsed" 0. z.Engine.Counters.elapsed_seconds

let test_engine_merge () =
  let dst = Engine.create ~device:Device.gpu ~mode:Engine.Eager () in
  let src = Engine.create ~device:Device.gpu ~mode:Engine.Eager () in
  Engine.charge_block dst ~ops:[ ("a", 100.) ] ~control_ops:2 ~traffic_bytes:8.;
  Engine.charge_block src ~ops:[ ("b", 200.) ] ~control_ops:1 ~traffic_bytes:16.;
  let before = Engine.elapsed dst and s_src = Engine.snapshot src in
  Engine.merge ~into:dst s_src;
  check_f "time accumulates"
    (before +. s_src.Engine.at.Engine.Counters.elapsed_seconds)
    (Engine.elapsed dst);
  let merged = (Engine.snapshot dst).Engine.at in
  check_f "flops accumulate" 300. merged.Engine.Counters.flops;
  Alcotest.(check int) "blocks accumulate" 2 merged.Engine.Counters.blocks

(* ---------- sharded NUTS: determinism and time accounting ---------- *)

(* The compiled program with its start point and step size; test_tenant
   serves single requests of it. *)
let nuts_program =
  lazy
    (let dim = 5 in
     let model = Gaussian_model.model ~dim () in
     let reg, _ = Nuts_dsl.setup ~seed:0xD15EA5EL ~model () in
     let q0 = Tensor.zeros [| dim |] in
     let eps = Nuts.find_reasonable_eps ~seed:0xD15EA5EL ~model ~q0 () in
     let cfg = Nuts.default_config ~eps () in
     let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
     let compiled =
       Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model)
         prog
     in
     (compiled, q0, eps))

let nuts_fixture =
  lazy
    (let compiled, q0, eps = Lazy.force nuts_program in
     (compiled, Nuts_dsl.inputs ~q0 ~eps ~n_iter:2 ~n_burn:0 ~batch:6 ()))

let sharded_config ?(mode = None) devices =
  {
    Sched_vm.default_config with
    plan = Sched_plan.off;
    mesh = Mesh.gpu_pod ~n:devices ();
    mode;
  }

let check_outputs msg expected actual =
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s output %d bitwise" msg i)
        true (Tensor.equal e a))
    (List.combine expected actual)

let test_sharded_matches_pc () =
  (* The acceptance criterion: for any device count the sharded run
     reassembles exactly the single-device program-counter outputs,
     because lane b of shard o draws the RNG streams of member o+b. *)
  let compiled, batch = Lazy.force nuts_fixture in
  let reference = Autobatch.run_pc compiled ~batch in
  List.iter
    (fun devices ->
      let r =
        Autobatch.run_sharded ~config:(sharded_config devices) compiled ~batch
      in
      check_outputs
        (Printf.sprintf "pc devices=%d" devices)
        reference r.Sched_vm.outputs)
    [ 1; 2; 3; 4; 6; 8 ]

let test_sharded_time_accounting () =
  let compiled, batch = Lazy.force nuts_fixture in
  let config = sharded_config ~mode:(Some Engine.Fused) 4 in
  let r = Autobatch.run_sharded ~config compiled ~batch in
  Alcotest.(check int) "one time per shard" 4
    (Array.length r.Sched_vm.shard_times);
  check_f "compute is the slowest shard"
    (Array.fold_left Float.max 0. r.Sched_vm.shard_times)
    r.Sched_vm.compute_time;
  Alcotest.(check bool) "supersteps counted" true (r.Sched_vm.supersteps > 0);
  let output_bytes =
    List.fold_left
      (fun acc t -> acc +. (8. *. float_of_int (Tensor.numel t)))
      0. r.Sched_vm.outputs
  in
  let expected_collective =
    (float_of_int r.Sched_vm.supersteps
    *. Collectives.all_reduce_time config.Sched_vm.mesh Collectives.Ring
         ~bytes:8.)
    +. Collectives.all_gather_time config.Sched_vm.mesh Collectives.Ring
         ~bytes:output_bytes
  in
  check_f "collective priced from supersteps and outputs" expected_collective
    r.Sched_vm.collective_time;
  check_f "sim time decomposes"
    (r.Sched_vm.compute_time +. r.Sched_vm.collective_time)
    r.Sched_vm.sim_time;
  (* Engine counters from all four shards land in the merged total. *)
  Alcotest.(check bool) "merged fused launches" true
    (r.Sched_vm.counters.Engine.Counters.fused_launches > 0)

let test_sharded_counters_merged () =
  let compiled, batch = Lazy.force nuts_fixture in
  let single =
    Autobatch.run_sharded
      ~config:(sharded_config ~mode:(Some Engine.Fused) 1)
      compiled ~batch
  in
  let sharded =
    Autobatch.run_sharded
      ~config:(sharded_config ~mode:(Some Engine.Fused) 3)
      compiled ~batch
  in
  (* Results are identical, but the cost profile legitimately shifts:
     each shard only pays flops for its own z lanes, so sharding sheds
     masked-lane waste (total flops can only drop), while every shard
     re-runs the schedule, so launch counts can only grow. *)
  Alcotest.(check bool) "sharding sheds masked-lane flops" true
    (sharded.Sched_vm.counters.Engine.Counters.flops > 0.
    && sharded.Sched_vm.counters.Engine.Counters.flops
       <= single.Sched_vm.counters.Engine.Counters.flops);
  Alcotest.(check bool) "launch overheads multiply" true
    (sharded.Sched_vm.counters.Engine.Counters.fused_launches
    >= single.Sched_vm.counters.Engine.Counters.fused_launches)

(* The static partition's accounting, pinned at the values the retired
   one-domain-per-shard runner produced on this fixture: (devices,
   compute_time, collective_time, sim_time, supersteps, shard_times). At
   8 devices the 6 members fill 6 pools, and the collectives are priced
   on all 8 devices. *)
let pinned_accounting =
  [
    ( 1,
      0x1.210774830fc55p-5,
      0x0p+0,
      0x1.210774830fc55p-5,
      294,
      [|
        0x1.210774830fc55p-5;
      |] );
    ( 2,
      0x1.e3ab28de0ed82p-6,
      0x1.0279ddb4a218cp-10,
      0x1.f3d2c6b958f9bp-6,
      246,
      [|
        0x1.5df8add39422ep-6;
        0x1.e3ab28de0ed82p-6;
      |] );
    ( 3,
      0x1.ae9444878e2e1p-6,
      0x1.cc53cd619ec35p-10,
      0x1.cb59815da81a4p-6,
      219,
      [|
        0x1.4c45ed73a7bbbp-6;
        0x1.71a12271f0189p-6;
        0x1.ae9444878e2e1p-6;
      |] );
    ( 4,
      0x1.7f639bbab0128p-6,
      0x1.337f060c07f2p-9,
      0x1.a5d37c7c3110cp-6,
      195,
      [|
        0x1.4c45ed73a7bbbp-6;
        0x1.71a12271f0189p-6;
        0x1.7f639bbab0128p-6;
        0x1.dfba2b5ee78e9p-8;
      |] );
    ( 6,
      0x1.7f639bbab0128p-6,
      0x1.003f18835469dp-8,
      0x1.bf7361db852cfp-6,
      195,
      [|
        0x1.21042c4cc9f2fp-6;
        0x1.dfba2b5ee78e9p-8;
        0x1.21042cfff0035p-6;
        0x1.98f2b72483d7p-7;
        0x1.7f639bbab0128p-6;
        0x1.dfba2b5ee78e9p-8;
      |] );
    ( 8,
      0x1.7f639bbab0128p-6,
      0x1.66beabaee85dep-8,
      0x1.d91346a66a2ap-6,
      195,
      [|
        0x1.21042c4cc9f2fp-6;
        0x1.dfba2b5ee78e9p-8;
        0x1.21042cfff0035p-6;
        0x1.98f2b72483d7p-7;
        0x1.7f639bbab0128p-6;
        0x1.dfba2b5ee78e9p-8;
      |] );
  ]

let test_static_accounting_pinned () =
  let compiled, batch = Lazy.force nuts_fixture in
  let exact = Alcotest.(check (float 0.)) in
  List.iter
    (fun (devices, compute, collective, sim, supersteps, times) ->
      let r =
        Autobatch.run_sharded
          ~config:(sharded_config ~mode:(Some Engine.Fused) devices)
          compiled ~batch
      in
      let msg = Printf.sprintf "devices=%d %s" devices in
      exact (msg "compute_time") compute r.Sched_vm.compute_time;
      exact (msg "collective_time") collective r.Sched_vm.collective_time;
      exact (msg "sim_time") sim r.Sched_vm.sim_time;
      Alcotest.(check int) (msg "supersteps") supersteps r.Sched_vm.supersteps;
      Alcotest.(check (array (float 0.))) (msg "shard_times") times
        r.Sched_vm.shard_times)
    pinned_accounting

(* Random programs under the static partition, 1-17 members on 1-9
   devices: outputs are bitwise the single-pool run's, the superstep count
   is the longest pool's Step count, each pool's clock is that slice run
   alone by [Pc_vm.run] on its device, and sim_time is the closed form. *)
let static_partition_agrees (prog, z, devices) =
  let compiled =
    Autobatch.compile ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
  in
  let batch =
    [
      Tensor.init [| z |] (fun i -> float_of_int ((i.(0) * 5) mod 7) -. 3.);
      Tensor.init [| z |] (fun i -> (0.5 *. float_of_int (i.(0) mod 5)) -. 1.);
    ]
  in
  let config = sharded_config ~mode:(Some Engine.Fused) devices in
  let steps = Array.make devices 0 in
  let count = function
    | Obs_sink.Step { shard; _ } -> steps.(shard) <- steps.(shard) + 1
    | _ -> ()
  in
  let r =
    Autobatch.run_sharded ~config:{ config with sink = Some count } compiled ~batch
  in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("z=%d devices=%d: " ^^ fmt ^^ "\nprogram:\n%s")
      z devices
  in
  let program = Test_random_programs.print_program prog in
  if not (List.for_all2 Tensor.equal (Autobatch.run_pc compiled ~batch) r.Sched_vm.outputs)
  then fail "outputs differ from Pc_vm.run" program;
  let longest = Array.fold_left max 0 steps in
  if r.Sched_vm.supersteps <> longest then
    fail "supersteps %d, longest pool stepped %d" r.Sched_vm.supersteps longest program;
  Array.iteri
    (fun i (part : Sched_plan.partition) ->
      let engine =
        Engine.create ~device:(Mesh.device config.mesh i) ~mode:Engine.Fused ()
      in
      let rows = Array.init part.length (fun l -> part.offset + l) in
      ignore
        (Autobatch.run_pc
           ~config:{ Pc_vm.default_config with engine = Some engine }
           compiled
           ~batch:(List.map (fun t -> Tensor.take_rows t rows) batch));
      if r.Sched_vm.shard_times.(i) <> Engine.elapsed engine then
        fail "pool %d clock differs from its slice run alone" i program)
    (Sched_plan.partition ~z ~shards:devices);
  let output_bytes =
    List.fold_left
      (fun acc t -> acc +. (8. *. float_of_int (Tensor.numel t)))
      0. r.Sched_vm.outputs
  in
  let closed_form =
    Array.fold_left Float.max 0. r.Sched_vm.shard_times
    +. ((float_of_int longest
        *. Collectives.all_reduce_time config.mesh Collectives.Ring ~bytes:8.)
       +. Collectives.all_gather_time config.mesh Collectives.Ring
            ~bytes:output_bytes)
  in
  if r.Sched_vm.sim_time <> closed_form then
    fail "sim_time %h, closed form %h" r.Sched_vm.sim_time closed_form program;
  true

let prop_static_partition =
  QCheck.Test.make ~name:"static partition = pc VM, closed-form clock" ~count:60
    (QCheck.triple Test_random_programs.arb_program (QCheck.int_range 1 17)
       (QCheck.int_range 1 9))
    static_partition_agrees

let suites =
  [
    ( "shard-partition",
      [
        t "remainder front-loaded" `Quick test_partition_remainder;
        t "even split" `Quick test_partition_even;
        t "more shards than members" `Quick test_partition_more_shards_than_members;
        t "single shard identity" `Quick test_partition_identity;
        t "exact cover" `Quick test_partition_covers;
        t "invalid arguments" `Quick test_partition_invalid;
      ] );
    ( "collectives",
      [
        t "ring all-reduce" `Quick test_ring_all_reduce;
        t "tree all-reduce" `Quick test_tree_all_reduce;
        t "all-gather" `Quick test_all_gather;
        t "broadcast" `Quick test_broadcast;
        t "single device is free" `Quick test_single_device_free;
      ] );
    ( "engine-merge",
      [
        t "add_counters" `Quick test_add_counters;
        t "merge into engine" `Quick test_engine_merge;
      ] );
    ( "shard-vm",
      [
        t "pc bitwise determinism" `Quick test_sharded_matches_pc;
        t "time accounting" `Quick test_sharded_time_accounting;
        t "counters merged" `Quick test_sharded_counters_merged;
        t "static accounting pinned" `Quick test_static_accounting_pinned;
        QCheck_alcotest.to_alcotest prop_static_partition;
      ] );
  ]
