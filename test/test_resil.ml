(* Tests for the resilience layer: the snapshot codec's round-trip and
   corruption guarantees, and the acceptance criterion of the recovery
   drivers — a faulted-and-recovered run is bitwise identical to the
   fault-free run, for every runtime and every serving policy. *)

let t = Alcotest.test_case

(* ---------- bitwise comparison helpers ---------- *)

(* IEEE-754 bit equality, not [=]: distinguishes -0. from 0. and compares
   NaNs by payload, which is exactly the replay guarantee. *)
let check_bits_tensors name expected actual =
  Alcotest.(check int) (name ^ " count") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check (array int)) (Printf.sprintf "%s[%d] shape" name i)
        (Tensor.shape e) (Tensor.shape a);
      Alcotest.(check (array int64)) (Printf.sprintf "%s[%d] bits" name i)
        (Array.map Int64.bits_of_float (Tensor.data e))
        (Array.map Int64.bits_of_float (Tensor.data a)))
    (List.combine expected actual)

let check_bits_float name e a =
  Alcotest.(check int64) name (Int64.bits_of_float e) (Int64.bits_of_float a)

(* ---------- fixtures ---------- *)

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

let fib_compiled =
  lazy (Autobatch.compile ~input_shapes:[ Shape.scalar ] fib_program)

let fib_batch z = [ Tensor.init [| z |] (fun i -> float_of_int (3 + (i.(0) mod 7))) ]

(* ---------- codec primitives ---------- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 256 in
  let nan_payload = Int64.float_of_bits 0x7ff0000000000123L in
  Codec.w_int buf 0;
  Codec.w_int buf (-1);
  Codec.w_int buf max_int;
  Codec.w_int buf min_int;
  Codec.w_float buf 1.5;
  Codec.w_float buf (-0.);
  Codec.w_float buf nan_payload;
  Codec.w_float buf infinity;
  Codec.w_bool buf true;
  Codec.w_bool buf false;
  Codec.w_string buf "";
  Codec.w_string buf "hello\x00world";
  Codec.w_int_array buf [| 3; -7; 0 |];
  Codec.w_float_array buf [| 0.1; -0.; nan_payload |];
  Codec.w_bool_array buf [| true; false; true |];
  Codec.w_list Codec.w_int buf [ 1; 2; 3 ];
  Codec.w_option Codec.w_float buf None;
  Codec.w_option Codec.w_float buf (Some 2.5);
  let r = Codec.reader (Buffer.contents buf) in
  Alcotest.(check int) "int 0" 0 (Codec.r_int r);
  Alcotest.(check int) "int -1" (-1) (Codec.r_int r);
  Alcotest.(check int) "max_int" max_int (Codec.r_int r);
  Alcotest.(check int) "min_int" min_int (Codec.r_int r);
  check_bits_float "float" 1.5 (Codec.r_float r);
  check_bits_float "neg zero" (-0.) (Codec.r_float r);
  check_bits_float "nan payload" nan_payload (Codec.r_float r);
  check_bits_float "infinity" infinity (Codec.r_float r);
  Alcotest.(check bool) "true" true (Codec.r_bool r);
  Alcotest.(check bool) "false" false (Codec.r_bool r);
  Alcotest.(check string) "empty string" "" (Codec.r_string r);
  Alcotest.(check string) "string with nul" "hello\x00world" (Codec.r_string r);
  Alcotest.(check (array int)) "int array" [| 3; -7; 0 |] (Codec.r_int_array r);
  Alcotest.(check (array int64)) "float array bits"
    (Array.map Int64.bits_of_float [| 0.1; -0.; nan_payload |])
    (Array.map Int64.bits_of_float (Codec.r_float_array r));
  Alcotest.(check (array bool)) "bool array" [| true; false; true |]
    (Codec.r_bool_array r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.r_list Codec.r_int r);
  Alcotest.(check (option (float 0.))) "none" None (Codec.r_option Codec.r_float r);
  Alcotest.(check (option (float 0.))) "some" (Some 2.5)
    (Codec.r_option Codec.r_float r);
  Alcotest.(check int) "fully consumed" 0 (Codec.remaining r)

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted corrupt input" name
  | exception Codec.Corrupt _ -> ()

let test_codec_bounds () =
  expect_corrupt "short int" (fun () -> Codec.r_int (Codec.reader "short"));
  expect_corrupt "string past end" (fun () ->
      Codec.r_string (Codec.reader "\x20\x00\x00\x00\x00\x00\x00\x00"));
  (* A huge claimed array length must be rejected before allocation. *)
  let buf = Buffer.create 16 in
  Codec.w_int buf 1_000_000_000;
  expect_corrupt "giant array claim" (fun () ->
      Codec.r_float_array (Codec.reader (Buffer.contents buf)))

let test_fnv_basis () =
  Alcotest.(check int64) "fnv1a64 empty = offset basis" 0xcbf29ce484222325L
    (Codec.fnv1a64 "");
  Alcotest.(check bool) "fnv1a64 separates" true
    (not (Int64.equal (Codec.fnv1a64 "abc") (Codec.fnv1a64 "abd")))

(* ---------- envelope integrity ---------- *)

let sample_blob () =
  Snapshot.encode ~kind:"test-kind" (fun buf ->
      Codec.w_int buf 42;
      Codec.w_float_array buf [| 1.; 2.; 3. |])

let decode_sample blob =
  Snapshot.decode ~kind:"test-kind" blob (fun r ->
      let n = Codec.r_int r in
      let a = Codec.r_float_array r in
      (n, a))

let test_envelope_roundtrip () =
  let n, a = decode_sample (sample_blob ()) in
  Alcotest.(check int) "payload int" 42 n;
  Alcotest.(check (array (float 0.))) "payload array" [| 1.; 2.; 3. |] a

let test_envelope_rejects_corruption () =
  let blob = sample_blob () in
  (* Flipping any single byte anywhere in the envelope must be caught. *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      expect_corrupt
        (Printf.sprintf "flipped byte %d" i)
        (fun () -> decode_sample (Bytes.to_string b)))
    blob;
  (* Any truncation must be caught. *)
  for len = 0 to String.length blob - 1 do
    expect_corrupt
      (Printf.sprintf "truncated to %d" len)
      (fun () -> decode_sample (String.sub blob 0 len))
  done;
  (* Trailing garbage must be caught. *)
  expect_corrupt "trailing bytes" (fun () -> decode_sample (blob ^ "\x00"));
  (* A matching envelope with the wrong kind must be refused. *)
  expect_corrupt "wrong kind" (fun () ->
      Snapshot.decode ~kind:"other-kind" blob (fun _ -> ()));
  (* Payload bytes the reader leaves behind are an error, not slack. *)
  expect_corrupt "undecoded payload" (fun () ->
      Snapshot.decode ~kind:"test-kind" blob (fun r -> ignore (Codec.r_int r)))

let test_envelope_rejects_version () =
  let blob = sample_blob () in
  (* Patch the version field (8 bytes after the magic) and re-sign the
     envelope so only the version check can object. *)
  let body = String.sub blob 0 (String.length blob - 8) in
  let b = Bytes.of_string body in
  Bytes.set b 8 (Char.chr (Snapshot.version + 1));
  let body = Bytes.to_string b in
  let resigned =
    let buf = Buffer.create (String.length blob) in
    Buffer.add_string buf body;
    Codec.w_i64 buf (Codec.fnv1a64 body);
    Buffer.contents buf
  in
  expect_corrupt "future version" (fun () -> decode_sample resigned)

(* The precompiled executor's checkpoint kind is retired: a blob that
   carries it, even with a well-formed pc payload, is not a pc checkpoint. *)
let test_envelope_rejects_retired_kind () =
  let compiled = Lazy.force fib_compiled in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack ~z:2
  in
  let img = Pc_vm.Lanes.capture lanes in
  let blob =
    Snapshot.encode ~kind:"pc-jit-checkpoint" (fun buf ->
        Codec.w_int buf img.Pc_vm.Lanes.li_z;
        Codec.w_int buf img.Pc_vm.Lanes.li_steps;
        Codec.w_int buf img.Pc_vm.Lanes.li_last;
        Snapshot.w_pc buf img.Pc_vm.Lanes.li_pc;
        Snapshot.w_store buf img.Pc_vm.Lanes.li_store;
        Codec.w_option Snapshot.w_engine buf None)
  in
  expect_corrupt "pc-jit-checkpoint blob" (fun () -> Snapshot.decode_pc blob)

(* Version 3 dropped the instrument section of pc checkpoints: a
   version-2 blob — envelope and payload exactly as that format wrote
   them, with its empty instrument option — is refused, not misread. *)
let test_envelope_rejects_v2_pc () =
  let compiled = Lazy.force fib_compiled in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack ~z:2
  in
  let payload = Buffer.create 256 in
  Snapshot.w_lanes payload (Pc_vm.Lanes.capture lanes);
  Codec.w_option Snapshot.w_engine payload None;
  Codec.w_int payload 0 (* the instrument option: None *);
  let b = Buffer.create 512 in
  Buffer.add_string b (String.sub (sample_blob ()) 0 8) (* the magic *);
  Codec.w_int b 2;
  Codec.w_string b "pc-vm-checkpoint";
  Codec.w_string b (Buffer.contents payload);
  Codec.w_i64 b (Codec.fnv1a64 (Buffer.contents b));
  expect_corrupt "version-2 pc checkpoint" (fun () ->
      Snapshot.decode_pc (Buffer.contents b))

(* The request server's checkpoint kind is retired with it (the serving
   runtime checkpoints in memory): such a blob decodes as nothing. *)
let test_envelope_rejects_retired_server_kind () =
  let blob = Snapshot.encode ~kind:"server-checkpoint" (fun buf -> Codec.w_int buf 0) in
  expect_corrupt "server-checkpoint blob as pc" (fun () -> Snapshot.decode_pc blob);
  expect_corrupt "server-checkpoint blob as shards" (fun () -> Snapshot.decode_shards blob)

let test_file_roundtrip () =
  let blob = sample_blob () in
  let path = Filename.temp_file "abresil" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save_file path blob;
      Alcotest.(check string) "file round trip" blob (Snapshot.load_file path))

(* ---------- image round trips through the codec ---------- *)

let test_stacked_image_roundtrip () =
  let s = Stacked.create ~z:4 ~elem:[| 2 |] () in
  let mask = [| true; false; true; true |] in
  Stacked.push s ~mask;
  Stacked.write_top_masked s ~mask (Tensor.init [| 4; 2 |] (fun i -> float_of_int (i.(0) + i.(1))));
  Stacked.push s ~mask:[| true; false; false; false |];
  let img = Stacked.capture s in
  let buf = Buffer.create 128 in
  Snapshot.w_stacked buf img;
  let r = Codec.reader (Buffer.contents buf) in
  let img' = Snapshot.r_stacked r in
  Alcotest.(check int) "stacked fully consumed" 0 (Codec.remaining r);
  Alcotest.(check bool) "stacked image round trip" true (img = img')

let test_lanes_snapshot_roundtrip () =
  let compiled = Lazy.force fib_compiled in
  let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
  let z = 6 in
  let lanes = Pc_vm.Lanes.create reg stack ~z in
  let batch = fib_batch z in
  for lane = 0 to z - 1 do
    Pc_vm.Lanes.load lanes ~lane ~member:lane
      ~inputs:(List.map (fun b -> Tensor.slice_row b lane) batch)
  done;
  for _ = 1 to 5 do
    ignore (Pc_vm.Lanes.step lanes)
  done;
  let img = Pc_vm.Lanes.capture lanes in
  let blob =
    Snapshot.encode_pc { Snapshot.ck_vm = img; ck_engine = None }
  in
  let ck = Snapshot.decode_pc blob in
  Alcotest.(check bool) "lanes image survives the wire" true
    (ck.Snapshot.ck_vm = img);
  (* Restore mid-flight state into a fresh pool and finish both runs:
     identical outputs, identical step counts. *)
  let lanes' = Pc_vm.Lanes.create reg stack ~z in
  Pc_vm.Lanes.restore lanes' ck.Snapshot.ck_vm;
  while Pc_vm.Lanes.step lanes do () done;
  while Pc_vm.Lanes.step lanes' do () done;
  Alcotest.(check int) "same supersteps" (Pc_vm.Lanes.steps lanes)
    (Pc_vm.Lanes.steps lanes');
  check_bits_tensors "resumed outputs" (Pc_vm.Lanes.outputs lanes)
    (Pc_vm.Lanes.outputs lanes')

let test_engine_snapshot_restores_cost () =
  let e = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.charge_kernel e ~name:"add" ~flops:1e6;
  Engine.charge_refill e ~bytes:4096.;
  let snap = Engine.snapshot e in
  let elapsed_then = Engine.elapsed e in
  Engine.charge_kernel e ~name:"mul" ~flops:5e7;
  Engine.charge_host_call e;
  Engine.restore e snap;
  check_bits_float "elapsed rewound exactly" elapsed_then (Engine.elapsed e);
  Alcotest.(check bool) "counters rewound" true
    ((Engine.snapshot e).Engine.at = snap.Engine.at);
  Alcotest.(check bool) "op tally rewound" true
    ((Engine.snapshot e).Engine.ops = snap.Engine.ops);
  (* The restored engine keeps charging from where the snapshot left off. *)
  Engine.charge_kernel e ~name:"mul" ~flops:5e7;
  Alcotest.(check bool) "cost is cumulative after restore" true
    (Engine.elapsed e > elapsed_then)

(* ---------- deterministic recovery: the acceptance criterion ---------- *)

let fault_plan ~seed ~horizon ~kinds = Fault.schedule ~seed ~rate:0.1 ~horizon ~kinds ()

let test_recovery_pc_bitwise () =
  let compiled = Lazy.force fib_compiled in
  let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
  let batch = fib_batch 8 in
  let engine () = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let config e = { Pc_vm.default_config with Pc_vm.engine = Some e } in
  let e0 = engine () in
  let base, base_st = Recovery.run_pc ~config:(config e0) reg stack ~batch in
  Alcotest.(check int) "fault-free run wastes nothing" 0
    base_st.Recovery.wasted_supersteps;
  let horizon = base_st.Recovery.useful_supersteps in
  let kinds = [ Fault.Device_kill; Fault.Kernel_poison ] in
  List.iter
    (fun interval ->
      let e = engine () in
      let outs, st =
        Recovery.run_pc ~config:(config e) ~interval
          ~plan:(fault_plan ~seed:7 ~horizon ~kinds)
          reg stack ~batch
      in
      Alcotest.(check bool)
        (Printf.sprintf "interval %d: faults fired" interval)
        true
        (st.Recovery.faults_injected > 0 && st.Recovery.restores > 0);
      check_bits_tensors
        (Printf.sprintf "interval %d: outputs" interval)
        base outs;
      check_bits_float
        (Printf.sprintf "interval %d: engine clock" interval)
        (Engine.elapsed e0) (Engine.elapsed e);
      Alcotest.(check int)
        (Printf.sprintf "interval %d: useful supersteps" interval)
        base_st.Recovery.useful_supersteps st.Recovery.useful_supersteps)
    [ 1; 5; 0 ]

let test_recovery_pc_checkpoints_do_not_perturb () =
  let compiled = Lazy.force fib_compiled in
  let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
  let batch = fib_batch 8 in
  let base, _ = Recovery.run_pc reg stack ~batch in
  let outs, st = Recovery.run_pc ~interval:1 reg stack ~batch in
  Alcotest.(check bool) "one checkpoint per superstep" true
    (st.Recovery.checkpoints > st.Recovery.useful_supersteps);
  check_bits_tensors "capture is effect-free" base outs

let test_recovery_sharded_bitwise () =
  let compiled = Lazy.force fib_compiled in
  let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
  let batch = fib_batch 10 in
  (* Reference: the unsharded interpreter on the same batch. *)
  let base = Autobatch.run_pc compiled ~batch in
  let shards = 3 in
  let fault_free = Recovery.run_sharded ~shards reg stack ~batch in
  check_bits_tensors "sharding alone is bitwise neutral" base
    fault_free.Recovery.sh_outputs;
  List.iter
    (fun interval ->
      let r =
        Recovery.run_sharded ~shards ~interval
          ~plan:
            (Fault.schedule ~seed:5 ~rate:0.15
               ~horizon:(fault_free.Recovery.sh_rounds + 1)
               ~devices:shards
               ~kinds:[ Fault.Device_kill; Fault.Link_drop ]
               ())
          reg stack ~batch
      in
      Alcotest.(check bool)
        (Printf.sprintf "interval %d: faults fired" interval)
        true
        (r.Recovery.sh_stats.Recovery.faults_injected > 0);
      check_bits_tensors
        (Printf.sprintf "interval %d: sharded outputs" interval)
        base r.Recovery.sh_outputs)
    [ 1; 4; 0 ]

(* The serving runtime recovers on its own: under every admission
   policy, a run whose shard is killed repeatedly completes the same
   requests as the fault-free run, each with bitwise-identical outputs.
   Completion times may move (the clock never rewinds); results may not. *)
let test_recovery_server_bitwise_all_policies () =
  let items =
    List.init 10 (fun id ->
        Test_tenant.fib_item ~id ~arrival:(float_of_int (id / 3) *. 2e-6)
          (float_of_int (3 + (id mod 7))))
  in
  List.iter
    (fun (name, mode, refill) ->
      let run faults =
        Test_tenant.serve
          { (Test_tenant.e5_config ~lanes:3 ~mode ~refill ()) with checkpoint_interval = 3; faults }
          items
      in
      let base = run [] in
      let faulted =
        run (fault_plan ~seed:13 ~horizon:base.Tenant_server.rounds ~kinds:[ Fault.Device_kill ])
      in
      Alcotest.(check bool) (name ^ ": faults fired") true (faulted.Tenant_server.restores > 0);
      Alcotest.(check int) (name ^ ": everything completed") 10
        (List.length faulted.Tenant_server.completions);
      Alcotest.(check bool) (name ^ ": bitwise identical results") true
        (Test_tenant.results base = Test_tenant.results faulted))
    Test_tenant.policies

(* ---------- property fuzzing ---------- *)

(* For random control-flow programs, random fault schedules, and random
   checkpoint intervals, recovery must reproduce the fault-free run
   bitwise on every runtime. Reuses the random-program generator of the
   differential suite. *)
let prop_recovery_bitwise =
  QCheck.Test.make ~name:"recovered runs are bitwise identical" ~count:40
    (QCheck.pair Test_random_programs.arb_program
       (QCheck.triple (QCheck.int_range 0 9) (QCheck.int_range 1 5)
          (QCheck.int_range 0 1000)))
    (fun (prog, (interval_choice, shards, seed)) ->
      (* interval 0..2 exercises restart-from-initial; larger values
         periodic checkpointing. *)
      let interval = if interval_choice < 3 then interval_choice else interval_choice - 2 in
      let compiled =
        Autobatch.compile ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
      in
      let reg = compiled.Autobatch.registry and stack = compiled.Autobatch.stack in
      let batch = Test_random_programs.batch_inputs in
      let bits outs =
        List.map (fun t -> Array.map Int64.bits_of_float (Tensor.data t)) outs
      in
      let base, base_st = Recovery.run_pc reg stack ~batch in
      let horizon = base_st.Recovery.useful_supersteps + 1 in
      let plan =
        Fault.schedule ~seed ~rate:0.2 ~horizon ~devices:shards
          ~kinds:[ Fault.Device_kill; Fault.Link_drop ] ()
      in
      let pc_outs, _ = Recovery.run_pc ~interval ~plan reg stack ~batch in
      let shard_r = Recovery.run_sharded ~shards ~interval ~plan reg stack ~batch in
      bits pc_outs = bits base && bits shard_r.Recovery.sh_outputs = bits base)

let suites =
  [
    ( "resil-codec",
      [
        t "primitive round trips" `Quick test_codec_roundtrip;
        t "bounds checking" `Quick test_codec_bounds;
        t "fnv1a64 basis" `Quick test_fnv_basis;
      ] );
    ( "resil-envelope",
      [
        t "round trip" `Quick test_envelope_roundtrip;
        t "rejects corruption" `Quick test_envelope_rejects_corruption;
        t "rejects future versions" `Quick test_envelope_rejects_version;
        t "rejects the retired pc-jit kind" `Quick test_envelope_rejects_retired_kind;
        t "rejects the retired server kind" `Quick test_envelope_rejects_retired_server_kind;
        t "rejects a version-2 pc checkpoint" `Quick test_envelope_rejects_v2_pc;
        t "file round trip" `Quick test_file_roundtrip;
      ] );
    ( "resil-images",
      [
        t "stacked image" `Quick test_stacked_image_roundtrip;
        t "lanes snapshot resumes bitwise" `Quick test_lanes_snapshot_roundtrip;
        t "engine snapshot restores cost" `Quick test_engine_snapshot_restores_cost;
      ] );
    ( "resil-recovery",
      [
        t "pc bitwise with engine" `Quick test_recovery_pc_bitwise;
        t "checkpoints are effect-free" `Quick test_recovery_pc_checkpoints_do_not_perturb;
        t "sharded bitwise, localized restore" `Quick test_recovery_sharded_bitwise;
        t "server bitwise under every policy" `Quick
          test_recovery_server_bitwise_all_policies;
      ] );
  ]

(* Registered behind the fast-tier gate in [Test_main], like the other
   random-program fuzzing. *)
let fuzz_suites =
  [ ("resil-fuzz", [ QCheck_alcotest.to_alcotest prop_recovery_bitwise ]) ]
