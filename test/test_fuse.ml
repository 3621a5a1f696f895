(* Superblock fusion (DESIGN.md §S19): region selection, legality, and
   end-to-end bitwise identity with strictly fewer supersteps. *)

let t = Alcotest.test_case
let reg = Prim.standard ()

(* ---------- helpers ---------- *)

let blk ops term = { Cfg.ops; term }
let cst v x = Cfg.Const_op { dst = v; value = Tensor.scalar x }

let mk_func ?(params = []) ?(results = []) name blocks =
  { Cfg.name; params; result_vars = results; blocks = Array.of_list blocks }

let one_func_prog fname fn = { Cfg.funcs = [ (fname, fn) ]; entry = fname }

let supersteps compiled ~batch =
  let e = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let out =
    Autobatch.run_pc
      ~config:{ Pc_vm.default_config with engine = Some e }
      compiled ~batch
  in
  (out, (Engine.snapshot e).Engine.at.Engine.Counters.blocks)

let check_bitwise label expected got =
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (label ^ ": bitwise identical")
        true (Tensor.equal a b))
    expected got

let report_of compiled =
  match compiled.Autobatch.fuse with
  | Some r -> r
  | None -> Alcotest.fail "compile ~fuse produced no fusion report"

(* ---------- chain detection ---------- *)

let test_chain_fusion () =
  let fn =
    mk_func ~results:[ "a" ] "f"
      [
        blk [ cst "a" 1. ] (Cfg.Jump 1);
        blk [ cst "b" 2. ] (Cfg.Jump 2);
        blk [ cst "c" 3. ] Cfg.Return;
      ]
  in
  let p', prov, st = Fuse_cfg.run reg (one_func_prog "f" fn) in
  let fn' = Cfg.entry_func p' in
  Alcotest.(check int) "one megablock" 1 (Array.length fn'.Cfg.blocks);
  Alcotest.(check int) "two merges" 2 st.Fuse_cfg.chains_fused;
  Alcotest.(check int) "ops concatenated" 3 (List.length fn'.Cfg.blocks.(0).Cfg.ops);
  match prov with
  | [ (_, groups) ] ->
    Alcotest.(check (list int)) "provenance in order" [ 0; 1; 2 ] groups.(0)
  | _ -> Alcotest.fail "expected one function's provenance"

let test_chain_respects_shared_successor () =
  (* Block 1 has two predecessors: merging it would duplicate work into
     one of them and change the superstep trace of the other. *)
  let fn =
    mk_func ~params:[ "p" ] ~results:[ "a" ] "f"
      [
        blk [] (Cfg.Branch { cond = "p"; if_true = 1; if_false = 1 });
        blk [ cst "a" 1. ] Cfg.Return;
      ]
  in
  (* The equal-arm branch first collapses to a jump; only then is the
     chain single-predecessor and fusable — exercising the pass order. *)
  let p', _, st = Fuse_cfg.run reg (one_func_prog "f" fn) in
  Alcotest.(check int) "threaded" 1 st.Fuse_cfg.jumps_threaded;
  Alcotest.(check int) "then fused" 1 st.Fuse_cfg.chains_fused;
  Alcotest.(check int) "single block"
    1
    (Array.length (Cfg.entry_func p').Cfg.blocks)

(* ---------- if-conversion legality ---------- *)

let diamond ~predefine =
  (* 0: branch p -> 1 | 2;  1: y=1 -> 3;  2: z=10 -> 3;  3: return y,z *)
  let pre = if predefine then [ cst "y" 0.; cst "z" 0. ] else [] in
  mk_func ~params:[ "p" ] ~results:[ "y"; "z" ] "f"
    [
      blk pre (Cfg.Branch { cond = "p"; if_true = 1; if_false = 2 });
      blk [ cst "y" 1. ] (Cfg.Jump 3);
      blk [ cst "z" 10. ] (Cfg.Jump 3);
      blk [] Cfg.Return;
    ]

let test_diamond_definite_assignment () =
  (* One-arm definitions live at the join: without a prior binding, a
     select would read storage no lane ever wrote — conversion must be
     rejected. With the binding it is legal and fires. *)
  let _, _, st = Fuse_cfg.run reg (one_func_prog "f" (diamond ~predefine:false)) in
  Alcotest.(check int) "rejected without binding" 0 st.Fuse_cfg.branches_converted;
  let p', _, st = Fuse_cfg.run reg (one_func_prog "f" (diamond ~predefine:true)) in
  Alcotest.(check int) "accepted with binding" 1 st.Fuse_cfg.branches_converted;
  let fn' = Cfg.entry_func p' in
  Alcotest.(check int) "flattened to one block" 1 (Array.length fn'.Cfg.blocks);
  let selects =
    List.length
      (List.filter
         (function Cfg.Prim_op { prim = "select"; _ } -> true | _ -> false)
         fn'.Cfg.blocks.(0).Cfg.ops)
  in
  Alcotest.(check int) "one select per live merged var" 2 selects

let test_diamond_is_bitwise () =
  let prog =
    let open Lang in
    program ~main:"m"
      [
        func "m" ~params:[ "p" ]
          [
            assign "x" (flt 0.);
            if_
              (prim "gt" [ var "p"; flt 0. ])
              [ assign "x" (prim "add" [ var "p"; flt 1. ]) ]
              [ assign "x" (prim "sub" [ var "p"; flt 1. ]) ];
            return_ [ var "x" ];
          ];
      ]
  in
  let input_shapes = [ Shape.scalar ] in
  let plain = Autobatch.compile ~registry:reg ~input_shapes prog in
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options ~input_shapes prog
  in
  Alcotest.(check bool)
    "a branch was converted" true
    ((report_of fused).Fuse.cfg_stats.Fuse_cfg.branches_converted >= 1);
  let batch = [ Tensor.of_list [ -2.; -0.5; 0.; 1.; 3. ] ] in
  let expected, plain_steps = supersteps plain ~batch in
  let got, fused_steps = supersteps fused ~batch in
  check_bitwise "if-converted" expected got;
  Alcotest.(check bool)
    (Printf.sprintf "fewer supersteps (%d -> %d)" plain_steps fused_steps)
    true (fused_steps < plain_steps)

(* ---------- RNG non-reordering ---------- *)

let rng_prog =
  let open Lang in
  program ~main:"m"
    [
      func "m" ~params:[ "p" ]
        [
          assign "cnt" (flt 0.);
          assign "x" (flt 0.);
          if_
            (prim "gt" [ var "p"; flt 0. ])
            [ assign "x" (prim "uniform" [ var "cnt" ]) ]
            [ assign "x" (flt 0.5) ];
          return_ [ var "x" ];
        ];
    ]

let test_rng_not_speculated () =
  let input_shapes = [ Shape.scalar ] in
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options ~input_shapes
      rng_prog
  in
  Alcotest.(check int)
    "RNG arm blocks if-conversion by default" 0
    (report_of fused).Fuse.cfg_stats.Fuse_cfg.branches_converted;
  (* Opting in is still bitwise: counter-based RNG is a pure function of
     (member, counter), so a speculated draw the lane discards cannot
     perturb the draws it keeps. *)
  let speculating =
    Autobatch.compile ~registry:reg
      ~fuse:{ Fuse.default_options with Fuse.speculate_rng = true }
      ~input_shapes rng_prog
  in
  Alcotest.(check bool)
    "converted when opted in" true
    ((report_of speculating).Fuse.cfg_stats.Fuse_cfg.branches_converted >= 1);
  let plain = Autobatch.compile ~registry:reg ~input_shapes rng_prog in
  let batch = [ Tensor.of_list [ -1.; 0.; 2.; 5. ] ] in
  check_bitwise "speculated RNG"
    (Autobatch.run_pc plain ~batch)
    (Autobatch.run_pc speculating ~batch)

(* ---------- latch rotation ---------- *)

let loop_prog =
  let open Lang in
  program ~main:"m"
    [
      func "m" ~params:[ "p" ]
        [
          assign "i" (flt 8.);
          assign "acc" (flt 0.);
          while_
            (prim "gt" [ var "i"; flt 0. ])
            [
              assign "acc" (prim "add" [ var "acc"; prim "mul" [ var "i"; var "p" ] ]);
              assign "i" (prim "sub" [ var "i"; flt 1. ]);
            ];
          return_ [ var "acc" ];
        ];
    ]

let test_latch_rotation () =
  let input_shapes = [ Shape.scalar ] in
  let plain = Autobatch.compile ~registry:reg ~input_shapes loop_prog in
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options ~input_shapes
      loop_prog
  in
  Alcotest.(check bool)
    "a latch was rotated" true
    ((report_of fused).Fuse.cfg_stats.Fuse_cfg.latches_rotated >= 1);
  let batch = [ Tensor.of_list [ 1.; 2.; 3.; 4. ] ] in
  let expected, plain_steps = supersteps plain ~batch in
  let got, fused_steps = supersteps fused ~batch in
  check_bitwise "rotated loop" expected got;
  Alcotest.(check bool)
    (Printf.sprintf "fewer supersteps (%d -> %d)" plain_steps fused_steps)
    true (fused_steps < plain_steps)

let test_profile_gates_rotation () =
  (* A profile that never saw [m] keeps the duplicating rewrites off it. *)
  let input_shapes = [ Shape.scalar ] in
  let cold = Fuse_profile.of_blocks [ (("somewhere_else", 0), 5.) ] in
  let gated =
    Autobatch.compile ~registry:reg
      ~fuse:{ Fuse.default_options with Fuse.profile = Some cold }
      ~input_shapes loop_prog
  in
  Alcotest.(check int)
    "cold function not rotated" 0
    (report_of gated).Fuse.cfg_stats.Fuse_cfg.latches_rotated;
  let hot = Fuse_profile.of_blocks [ (("m", 1), 5.) ] in
  let steered =
    Autobatch.compile ~registry:reg
      ~fuse:{ Fuse.default_options with Fuse.profile = Some hot }
      ~input_shapes loop_prog
  in
  Alcotest.(check bool)
    "hot function rotated" true
    ((report_of steered).Fuse.cfg_stats.Fuse_cfg.latches_rotated >= 1)

(* ---------- call-entry duplication (fib) ---------- *)

let fib_prog =
  let open Lang in
  program ~main:"main"
    [
      func "main" ~params:[ "n" ]
        [ call [ "r" ] "fib" [ var "n" ]; return_ [ var "r" ] ];
      func "fib" ~params:[ "k" ]
        [
          if_
            (prim "lt" [ var "k"; flt 2. ])
            [ return_ [ var "k" ] ]
            [
              call [ "a" ] "fib" [ prim "sub" [ var "k"; flt 1. ] ];
              call [ "b" ] "fib" [ prim "sub" [ var "k"; flt 2. ] ];
              return_ [ prim "add" [ var "a"; var "b" ] ];
            ];
        ];
    ]

let fib_batch = [ Tensor.of_list [ 3.; 4.; 5.; 6.; 2.; 7. ] ]

let test_fib_entry_duplication () =
  let input_shapes = [ Shape.scalar ] in
  let plain = Autobatch.compile ~registry:reg ~input_shapes fib_prog in
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options ~input_shapes
      fib_prog
  in
  let r = report_of fused in
  Alcotest.(check bool)
    "entries duplicated" true
    (r.Fuse.stack_stats.Fuse_stack.entries_duplicated >= 1);
  Alcotest.(check bool)
    "a fused call-and-branch terminator exists" true
    (Array.exists
       (fun (b : Stack_ir.block) ->
         match b.Stack_ir.term with
         | Stack_ir.Spushbranch _ -> true
         | _ -> false)
       fused.Autobatch.stack.Stack_ir.blocks);
  let expected, plain_steps = supersteps plain ~batch:fib_batch in
  let got, fused_steps = supersteps fused ~batch:fib_batch in
  check_bitwise "pc" expected got;
  Alcotest.(check bool)
    (Printf.sprintf "fewer supersteps (%d -> %d)" plain_steps fused_steps)
    true (fused_steps < plain_steps);
  check_bitwise "local" expected (Autobatch.run_local fused ~batch:fib_batch);
  check_bitwise "shard" expected
    (Autobatch.run_sharded
       ~config:
         {
           Sched_vm.default_config with
           plan = Sched_plan.off;
           mesh = Mesh.gpu_pod ~n:3 ();
         }
       fused ~batch:fib_batch)
      .Sched_vm.outputs

(* ---------- profiles ---------- *)

let test_profile_folded () =
  let p =
    Fuse_profile.of_folded "main#0 1\nmain;fib;fib#2 12.5\nmain;fib 2\n\nnoise\n"
  in
  Alcotest.(check (float 1e-9)) "fib weight" 14.5 (Fuse_profile.func_weight p "fib");
  Alcotest.(check (float 1e-9))
    "fib block 2" 12.5
    (Fuse_profile.block_weight p ~fn:"fib" ~block:2);
  Alcotest.(check (float 1e-9)) "main weight" 1. (Fuse_profile.func_weight p "main");
  match Fuse_profile.funcs p with
  | (heaviest, _) :: _ -> Alcotest.(check string) "heaviest first" "fib" heaviest
  | [] -> Alcotest.fail "no functions parsed"

let test_profile_json_and_sniffing () =
  let json = {|[{"fn": "fib", "block": 2, "weight": 3}, {"fn": "fib"}]|} in
  (match Fuse_profile.parse json with
  | Ok p ->
    Alcotest.(check (float 1e-9)) "summed" 4. (Fuse_profile.func_weight p "fib")
  | Error e -> Alcotest.fail e);
  (match Fuse_profile.parse "main#0 2\n" with
  | Ok p ->
    Alcotest.(check (float 1e-9)) "folded sniffed" 2. (Fuse_profile.func_weight p "main")
  | Error e -> Alcotest.fail e);
  match Fuse_profile.parse {|{"blocks": [{"fn": "m", "weight": 1}]}|} with
  | Ok p -> Alcotest.(check (float 1e-9)) "wrapped" 1. (Fuse_profile.func_weight p "m")
  | Error e -> Alcotest.fail e

(* ---------- report plumbing ---------- *)

let test_report_json () =
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options
      ~input_shapes:[ Shape.scalar ] fib_prog
  in
  let doc = Fuse.to_json (report_of fused) in
  (match Obs_json.member "report" doc with
  | Some (Obs_json.Str "fuse") -> ()
  | _ -> Alcotest.fail "report envelope");
  (match Obs_json.member "stack" doc with
  | Some (Obs_json.Obj _) -> ()
  | _ -> Alcotest.fail "stack section");
  match Obs_json.member "func_ops" doc with
  | Some (Obs_json.Obj fields) ->
    Alcotest.(check bool)
      "per-function op counts present" true
      (List.mem_assoc "fib" fields)
  | _ -> Alcotest.fail "func_ops section"

let test_fused_dot_export () =
  let fused =
    Autobatch.compile ~registry:reg ~fuse:Fuse.default_options
      ~input_shapes:[ Shape.scalar ] loop_prog
  in
  let groups = (report_of fused).Fuse.megablocks in
  let dot = Dot.fused_cfg_to_dot ~groups fused.Autobatch.cfg in
  Alcotest.(check bool) "digraph" true (String.length dot > 0);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "megablock cluster rendered" true
    (contains "megablock" dot)

let suites =
  [
    ( "fuse",
      [
        t "chain fusion" `Quick test_chain_fusion;
        t "threading unlocks chains" `Quick test_chain_respects_shared_successor;
        t "diamond definite assignment" `Quick test_diamond_definite_assignment;
        t "diamond bitwise + fewer supersteps" `Quick test_diamond_is_bitwise;
        t "RNG never speculated by default" `Quick test_rng_not_speculated;
        t "latch rotation" `Quick test_latch_rotation;
        t "profile gates rotation" `Quick test_profile_gates_rotation;
        t "fib entry duplication across runtimes" `Quick test_fib_entry_duplication;
        t "folded profile parsing" `Quick test_profile_folded;
        t "json profile parsing" `Quick test_profile_json_and_sniffing;
        t "report json" `Quick test_report_json;
        t "fused dot export" `Quick test_fused_dot_export;
      ] );
  ]
