(* Tests for the CFG optimizer: semantics preservation (bitwise), and
   real shrinkage on op counts. *)

let t = Alcotest.test_case
let reg = Prim.standard ()

let test_constant_folding_shrinks () =
  (* `1 + 2 * 3` inside a loop body folds down to one constant. *)
  let prog =
    let open Lang in
    let open Lang.Infix in
    program ~main:"m"
      [
        func "m" ~params:[ "x" ]
          [
            assign "acc" (flt 0.);
            while_
              (var "x" > flt 0.)
              [
                assign "acc" (var "acc" + (flt 1. + (flt 2. * flt 3.)));
                assign "x" (var "x" - flt 1.);
              ];
            return_ [ var "acc" ];
          ];
      ]
  in
  let cfg = Lower_cfg.lower prog in
  let before = Optimize.count_ops cfg in
  let opt = Optimize.run reg cfg in
  let after = Optimize.count_ops opt in
  Alcotest.(check bool)
    (Printf.sprintf "fewer ops (%d -> %d)" before after)
    true (after < before);
  (* And behaviour is identical. *)
  let input_shapes = Test_programs.scalar_shapes prog in
  let c1 = Autobatch.compile ~registry:reg ~input_shapes prog in
  let c2 = Autobatch.compile ~registry:reg ~optimize:true ~input_shapes prog in
  let batch = [ Tensor.of_list [ 0.; 3.; 7. ] ] in
  List.iter2
    (fun a b -> Alcotest.(check bool) "same outputs" true (Tensor.equal a b))
    (Autobatch.run_pc c1 ~batch) (Autobatch.run_pc c2 ~batch)

let test_copy_propagation_and_dce () =
  (* y = x; z = y; return z  ==>  the moves collapse away. *)
  let prog =
    let open Lang in
    program ~main:"m"
      [
        func "m" ~params:[ "x" ]
          [
            assign "y" (var "x");
            assign "z" (var "y");
            assign "unused" (prim "mul" [ var "z"; flt 42. ]);
            return_ [ var "z" ];
          ];
      ]
  in
  let cfg = Lower_cfg.lower prog in
  let opt = Optimize.run reg cfg in
  let fn = Cfg.entry_func opt in
  (* Everything except argument plumbing for the return should vanish;
     certainly the unused multiply must be gone. *)
  let has_mul =
    Array.exists
      (fun (b : Cfg.block) ->
        List.exists
          (function Cfg.Prim_op { prim = "mul"; _ } -> true | _ -> false)
          b.Cfg.ops)
      fn.Cfg.blocks
  in
  Alcotest.(check bool) "dead multiply removed" false has_mul;
  Alcotest.(check bool) "op count small" true (Cfg.n_ops fn <= 2)

let test_rng_never_folded () =
  let prog =
    let open Lang in
    program ~main:"m"
      [
        func "m" ~params:[ "x" ]
          [
            assign "u" (prim "uniform" [ flt 0. ]);
            return_ [ prim "add" [ var "u"; var "x" ] ];
          ];
      ]
  in
  let cfg = Optimize.run reg (Lower_cfg.lower prog) in
  let fn = Cfg.entry_func cfg in
  let has_uniform =
    Array.exists
      (fun (b : Cfg.block) ->
        List.exists
          (function Cfg.Prim_op { prim = "uniform"; _ } -> true | _ -> false)
          b.Cfg.ops)
      fn.Cfg.blocks
  in
  Alcotest.(check bool) "uniform survives" true has_uniform;
  (* Different members still draw differently. *)
  let compiled =
    Autobatch.compile ~registry:reg ~optimize:true
      ~input_shapes:(Test_programs.scalar_shapes prog) prog
  in
  let out = List.hd (Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 0.; 0. ] ]) in
  Alcotest.(check bool) "members differ" true
    ((Tensor.data out).(0) <> (Tensor.data out).(1))

let test_optimizer_preserves_nuts_bitwise () =
  let model = Gaussian_model.model ~dim:5 () in
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| 5 |] in
  let cfg = Nuts.default_config ~eps:0.3 () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~optimize:true
      ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps:0.3 ~n_iter:5 ~n_burn:0 ~batch:3 () in
  let out = Autobatch.run_pc compiled ~batch in
  for member = 0 to 2 do
    let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter:5 in
    Alcotest.(check bool)
      (Printf.sprintf "optimized NUTS member %d bitwise" member)
      true
      (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.hd out) member))
  done;
  (* NUTS has no constant-only subexpressions to fold, so the op count
     must simply not grow. *)
  let plain =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  Alcotest.(check bool) "NUTS program did not grow" true
    (Optimize.count_ops compiled.Autobatch.cfg
    <= Optimize.count_ops plain.Autobatch.cfg)

let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves random-program semantics" ~count:80
    Test_random_programs.arb_program (fun prog ->
      let reg = Prim.standard () in
      match Validate.check_program reg prog with
      | Error _ -> true
      | Ok () ->
        let plain =
          Autobatch.compile ~registry:reg
            ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
        in
        let opt =
          Autobatch.compile ~registry:reg ~optimize:true
            ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
        in
        let batch = Test_random_programs.batch_inputs in
        let a = Autobatch.run_pc plain ~batch in
        let b = Autobatch.run_pc opt ~batch in
        let c = Autobatch.run_local opt ~batch in
        List.for_all2 Tensor.equal a b && List.for_all2 Tensor.equal a c)

let suites =
  [
    ( "optimize",
      [
        t "constant folding shrinks" `Quick test_constant_folding_shrinks;
        t "copy propagation + DCE" `Quick test_copy_propagation_and_dce;
        t "RNG never folded" `Quick test_rng_never_folded;
        t "NUTS bitwise under optimization" `Quick test_optimizer_preserves_nuts_bitwise;
        QCheck_alcotest.to_alcotest prop_optimizer_preserves_semantics;
      ] );
  ]

let test_cse () =
  (* dot(v, v) computed twice in one block collapses to one. *)
  let prog =
    let open Lang in
    program ~main:"m"
      [
        func "m" ~params:[ "v" ]
          [
            assign "a" (prim "dot" [ var "v"; var "v" ]);
            assign "b" (prim "dot" [ var "v"; var "v" ]);
            return_ [ prim "add" [ var "a"; var "b" ] ];
          ];
      ]
  in
  let cfg = Optimize.run reg (Lower_cfg.lower prog) in
  let fn = Cfg.entry_func cfg in
  let dots =
    Array.fold_left
      (fun acc (b : Cfg.block) ->
        acc
        + List.length
            (List.filter
               (function Cfg.Prim_op { prim = "dot"; _ } -> true | _ -> false)
               b.Cfg.ops))
      0 fn.Cfg.blocks
  in
  Alcotest.(check int) "one dot remains" 1 dots;
  (* Semantics unchanged. *)
  let c = Autobatch.compile ~registry:reg ~optimize:true ~input_shapes:[ [| 3 |] ] prog in
  let out =
    Autobatch.run_single c ~member:0 ~args:[ Tensor.of_list [ 1.; 2.; 3. ] ]
  in
  Alcotest.(check (float 0.)) "value" 28. (Tensor.item (List.hd out))

let test_cse_self_assignment_safe () =
  (* x = add(x, 1) twice must NOT collapse (each reads a different x). *)
  let prog =
    let open Lang in
    program ~main:"m"
      [
        func "m" ~params:[ "x" ]
          [
            assign "x" (prim "add" [ var "x"; flt 1. ]);
            assign "x" (prim "add" [ var "x"; flt 1. ]);
            return_ [ var "x" ];
          ];
      ]
  in
  let c =
    Autobatch.compile ~registry:reg ~optimize:true
      ~input_shapes:(Test_programs.scalar_shapes prog) prog
  in
  let out = Autobatch.run_single c ~member:0 ~args:[ Tensor.scalar 5. ] in
  Alcotest.(check (float 0.)) "x incremented twice" 7. (Tensor.item (List.hd out))

let test_op_count_granularity () =
  (* count_ops = sum of func_op_counts = sum of block_op_counts, and the
     per-block rows line up with each function's actual block list. *)
  let prog =
    let open Lang in
    let open Lang.Infix in
    program ~main:"m"
      [
        func "m" ~params:[ "x" ]
          [
            call [ "y" ] "twice" [ var "x" ];
            if_ (var "y" > flt 4.) [ assign "y" (var "y" - flt 1.) ] [];
            return_ [ var "y" ];
          ];
        func "twice" ~params:[ "a" ] [ return_ [ var "a" + var "a" ] ];
      ]
  in
  let cfg = Lower_cfg.lower prog in
  let total = Optimize.count_ops cfg in
  let per_func = Optimize.func_op_counts cfg in
  let per_block = Optimize.block_op_counts cfg in
  Alcotest.(check int)
    "func_op_counts sums to count_ops" total
    (List.fold_left (fun acc (_, n) -> acc + n) 0 per_func);
  Alcotest.(check int)
    "block_op_counts sums to count_ops" total
    (List.fold_left
       (fun acc (_, counts) -> Array.fold_left ( + ) acc counts)
       0 per_block);
  List.iter
    (fun (fname, (f : Cfg.func)) ->
      let counts = List.assoc fname per_block in
      Alcotest.(check int)
        (fname ^ " row per block")
        (Array.length f.Cfg.blocks) (Array.length counts);
      Array.iteri
        (fun i b ->
          Alcotest.(check int)
            (Printf.sprintf "%s block %d" fname i)
            (List.length b.Cfg.ops) counts.(i))
        f.Cfg.blocks)
    cfg.Cfg.funcs

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            t "common subexpressions" `Quick test_cse;
            t "CSE self-assignment safety" `Quick test_cse_self_assignment_safe;
            t "op-count granularity" `Quick test_op_count_granularity;
          ] );
    ]
  | other -> other
