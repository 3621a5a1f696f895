(* End-to-end differential tests: every shared example program must agree
   across the single-example interpreter, the local static VM (both
   execution styles and all schedulers), and the program-counter VM. *)

let compile_scalar p = Autobatch.compile ~input_shapes:(Test_programs.scalar_shapes p) p

let scalar_batch values = Tensor.of_array [| Array.length values |] values

let check_outputs msg expected actual =
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (output %d): %s vs %s" msg i (Tensor.to_string e)
           (Tensor.to_string a))
        true
        (Tensor.allclose ~rtol:1e-12 ~atol:1e-12 e a))
    (List.combine expected actual)

(* Run a compiled program every way we can and compare against the
   single-example interpreter, member by member. *)
let differential ?(options = Lower_stack.default_options) name program batch =
  let compiled =
    Autobatch.compile ~options
      ~input_shapes:(List.map (fun t -> Shape.drop_outer (Tensor.shape t)) batch)
      program
  in
  let z = (Tensor.shape (List.hd batch)).(0) in
  let reference =
    List.init z (fun b ->
        Autobatch.run_single compiled ~member:b
          ~args:(List.map (fun t -> Tensor.slice_row t b) batch))
  in
  let expected =
    List.mapi
      (fun i _ -> Tensor.stack_rows (List.map (fun r -> List.nth r i) reference))
      (List.hd reference)
  in
  let check_config label outputs = check_outputs (name ^ ": " ^ label) expected outputs in
  (* Local VM: both styles, all schedulers. *)
  List.iter
    (fun style ->
      List.iter
        (fun sched ->
          let config = { Local_vm.default_config with style; sched } in
          let label =
            Printf.sprintf "local/%s/%s"
              (match style with
              | Local_vm.Masking -> "mask"
              | Local_vm.Gather_scatter -> "gather"
              | Local_vm.Adaptive t -> Printf.sprintf "adaptive-%.2f" t)
              (Sched_policy.to_string sched)
          in
          check_config label (Autobatch.run_local ~config compiled ~batch))
        Sched_policy.all)
    [ Local_vm.Masking; Local_vm.Gather_scatter; Local_vm.Adaptive 0.5 ];
  (* PC VM: all schedulers, with and without the simulated optimizations. *)
  List.iter
    (fun sched ->
      let config = { Pc_vm.default_config with sched } in
      check_config ("pc/" ^ Sched_policy.to_string sched) (Autobatch.run_pc ~config compiled ~batch))
    Sched_policy.all;
  let naive = { Pc_vm.default_config with naive_stack_writes = true; top_cache = false } in
  check_config "pc/naive" (Autobatch.run_pc ~config:naive compiled ~batch);
  (* Optimizer on. *)
  let optimized =
    Autobatch.compile ~options ~optimize:true
      ~input_shapes:(List.map (fun t -> Shape.drop_outer (Tensor.shape t)) batch)
      program
  in
  check_config "pc/optimized" (Autobatch.run_pc optimized ~batch)

let test_fib () =
  differential "fib" Test_programs.fib [ scalar_batch [| 3.; 7.; 4.; 5.; 0.; 1.; 10. |] ];
  (* And with O2/O3 disabled: everything stacked/masked must still agree. *)
  differential
    ~options:{ Lower_stack.detect_temporaries = false; save_live_only = false }
    "fib-noopt" Test_programs.fib
    [ scalar_batch [| 3.; 7.; 4.; 5. |] ]

let test_fib_matches_spec () =
  let compiled = compile_scalar Test_programs.fib in
  let batch = [ scalar_batch [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] ] in
  let out = List.hd (Autobatch.run_pc compiled ~batch) in
  Array.iteri
    (fun i n ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "fib(%d)" (int_of_float n))
        (Test_programs.fib_spec (int_of_float n))
        (Tensor.data out).(i))
    [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]

let test_fact_loop () =
  differential "fact" Test_programs.fact_loop [ scalar_batch [| 0.; 1.; 5.; 10.; 3. |] ];
  let compiled = compile_scalar Test_programs.fact_loop in
  let out =
    List.hd (Autobatch.run_pc compiled ~batch:[ scalar_batch [| 6.; 0.; 3. |] ])
  in
  Alcotest.(check (float 0.)) "6!" 720. (Tensor.data out).(0);
  Alcotest.(check (float 0.)) "0!" 1. (Tensor.data out).(1);
  Alcotest.(check (float 0.)) "3!" 6. (Tensor.data out).(2)

let test_nonrecursive_has_no_stacks () =
  let compiled =
    Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fact_loop
  in
  let _, _, stacked = Stack_ir.stats compiled.Autobatch.stack in
  Alcotest.(check int) "no stacked variables in a non-recursive program" 0 stacked

let test_fib_has_stacks () =
  let compiled = Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib in
  let _, _, stacked = Stack_ir.stats compiled.Autobatch.stack in
  Alcotest.(check bool) "fib needs stacked variables" true (stacked > 0)

let test_even_odd () =
  differential "even_odd" Test_programs.even_odd
    [ scalar_batch [| 0.; 1.; 2.; 3.; 7.; 8. |] ]

let test_collatz () =
  differential "collatz" Test_programs.collatz
    [ scalar_batch [| 1.; 2.; 3.; 6.; 7.; 27. |] ];
  let compiled = compile_scalar Test_programs.collatz in
  let out = List.hd (Autobatch.run_pc compiled ~batch:[ scalar_batch [| 27. |] ]) in
  Alcotest.(check (float 0.)) "collatz(27)" (Test_programs.collatz_spec 27)
    (Tensor.data out).(0)

let test_divmod () =
  differential "divmod" Test_programs.divmod
    [ scalar_batch [| 17.; 9.; 42.; 5. |]; scalar_batch [| 5.; 3.; 7.; 5. |] ]

let test_vector_recursion () =
  let v =
    Tensor.init [| 3; 4 |] (fun idx -> float_of_int ((idx.(0) * 4) + idx.(1) + 1))
  in
  differential "vec_double" Test_programs.vec_double
    [ v; scalar_batch [| 0.; 3.; 5. |] ]

let test_ackermann () =
  differential "ackermann" Test_programs.ackermann
    [ scalar_batch [| 0.; 1.; 2.; 2. |]; scalar_batch [| 3.; 3.; 2.; 3. |] ];
  let compiled = compile_scalar Test_programs.ackermann in
  let out =
    List.hd
      (Autobatch.run_pc compiled
         ~batch:[ scalar_batch [| 2. |]; scalar_batch [| 3. |] ])
  in
  Alcotest.(check (float 0.)) "ack(2,3)" (float_of_int (Test_programs.ack_spec 2 3))
    (Tensor.data out).(0)

let test_random_walk () =
  (* Randomized program: counter-based RNG must make all paths agree
     bitwise, including across divergent loop trip counts. *)
  differential "random_walk" Test_programs.random_walk
    [ scalar_batch [| 0.; 1.; 5.; 17.; 3. |] ]

let test_run_unbatched_matches () =
  let compiled = compile_scalar Test_programs.fib in
  let batch = [ scalar_batch [| 4.; 6. |] ] in
  let a = Autobatch.run_unbatched compiled ~batch in
  let b = Autobatch.run_pc compiled ~batch in
  check_outputs "unbatched vs pc" a b

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "fib differential" `Quick test_fib;
        Alcotest.test_case "fib values" `Quick test_fib_matches_spec;
        Alcotest.test_case "factorial loop" `Quick test_fact_loop;
        Alcotest.test_case "non-recursive => no data stacks" `Quick
          test_nonrecursive_has_no_stacks;
        Alcotest.test_case "fib => stacked variables" `Quick test_fib_has_stacks;
        Alcotest.test_case "mutual recursion" `Quick test_even_odd;
        Alcotest.test_case "collatz" `Quick test_collatz;
        Alcotest.test_case "multi-result calls" `Quick test_divmod;
        Alcotest.test_case "vector-valued recursion" `Quick test_vector_recursion;
        Alcotest.test_case "ackermann" `Quick test_ackermann;
        Alcotest.test_case "randomized program" `Quick test_random_walk;
        Alcotest.test_case "unbatched baseline agrees" `Quick test_run_unbatched_matches;
      ] );
  ]
