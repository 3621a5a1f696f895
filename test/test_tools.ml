(* Tests for the developer tooling: DOT export, per-block profiling, and
   source-file loading — plus structural invariants of the stack IR
   checked over the random-program generator. *)

let t = Alcotest.test_case

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let fib_compiled =
  Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib

let test_dot_cfg () =
  let dot = Dot.cfg_to_dot fib_compiled.Autobatch.cfg in
  Alcotest.(check bool) "digraph" true (contains dot "digraph cfg");
  Alcotest.(check bool) "cluster per function" true (contains dot "cluster_0");
  Alcotest.(check bool) "branch labels" true (contains dot "label=\"true\"");
  Alcotest.(check bool) "call edge" true (contains dot "style=dashed");
  (* Balanced braces. *)
  let opens = String.fold_left (fun n c -> if c = '{' then n + 1 else n) 0 dot in
  let closes = String.fold_left (fun n c -> if c = '}' then n + 1 else n) 0 dot in
  Alcotest.(check int) "brace balance" opens closes

let test_dot_stack () =
  let dot = Dot.stack_to_dot fib_compiled.Autobatch.stack in
  Alcotest.(check bool) "digraph" true (contains dot "digraph stack");
  Alcotest.(check bool) "halt node" true (contains dot "halt");
  Alcotest.(check bool) "call edge" true (contains dot "label=\"call\"");
  Alcotest.(check bool) "push shown" true (contains dot "push fib/n")

let test_block_profile () =
  let prof = Obs_prof.create () in
  let sink = Obs_prof.sink prof in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.set_sink engine sink;
  let config = { Pc_vm.default_config with engine = Some engine; sink = Some sink } in
  ignore (Autobatch.run_pc ~config fib_compiled ~batch:[ Tensor.of_list [ 8.; 9. ] ]);
  let rows = Obs_prof.block_rows prof in
  Alcotest.(check bool) "profile populated" true (List.length rows > 0);
  (* Totals agree with the aggregate counters. *)
  let steps = List.fold_left (fun acc (r : Obs_prof.block_row) -> acc + r.steps) 0 rows in
  Alcotest.(check int) "steps sum to supersteps" (Obs_prof.supersteps prof) steps;
  (* Sorted by charged time descending. *)
  let rec sorted = function
    | (a : Obs_prof.block_row) :: ((b : Obs_prof.block_row) :: _ as rest) ->
      a.charged >= b.charged && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted rows);
  (* Indices are valid blocks of the merged program. *)
  let nb = Array.length fib_compiled.Autobatch.stack.Stack_ir.blocks in
  List.iter
    (fun (r : Obs_prof.block_row) ->
      Alcotest.(check bool) "block in range" true (r.block >= 0 && r.block < nb);
      Alcotest.(check bool) "active positive" true (r.active_lanes > 0))
    rows

let test_parse_file () =
  let path = Filename.temp_file "autobatch" ".ab" in
  let oc = open_out path in
  output_string oc "def main(x) { return x * x; }";
  close_out oc;
  (match Parser.parse_file path with
  | Ok p ->
    let out = Interp.run (Prim.standard ()) p ~member:0 ~args:[ Tensor.scalar 7. ] in
    Alcotest.(check (float 0.)) "square" 49. (Tensor.item (List.hd out))
  | Error e -> Alcotest.failf "parse_file: %s" (Parser.string_of_error e));
  Sys.remove path

let test_primes_example_program () =
  (* The shipped .ab example must parse, validate, and compute pi(n). *)
  let path = "../../../examples/programs/primes.ab" in
  let path = if Sys.file_exists path then path else "examples/programs/primes.ab" in
  match Parser.parse_file path with
  | Error e -> Alcotest.failf "primes.ab: %s" (Parser.string_of_error e)
  | Ok p ->
    let reg = Prim.standard () in
    Validate.check_exn reg p;
    let compiled = Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar ] p in
    let out =
      Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 10.; 50.; 100. ] ]
    in
    Alcotest.(check (list (float 0.))) "pi(10), pi(50), pi(100)" [ 4.; 15.; 25. ]
      (Tensor.to_flat_list (List.hd out))

(* Structural invariants of the stack lowering, fuzzed. *)

let stack_invariants (prog : Lang.program) =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error _ -> true (* generator guarantees validity; checked elsewhere *)
  | Ok () ->
    let compiled =
      Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
    in
    let sp = compiled.Autobatch.stack in
    let nb = Array.length sp.Stack_ir.blocks in
    Array.iteri
      (fun i (b : Stack_ir.block) ->
        (* 1. Every push/pop targets a Stacked-class variable. *)
        List.iter
          (fun op ->
            match op with
            | Stack_ir.Spush v | Stack_ir.Spop v ->
              if not (Var_class.equal (Stack_ir.class_of sp v) Var_class.Stacked)
              then
                QCheck.Test.fail_reportf "block %d: stack op on %s (%s)" i v
                  (Var_class.to_string (Stack_ir.class_of sp v))
            | Stack_ir.Sprim _ | Stack_ir.Sconst _ | Stack_ir.Smov _ -> ())
          b.Stack_ir.ops;
        (* 2. Terminator targets are in range; pushjump returns to the
           immediately following block, whose pops mirror the pushes. *)
        match b.Stack_ir.term with
        | Stack_ir.Sjump j ->
          if j < 0 || j >= nb then QCheck.Test.fail_reportf "jump out of range"
        | Stack_ir.Sbranch { if_true; if_false; _ } ->
          if if_true < 0 || if_true >= nb || if_false < 0 || if_false >= nb then
            QCheck.Test.fail_reportf "branch out of range"
        | Stack_ir.Spushjump { ret; entry } ->
          if ret <> i + 1 then
            QCheck.Test.fail_reportf "pushjump ret %d is not the next block" ret;
          if entry < 0 || entry >= nb then
            QCheck.Test.fail_reportf "pushjump entry out of range";
          let pushes =
            List.filter_map
              (function Stack_ir.Spush v -> Some v | _ -> None)
              b.Stack_ir.ops
            |> List.sort compare
          in
          let pops =
            List.filter_map
              (function Stack_ir.Spop v -> Some v | _ -> None)
              sp.Stack_ir.blocks.(ret).Stack_ir.ops
            |> List.sort compare
          in
          if pushes <> pops then
            QCheck.Test.fail_reportf
              "block %d pushes [%s] but continuation pops [%s]" i
              (String.concat "," pushes) (String.concat "," pops)
        | Stack_ir.Spushbranch { ret; if_true; if_false; _ } ->
          (* Only the fusion pass emits this; an unfused compile must not. *)
          if ret < 0 || ret >= nb || if_true < 0 || if_true >= nb
             || if_false < 0 || if_false >= nb
          then QCheck.Test.fail_reportf "pushbranch target out of range"
        | Stack_ir.Sreturn -> ())
      sp.Stack_ir.blocks;
    true

let prop_stack_invariants =
  QCheck.Test.make ~name:"stack IR structural invariants" ~count:80
    Test_random_programs.arb_program stack_invariants

let suites =
  [
    ( "tools",
      [
        t "dot export (cfg)" `Quick test_dot_cfg;
        t "dot export (stack)" `Quick test_dot_stack;
        t "per-block profile" `Quick test_block_profile;
        t "parse_file" `Quick test_parse_file;
        t "primes.ab example" `Quick test_primes_example_program;
        QCheck_alcotest.to_alcotest prop_stack_invariants;
      ] );
  ]
