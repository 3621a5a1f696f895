(* Tests for the IR layers: primitives, validation, CFG lowering,
   liveness, call graph, shape inference, and stack lowering. *)

let t = Alcotest.test_case
let reg = Prim.standard ()

let expect_errors program patterns =
  match Validate.check_program reg program with
  | Ok () -> Alcotest.failf "expected validation errors %s" (String.concat "," patterns)
  | Error msgs ->
    List.iter
      (fun pat ->
        let hit =
          List.exists
            (fun m ->
              (* substring search *)
              let lm = String.length m and lp = String.length pat in
              let rec go i = i + lp <= lm && (String.sub m i lp = pat || go (i + 1)) in
              go 0)
            msgs
        in
        Alcotest.(check bool)
          (Printf.sprintf "error mentioning %S in [%s]" pat (String.concat "; " msgs))
          true hit)
      patterns

(* ---------- primitives ---------- *)

let test_prim_registry () =
  Alcotest.(check bool) "find add" true (Option.is_some (Prim.find reg "add"));
  Alcotest.(check bool) "find missing" true (Option.is_none (Prim.find reg "nope"));
  Alcotest.check_raises "find_exn missing"
    (Invalid_argument "Prim.find_exn: unknown primitive \"nope\"") (fun () ->
      ignore (Prim.find_exn reg "nope"));
  let copy = Prim.copy reg in
  Prim.register copy (Prim.elementwise "custom" (Tensor.map (fun x -> x +. 1.)));
  Alcotest.(check bool) "copy extended" true (Option.is_some (Prim.find copy "custom"));
  Alcotest.(check bool) "original untouched" true (Option.is_none (Prim.find reg "custom"))

let test_prim_shapes () =
  let p = Prim.find_exn reg "add" in
  Alcotest.(check (array int)) "add broadcast" [| 3 |] (p.Prim.shape [ [| 3 |]; [||] ]);
  (match p.Prim.shape [ [| 2 |]; [| 3 |] ] with
  | _ -> Alcotest.fail "expected shape error"
  | exception Prim.Shape_error _ -> ());
  let d = Prim.find_exn reg "dot" in
  Alcotest.(check (array int)) "dot scalar" [||] (d.Prim.shape [ [| 4 |]; [| 4 |] ]);
  (match d.Prim.shape [ [| 4 |]; [| 5 |] ] with
  | _ -> Alcotest.fail "dot shape error expected"
  | exception Prim.Shape_error _ -> ());
  let s = Prim.find_exn reg "sum" in
  Alcotest.(check (array int)) "sum reduces" [||] (s.Prim.shape [ [| 7 |] ])

let test_prim_batched_rank_align () =
  (* Per-member scalar times per-member vector. *)
  let mul = Prim.find_exn reg "mul" in
  let scalars = Tensor.of_list [ 2.; 3. ] in
  let vectors = Tensor.create [| 2; 3 |] [| 1.; 1.; 1.; 10.; 10.; 10. |] in
  let out = mul.Prim.batched ~members:[| 0; 1 |] [ scalars; vectors ] in
  Alcotest.(check bool) "scalar-vector batched broadcast" true
    (Tensor.allclose out (Tensor.create [| 2; 3 |] [| 2.; 2.; 2.; 30.; 30.; 30. |]));
  (* select with scalar condition per member *)
  let sel = Prim.find_exn reg "select" in
  let cond = Tensor.of_list [ 1.; 0. ] in
  let a = Tensor.create [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = Tensor.create [| 2; 2 |] [| -1.; -2.; -3.; -4. |] in
  let out = sel.Prim.batched ~members:[| 0; 1 |] [ cond; a; b ] in
  Alcotest.(check bool) "batched select" true
    (Tensor.allclose out (Tensor.create [| 2; 2 |] [| 1.; 2.; -3.; -4. |]))

let test_prim_single_vs_batched () =
  (* Elementwise and reductions agree between paths. *)
  List.iter
    (fun name ->
      let p = Prim.find_exn reg name in
      let x = Tensor.create [| 3; 4 |] (Array.init 12 (fun i -> (float_of_int i /. 3.) +. 0.1)) in
      let batched = p.Prim.batched ~members:[| 0; 1; 2 |] [ x ] in
      for b = 0 to 2 do
        let single = p.Prim.single ~member:b [ Tensor.slice_row x b ] in
        let got =
          if Tensor.rank batched = 1 then Tensor.scalar (Tensor.data batched).(b)
          else Tensor.slice_row batched b
        in
        Alcotest.(check bool) (name ^ " single=batched") true (Tensor.equal single got)
      done)
    [ "exp"; "log"; "sqrt"; "square"; "sigmoid"; "sum"; "sum_sq"; "neg"; "floor" ]

let test_index_update_prims () =
  let idx = Prim.find_exn reg "index" in
  let upd = Prim.find_exn reg "update" in
  (* Shapes. *)
  Alcotest.(check (array int)) "index shape" [||] (idx.Prim.shape [ [| 5 |]; [||] ]);
  Alcotest.(check (array int)) "update shape" [| 5 |]
    (upd.Prim.shape [ [| 5 |]; [||]; [||] ]);
  (match idx.Prim.shape [ [| 5 |]; [| 2 |] ] with
  | _ -> Alcotest.fail "non-scalar index accepted"
  | exception Prim.Shape_error _ -> ());
  (* Single semantics + clamping. *)
  let v = Tensor.of_list [ 10.; 20.; 30. ] in
  let get i = Tensor.item (idx.Prim.single ~member:0 [ v; Tensor.scalar i ]) in
  Alcotest.(check (float 0.)) "index 1" 20. (get 1.);
  Alcotest.(check (float 0.)) "index clamps low" 10. (get (-7.));
  Alcotest.(check (float 0.)) "index clamps high" 30. (get 99.);
  Alcotest.(check (float 0.)) "index clamps NaN" 10. (get Float.nan);
  let v' = upd.Prim.single ~member:0 [ v; Tensor.scalar 2.; Tensor.scalar 99. ] in
  Alcotest.(check bool) "update writes" true
    (Tensor.equal v' (Tensor.of_list [ 10.; 20.; 99. ]));
  Alcotest.(check bool) "update is functional" true
    (Tensor.equal v (Tensor.of_list [ 10.; 20.; 30. ]));
  (* Batched semantics: per-member indices. *)
  let vb = Tensor.create [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let ib = Tensor.of_list [ 0.; 2. ] in
  let out = idx.Prim.batched ~members:[| 0; 1 |] [ vb; ib ] in
  Alcotest.(check bool) "batched index" true
    (Tensor.equal out (Tensor.of_list [ 1.; 6. ]));
  let xb = Tensor.of_list [ 9.; 8. ] in
  let ub = upd.Prim.batched ~members:[| 0; 1 |] [ vb; ib; xb ] in
  Alcotest.(check bool) "batched update" true
    (Tensor.equal ub (Tensor.create [| 2; 3 |] [| 9.; 2.; 3.; 4.; 5.; 8. |]))

let test_index_update_in_program () =
  (* reverse a fixed-size vector in the DSL using index/update. *)
  let prog =
    let open Lang in
    let open Lang.Infix in
    program ~main:"rev"
      [
        func "rev" ~params:[ "v"; "n" ]
          [
            assign "out" (var "v" * flt 0.);
            assign "i" (flt 0.);
            while_
              (var "i" < var "n")
              [
                assign "out"
                  (prim "update"
                     [ var "out"; var "n" - flt 1. - var "i";
                       prim "index" [ var "v"; var "i" ] ]);
                assign "i" (var "i" + flt 1.);
              ];
            return_ [ var "out" ];
          ];
      ]
  in
  let compiled = Autobatch.compile ~input_shapes:[ [| 4 |]; Shape.scalar ] prog in
  let v = Tensor.create [| 2; 4 |] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 0. |] in
  let n = Tensor.of_list [ 4.; 3. ] in
  let out = List.hd (Autobatch.run_pc compiled ~batch:[ v; n ]) in
  Alcotest.(check bool) "member 0 reversed" true
    (Tensor.equal (Tensor.slice_row out 0) (Tensor.of_list [ 4.; 3.; 2.; 1. ]));
  Alcotest.(check bool) "member 1 reversed (shorter)" true
    (Tensor.equal (Tensor.slice_row out 1) (Tensor.of_list [ 7.; 6.; 5.; 0. ]));
  let local = List.hd (Autobatch.run_local compiled ~batch:[ v; n ]) in
  Alcotest.(check bool) "local agrees" true (Tensor.equal out local)

let test_rng_prims_member_keyed () =
  let u = Prim.find_exn reg "uniform" in
  let counters = Tensor.of_list [ 0.; 0. ] in
  let out = u.Prim.batched ~members:[| 0; 1 |] [ counters ] in
  Alcotest.(check bool) "same counter, different member => different draw" true
    ((Tensor.data out).(0) <> (Tensor.data out).(1));
  (* gathered execution keeps member identity *)
  let gathered = u.Prim.batched ~members:[| 1 |] [ Tensor.of_list [ 0. ] ] in
  Alcotest.(check (float 0.)) "gathered row uses global member id"
    (Tensor.data out).(1)
    (Tensor.data gathered).(0)

(* ---------- validation ---------- *)

let fn name params body = Lang.func name ~params body
let pr main funcs = Lang.program ~main funcs

let test_validate_ok () =
  match Validate.check_program reg Test_programs.fib with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "unexpected errors: %s" (String.concat "; " msgs)

let test_validate_errors () =
  expect_errors
    (pr "main" [ fn "main" [ "x" ] [ Lang.return_ [ Lang.prim "nope" [ Lang.var "x" ] ] ] ])
    [ "unknown primitive" ];
  expect_errors
    (pr "main" [ fn "main" [ "x" ] [ Lang.return_ [ Lang.prim "add" [ Lang.var "x" ] ] ] ])
    [ "wants 2 arguments" ];
  expect_errors
    (pr "missing" [ fn "main" [ "x" ] [ Lang.return_ [ Lang.var "x" ] ] ])
    [ "entry function" ];
  expect_errors
    (pr "main"
       [ fn "main" [ "x"; "x" ] [ Lang.return_ [ Lang.var "x" ] ] ])
    [ "duplicate parameter" ];
  expect_errors
    (pr "main" [ fn "main" [ "x" ] [ Lang.assign "y" (Lang.var "x") ] ])
    [ "without returning" ];
  expect_errors
    (pr "main"
       [
         fn "main" [ "x" ]
           [
             Lang.if_ (Lang.var "x") [ Lang.return_ [ Lang.var "x" ] ]
               [ Lang.return_ [ Lang.var "x"; Lang.var "x" ] ];
           ];
       ])
    [ "differing arity" ];
  expect_errors
    (pr "main"
       [
         fn "main" [ "x" ]
           [ Lang.call [ "a" ] "other" [ Lang.var "x" ]; Lang.return_ [ Lang.var "a" ] ];
       ])
    [ "unknown function" ];
  expect_errors
    (pr "main"
       [
         fn "main" [ "x" ]
           [ Lang.call [ "a"; "b" ] "aux" [ Lang.var "x" ]; Lang.return_ [ Lang.var "a" ] ];
         fn "aux" [ "y" ] [ Lang.return_ [ Lang.var "y" ] ];
       ])
    [ "binds 2 results" ];
  expect_errors
    (pr "main" [ fn "main" [ "x" ] [ Lang.return_ [ Lang.var "bad/name" ] ] ])
    [ "bad variable name" ]

let test_validate_use_before_def () =
  (* y defined only on one branch, then used. *)
  expect_errors
    (pr "main"
       [
         fn "main" [ "x" ]
           [
             Lang.if_ (Lang.var "x") [ Lang.assign "y" (Lang.flt 1.) ] [];
             Lang.return_ [ Lang.var "y" ];
           ];
       ])
    [ "used before definition" ];
  (* Defined on both branches is fine. *)
  match
    Validate.check_program reg
      (pr "main"
         [
           fn "main" [ "x" ]
             [
               Lang.if_ (Lang.var "x")
                 [ Lang.assign "y" (Lang.flt 1.) ]
                 [ Lang.assign "y" (Lang.flt 2.) ];
               Lang.return_ [ Lang.var "y" ];
             ];
         ])
  with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "unexpected: %s" (String.concat ";" msgs)

let test_validate_loop_carried () =
  (* Variable defined only inside a while body, read after: may not
     execute — must be an error. *)
  expect_errors
    (pr "main"
       [
         fn "main" [ "x" ]
           [
             Lang.while_ (Lang.var "x") [ Lang.assign "y" (Lang.flt 1.); Lang.assign "x" (Lang.flt 0.) ];
             Lang.return_ [ Lang.var "y" ];
           ];
       ])
    [ "used before definition" ]

(* ---------- CFG lowering ---------- *)

let test_lower_fib_structure () =
  let cfg = Lower_cfg.lower Test_programs.fib in
  let f = Cfg.entry_func cfg in
  Alcotest.(check string) "entry" "fib" f.Cfg.name;
  Alcotest.(check (list string)) "params" [ "fib/n" ] f.Cfg.params;
  Alcotest.(check (list string)) "results" [ "fib/$ret0" ] f.Cfg.result_vars;
  Alcotest.(check bool) "a few blocks" true (Array.length f.Cfg.blocks >= 3);
  (* Entry ends in a branch. *)
  (match f.Cfg.blocks.(0).Cfg.term with
  | Cfg.Branch _ -> ()
  | Cfg.Jump _ | Cfg.Return -> Alcotest.fail "entry should branch");
  (* All jump targets are in range. *)
  Array.iteri
    (fun i b ->
      List.iter
        (fun j ->
          Alcotest.(check bool)
            (Printf.sprintf "target of block %d in range" i)
            true
            (j >= 0 && j < Array.length f.Cfg.blocks))
        (Cfg.successors f.Cfg.blocks.(i).Cfg.term);
      ignore b)
    f.Cfg.blocks

let test_lower_while_structure () =
  let cfg = Lower_cfg.lower Test_programs.fact_loop in
  let f = Cfg.entry_func cfg in
  (* The condition block must be re-entered from the body: some block jumps
     backward. *)
  let backward = ref false in
  Array.iteri
    (fun i b ->
      List.iter
        (fun j -> if j <= i then backward := true)
        (Cfg.successors f.Cfg.blocks.(i).Cfg.term);
      ignore b)
    f.Cfg.blocks;
  Alcotest.(check bool) "loop back edge" true !backward

let test_result_arity () =
  Alcotest.(check int) "fib returns 1" 1
    (Lower_cfg.result_arity (List.hd Test_programs.fib.Lang.funcs));
  let dm = Lang.find_func Test_programs.divmod "divmod" |> Option.get in
  Alcotest.(check int) "divmod returns 2" 2 (Lower_cfg.result_arity dm)

(* ---------- liveness ---------- *)

let test_liveness_fib () =
  let cfg = Lower_cfg.lower Test_programs.fib in
  let f = Cfg.entry_func cfg in
  let lv = Liveness.analyze f in
  (* n is live into the entry block. *)
  Alcotest.(check bool) "n live at entry" true
    (Ir_util.Sset.mem "fib/n" (Liveness.live_in lv 0));
  let cross = Liveness.cross_block_vars lv f in
  (* n is read both in the condition block and the else block. *)
  Alcotest.(check bool) "n crosses blocks" true (Ir_util.Sset.mem "fib/n" cross);
  (* left lives entirely inside the else block: it crosses a *call*, not a
     block boundary (which is why O2 and O3 are separate analyses). *)
  Alcotest.(check bool) "left does not cross blocks" false
    (Ir_util.Sset.mem "fib/left" cross)

let test_live_after_op () =
  (* In fib's else block, n must be live immediately after the first
     recursive call (it is still needed for the second call's argument). *)
  let cfg = Lower_cfg.lower Test_programs.fib in
  let f = Cfg.entry_func cfg in
  let lv = Liveness.analyze f in
  let found = ref false in
  Array.iteri
    (fun bi b ->
      List.iteri
        (fun oi op ->
          match op with
          | Cfg.Call_op { dsts = [ d ]; _ } when d = "fib/left" ->
            found := true;
            let live = Liveness.live_after_op lv f ~block:bi ~op:oi in
            Alcotest.(check bool) "n live after first call" true
              (Ir_util.Sset.mem "fib/n" live)
          | Cfg.Call_op _ | Cfg.Prim_op _ | Cfg.Const_op _ | Cfg.Mov _ -> ())
        b.Cfg.ops)
    f.Cfg.blocks;
  Alcotest.(check bool) "found first call" true !found

(* ---------- dense dataflow vs the string-set oracle ----------

   [Liveness] and [Validate.check_defined_before_use] run their
   fixpoints on bitsets over densely numbered variables. The string-set
   implementations they replaced are kept here as the oracle. *)

module Oracle = struct
  module S = Ir_util.Sset

  let op_backward live op =
    S.union (S.diff live (S.of_list (Cfg.op_defs op))) (S.of_list (Cfg.op_uses op))

  let block_backward f (b : Cfg.block) live_out =
    let live = S.union live_out (S.of_list (Cfg.term_uses f b.Cfg.term)) in
    List.fold_left op_backward live (List.rev b.Cfg.ops)

  (* Per-block (live_in, live_out). *)
  let liveness (f : Cfg.func) =
    let n = Array.length f.Cfg.blocks in
    let live_in = Array.make n S.empty and live_out = Array.make n S.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        let out =
          List.fold_left
            (fun acc j -> S.union acc live_in.(j))
            S.empty
            (Cfg.successors f.Cfg.blocks.(i).Cfg.term)
        in
        let inp = block_backward f f.Cfg.blocks.(i) out in
        if not (S.equal out live_out.(i) && S.equal inp live_in.(i)) then begin
          live_out.(i) <- out;
          live_in.(i) <- inp;
          changed := true
        end
      done
    done;
    (live_in, live_out)

  let live_after_op (_, live_out) f ~block ~op =
    let b = f.Cfg.blocks.(block) in
    let ops = Array.of_list b.Cfg.ops in
    let live = ref (S.union live_out.(block) (S.of_list (Cfg.term_uses f b.Cfg.term))) in
    for k = Array.length ops - 1 downto op + 1 do
      live := op_backward !live ops.(k)
    done;
    !live

  let cross_block_vars (live_in, live_out) =
    Array.fold_left S.union live_in.(0) live_out

  let check_defined_before_use (f : Cfg.func) =
    let n = Array.length f.Cfg.blocks in
    let errs = ref [] in
    if n = 0 then [ Printf.sprintf "%s: empty function" f.Cfg.name ]
    else begin
      let all = S.of_list (Cfg.all_vars f) in
      let defined_in = Array.make n all in
      defined_in.(0) <- S.of_list f.Cfg.params;
      let preds = Array.make n [] in
      for i = 0 to n - 1 do
        List.iter
          (fun j -> preds.(j) <- i :: preds.(j))
          (Cfg.successors f.Cfg.blocks.(i).Cfg.term)
      done;
      let block_out i start =
        List.fold_left
          (fun acc op -> S.union acc (S.of_list (Cfg.op_defs op)))
          start f.Cfg.blocks.(i).Cfg.ops
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 1 to n - 1 do
          match preds.(i) with
          | [] -> ()
          | ps ->
            let inp =
              List.fold_left (fun acc p -> S.inter acc (block_out p defined_in.(p))) all ps
            in
            if not (S.equal inp defined_in.(i)) then begin
              defined_in.(i) <- inp;
              changed := true
            end
        done
      done;
      let reachable = Array.make n false in
      let rec visit i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter visit (Cfg.successors f.Cfg.blocks.(i).Cfg.term)
        end
      in
      visit 0;
      for i = 0 to n - 1 do
        if reachable.(i) then begin
          let defined = ref defined_in.(i) in
          List.iter
            (fun op ->
              List.iter
                (fun u ->
                  if not (S.mem u !defined) then
                    errs :=
                      Printf.sprintf "%s: variable %S may be used before definition (block %d)"
                        f.Cfg.name u i
                      :: !errs)
                (Cfg.op_uses op);
              defined := S.union !defined (S.of_list (Cfg.op_defs op)))
            f.Cfg.blocks.(i).Cfg.ops;
          List.iter
            (fun u ->
              if not (S.mem u !defined) then
                errs :=
                  Printf.sprintf
                    "%s: variable %S may be used before definition (terminator of block %d)"
                    f.Cfg.name u i
                  :: !errs)
            (Cfg.term_uses f f.Cfg.blocks.(i).Cfg.term)
        end
      done;
      List.sort_uniq compare !errs
    end

  (* What [Lower_stack.lower] (default options) derives from liveness:
     every function variable's storage class, and the variables each
     call site saves, in emission order (entry function first). *)
  let stack_decisions (p : Cfg.program) =
    let cg = Callgraph.build p in
    let funcs =
      (p.Cfg.entry, Cfg.entry_func p)
      :: List.filter (fun (name, _) -> name <> p.Cfg.entry) p.Cfg.funcs
    in
    let stacked = ref S.empty and saves = ref [] and temps = ref [] in
    List.iter
      (fun (fname, (f : Cfg.func)) ->
        let lv = liveness f in
        let across = ref S.empty in
        Array.iteri
          (fun bi (b : Cfg.block) ->
            List.iteri
              (fun oi op ->
                match op with
                | Cfg.Call_op { dsts; func = callee; _ } ->
                  let live = live_after_op lv f ~block:bi ~op:oi in
                  across := S.union !across live;
                  let saved =
                    if Callgraph.may_clobber_caller cg ~caller:fname ~callee then
                      S.diff live (S.of_list dsts)
                    else S.empty
                  in
                  stacked := S.union !stacked saved;
                  saves := List.rev_append (S.elements saved) !saves
                | Cfg.Prim_op _ | Cfg.Const_op _ | Cfg.Mov _ -> ())
              b.Cfg.ops)
          f.Cfg.blocks;
        let non_temp =
          S.union (cross_block_vars lv)
            (S.union !across (S.of_list (f.Cfg.params @ f.Cfg.result_vars)))
        in
        temps := (f, S.diff (S.of_list (Cfg.all_vars f)) non_temp) :: !temps)
      funcs;
    let classes =
      List.concat_map
        (fun (f, temps) ->
          List.map
            (fun v ->
              ( v,
                if S.mem v !stacked then Var_class.Stacked
                else if S.mem v temps then Var_class.Temp
                else Var_class.Masked ))
            (Cfg.all_vars f))
        !temps
      |> List.sort compare
    in
    (classes, List.rev !saves)
end

(* Delete the [k]th assignment (pre-order, modulo their number), so the
   must-defined check has uses before definition to report. *)
let delete_assign (p : Lang.program) k =
  let rec count l =
    List.fold_left
      (fun acc (s : Lang.stmt) ->
        match s with
        | Lang.Assign _ -> acc + 1
        | Lang.If (_, a, b) -> acc + count a + count b
        | Lang.While (_, b) -> acc + count b
        | Lang.Call_stmt _ | Lang.Return _ -> acc)
      0 l
  in
  let n = List.fold_left (fun acc (f : Lang.func) -> acc + count f.Lang.body) 0 p.Lang.funcs in
  if n = 0 then p
  else begin
    let seen = ref 0 and target = k mod n in
    let rec drop l =
      List.concat_map
        (fun (s : Lang.stmt) ->
          match s with
          | Lang.Assign _ ->
            incr seen;
            if !seen - 1 = target then [] else [ s ]
          | Lang.If (c, a, b) ->
            let a = drop a in
            [ Lang.If (c, a, drop b) ]
          | Lang.While (c, b) -> [ Lang.While (c, drop b) ]
          | Lang.Call_stmt _ | Lang.Return _ -> [ s ])
        l
    in
    let drop_in (f : Lang.func) = { f with Lang.body = drop f.Lang.body } in
    { p with Lang.funcs = List.map drop_in p.Lang.funcs }
  end

let dense_matches_oracle (prog, k) =
  let fail what p =
    QCheck.Test.fail_reportf "%s differs from the string-set oracle on\n%s" what
      (Test_random_programs.print_program p)
  in
  List.iter
    (fun p ->
      let cfg = Lower_cfg.lower p in
      List.iter
        (fun (_, (f : Cfg.func)) ->
          if Validate.check_defined_before_use f <> Oracle.check_defined_before_use f then
            fail "check_defined_before_use" p;
          let lv = Liveness.analyze f and ((o_in, o_out) as o) = Oracle.liveness f in
          Array.iteri
            (fun bi (b : Cfg.block) ->
              let same a b = Ir_util.Sset.equal a b in
              if not (same (Liveness.live_in lv bi) o_in.(bi)) then fail "live_in" p;
              if not (same (Liveness.live_out lv bi) o_out.(bi)) then fail "live_out" p;
              List.iteri
                (fun op _ ->
                  if
                    not
                      (Ir_util.Sset.equal
                         (Liveness.live_after_op lv f ~block:bi ~op)
                         (Oracle.live_after_op o f ~block:bi ~op))
                  then fail "live_after_op" p)
                b.Cfg.ops)
            f.Cfg.blocks;
          if not (Ir_util.Sset.equal (Liveness.cross_block_vars lv f) (Oracle.cross_block_vars o))
          then fail "cross_block_vars" p)
        cfg.Cfg.funcs;
      let sp = Lower_stack.lower cfg in
      let classes, saves = Oracle.stack_decisions cfg in
      if List.exists (fun (v, c) -> Stack_ir.class_of sp v <> c) classes then
        fail "Lower_stack's storage classes" p;
      let moved pick =
        List.concat_map
          (fun (b : Stack_ir.block) -> List.filter_map pick b.Stack_ir.ops)
          (Array.to_list sp.Stack_ir.blocks)
      in
      if moved (function Stack_ir.Spush v -> Some v | _ -> None) <> saves then
        fail "Lower_stack's saves" p;
      if moved (function Stack_ir.Spop v -> Some v | _ -> None) <> saves then
        fail "Lower_stack's restores" p)
    [ prog; delete_assign prog k ];
  true

let prop_dense_dataflow =
  QCheck.Test.make ~count:150 ~name:"dense dataflow = string-set oracle"
    QCheck.(pair Test_random_programs.arb_program small_nat)
    dense_matches_oracle

(* The random programs branch only on fresh comparison temporaries, so
   no terminator reads an undefined variable there; here [u] is defined
   on one arm only and a loop branches on it directly. *)
let test_dense_terminator_uses () =
  let open Lang in
  let p =
    program ~main:"main"
      [
        func "main" ~params:[ "p" ]
          [
            if_ (var "p") [ assign "u" (var "p") ] [];
            while_ (var "u") [ assign "u" (prim "sub" [ var "u"; flt 1. ]) ];
            return_ [ var "u" ];
          ];
      ]
  in
  ignore (dense_matches_oracle (p, 0));
  let errs = Validate.check_defined_before_use (Cfg.entry_func (Lower_cfg.lower p)) in
  Alcotest.(check bool) "a terminator's use is reported" true
    (List.mem {|main: variable "main/u" may be used before definition (terminator of block 4)|}
       errs)

(* ---------- call graph ---------- *)

let test_callgraph () =
  let cfg = Lower_cfg.lower Test_programs.even_odd in
  let cg = Callgraph.build cfg in
  Alcotest.(check bool) "is_even calls is_odd" true
    (Ir_util.Sset.mem "is_odd" (Callgraph.callees cg "is_even"));
  Alcotest.(check bool) "mutual reach" true
    (Callgraph.may_clobber_caller cg ~caller:"is_even" ~callee:"is_odd");
  (* Non-mutual helper call must not clobber. *)
  let helper = Lower_cfg.lower Test_programs.divmod in
  let cgh = Callgraph.build helper in
  Alcotest.(check bool) "helper cannot clobber caller" false
    (Callgraph.may_clobber_caller cgh ~caller:"use_divmod" ~callee:"divmod")

(* ---------- shape inference ---------- *)

let test_shape_infer_fib () =
  let cfg = Lower_cfg.lower Test_programs.fib in
  let shapes = Shape_infer.infer reg cfg ~inputs:[ Shape.scalar ] in
  Alcotest.(check (array int)) "ret scalar" [||]
    (Ir_util.Smap.find "fib/$ret0" shapes)

let test_shape_infer_vector_recursion () =
  let cfg = Lower_cfg.lower Test_programs.vec_double in
  let shapes = Shape_infer.infer reg cfg ~inputs:[ [| 4 |]; Shape.scalar ] in
  Alcotest.(check (array int)) "w is a vector" [| 4 |]
    (Ir_util.Smap.find "vdouble/w" shapes)

let test_shape_infer_errors () =
  let bad =
    pr "main"
      [
        fn "main" [ "v" ]
          [
            Lang.assign "c" (Lang.prim "dot" [ Lang.var "v"; Lang.var "v" ]);
            Lang.if_ (Lang.var "v") [ Lang.return_ [ Lang.var "c" ] ]
              [ Lang.return_ [ Lang.var "c" ] ];
          ];
      ]
  in
  let cfg = Lower_cfg.lower bad in
  (match Shape_infer.infer reg cfg ~inputs:[ [| 3 |] ] with
  | _ -> Alcotest.fail "expected non-scalar branch condition error"
  | exception Shape_infer.Error _ -> ());
  let mismatch =
    pr "main"
      [
        fn "main" [ "v" ]
          [ Lang.return_ [ Lang.prim "dot" [ Lang.var "v"; Lang.vec [| 1.; 2. |] ] ] ];
      ]
  in
  let cfg2 = Lower_cfg.lower mismatch in
  (match Shape_infer.infer reg cfg2 ~inputs:[ [| 3 |] ] with
  | _ -> Alcotest.fail "expected dot shape error"
  | exception Shape_infer.Error _ -> ())

(* ---------- stack lowering ---------- *)

let test_stack_fib () =
  let cfg = Lower_cfg.lower Test_programs.fib in
  let shapes = Shape_infer.infer reg cfg ~inputs:[ Shape.scalar ] in
  let sp = Lower_stack.lower ~shapes cfg in
  (* The paper's Figure 3: only n and left need stacks. *)
  Alcotest.(check string) "n stacked" "stacked"
    (Var_class.to_string (Stack_ir.class_of sp "fib/n"));
  Alcotest.(check string) "left stacked" "stacked"
    (Var_class.to_string (Stack_ir.class_of sp "fib/left"));
  Alcotest.(check string) "right masked" "masked"
    (Var_class.to_string (Stack_ir.class_of sp "fib/right"));
  Alcotest.(check string) "ret masked" "masked"
    (Var_class.to_string (Stack_ir.class_of sp "fib/$ret0"));
  (* Pushes and pops balance per variable. *)
  let pushes = Hashtbl.create 8 and pops = Hashtbl.create 8 in
  Array.iter
    (fun (b : Stack_ir.block) ->
      List.iter
        (fun op ->
          match op with
          | Stack_ir.Spush v ->
            Hashtbl.replace pushes v (1 + Option.value ~default:0 (Hashtbl.find_opt pushes v))
          | Stack_ir.Spop v ->
            Hashtbl.replace pops v (1 + Option.value ~default:0 (Hashtbl.find_opt pops v))
          | Stack_ir.Sprim _ | Stack_ir.Sconst _ | Stack_ir.Smov _ -> ())
        b.Stack_ir.ops)
    sp.Stack_ir.blocks;
  Hashtbl.iter
    (fun v n ->
      Alcotest.(check int) (v ^ " pushes = pops") n
        (Option.value ~default:0 (Hashtbl.find_opt pops v)))
    pushes;
  (* Entry block of the entry function is 0. *)
  Alcotest.(check int) "entry head" 0 (List.assoc "fib" sp.Stack_ir.func_entries)

let test_stack_nonrecursive () =
  let cfg = Lower_cfg.lower Test_programs.fact_loop in
  let sp = Lower_stack.lower cfg in
  let _, _, stacked = Stack_ir.stats sp in
  Alcotest.(check int) "no stacks" 0 stacked;
  (* No push/pop instructions at all. *)
  Array.iter
    (fun (b : Stack_ir.block) ->
      List.iter
        (fun op ->
          match op with
          | Stack_ir.Spush _ | Stack_ir.Spop _ -> Alcotest.fail "unexpected stack op"
          | Stack_ir.Sprim _ | Stack_ir.Sconst _ | Stack_ir.Smov _ -> ())
        b.Stack_ir.ops)
    sp.Stack_ir.blocks

let test_stack_helper_call_needs_no_saves () =
  (* divmod's caller cannot be re-entered, so nothing is saved even though
     variables are live across the call. *)
  let cfg = Lower_cfg.lower Test_programs.divmod in
  let sp = Lower_stack.lower cfg in
  let _, _, stacked = Stack_ir.stats sp in
  Alcotest.(check int) "non-reentrant call saves nothing" 0 stacked

let test_stack_noopt_saves_more () =
  let cfg = Lower_cfg.lower Test_programs.divmod in
  let sp =
    Lower_stack.lower
      ~options:{ Lower_stack.detect_temporaries = true; save_live_only = false }
      cfg
  in
  let _, _, stacked = Stack_ir.stats sp in
  Alcotest.(check bool) "O3 off forces stacks" true (stacked > 0)

let test_stack_origin_mapping () =
  let cfg = Lower_cfg.lower Test_programs.even_odd in
  let sp = Lower_stack.lower cfg in
  Alcotest.(check int) "origin per block" (Array.length sp.Stack_ir.blocks)
    (Array.length sp.Stack_ir.origin);
  let names =
    Array.to_list sp.Stack_ir.origin |> List.map fst |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "both functions present" [ "is_even"; "is_odd" ] names

let suites =
  [
    ( "prim",
      [
        t "registry" `Quick test_prim_registry;
        t "shape rules" `Quick test_prim_shapes;
        t "batched rank alignment" `Quick test_prim_batched_rank_align;
        t "single vs batched agree" `Quick test_prim_single_vs_batched;
        t "index/update" `Quick test_index_update_prims;
        t "index/update in programs" `Quick test_index_update_in_program;
        t "rng prims keyed by member" `Quick test_rng_prims_member_keyed;
      ] );
    ( "validate",
      [
        t "accepts fib" `Quick test_validate_ok;
        t "error classes" `Quick test_validate_errors;
        t "use before definition" `Quick test_validate_use_before_def;
        t "loop-carried definition" `Quick test_validate_loop_carried;
      ] );
    ( "lower-cfg",
      [
        t "fib structure" `Quick test_lower_fib_structure;
        t "while structure" `Quick test_lower_while_structure;
        t "result arity" `Quick test_result_arity;
      ] );
    ( "analysis",
      [
        t "liveness on fib" `Quick test_liveness_fib;
        t "live after op" `Quick test_live_after_op;
        t "call graph" `Quick test_callgraph;
        t "shape inference fib" `Quick test_shape_infer_fib;
        t "shape inference vectors" `Quick test_shape_infer_vector_recursion;
        t "shape inference errors" `Quick test_shape_infer_errors;
        QCheck_alcotest.to_alcotest prop_dense_dataflow;
        t "dense dataflow on terminator uses" `Quick test_dense_terminator_uses;
      ] );
    ( "lower-stack",
      [
        t "fib classes and balance" `Quick test_stack_fib;
        t "non-recursive: no stacks" `Quick test_stack_nonrecursive;
        t "helper calls save nothing" `Quick test_stack_helper_call_needs_no_saves;
        t "O3 off saves more" `Quick test_stack_noopt_saves_more;
        t "origin mapping" `Quick test_stack_origin_mapping;
      ] );
  ]

(* ---------- CFG interpreter ---------- *)

let test_interp_cfg_fib () =
  let cfg = Lower_cfg.lower Test_programs.fib in
  List.iter
    (fun n ->
      let out = Interp_cfg.run reg cfg ~member:0 ~args:[ Tensor.scalar n ] in
      Alcotest.(check (float 0.))
        (Printf.sprintf "cfg fib(%g)" n)
        (Test_programs.fib_spec (int_of_float n))
        (Tensor.item (List.hd out)))
    [ 0.; 1.; 5.; 9. ]

let test_interp_cfg_multi_result () =
  let cfg = Lower_cfg.lower Test_programs.divmod in
  let out =
    Interp_cfg.run reg cfg ~member:0 ~args:[ Tensor.scalar 17.; Tensor.scalar 5. ]
  in
  Alcotest.(check (float 0.)) "use_divmod(17,5)" 302. (Tensor.item (List.hd out))

let test_interp_cfg_step_limit () =
  let spin =
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
  let cfg = Lower_cfg.lower spin in
  Alcotest.check_raises "cfg step limit" Ir_util.Step_limit_exceeded (fun () ->
      ignore (Interp_cfg.run ~max_steps:50 reg cfg ~member:0 ~args:[ Tensor.scalar 0. ]))

let interp_cfg_suite =
  ( "interp-cfg",
    [
      t "fibonacci" `Quick test_interp_cfg_fib;
      t "multi-result calls" `Quick test_interp_cfg_multi_result;
      t "step limit" `Quick test_interp_cfg_step_limit;
    ] )

let suites = suites @ [ interp_cfg_suite ]
