let bad_ident name =
  String.contains name '/' || String.contains name '$' || String.length name = 0

let rec expr_errors reg fname errs (e : Lang.expr) =
  match e with
  | Lang.Var x ->
    if bad_ident x then
      errs := Printf.sprintf "%s: bad variable name %S" fname x :: !errs
  | Lang.Const _ | Lang.Vec _ -> ()
  | Lang.Prim (name, args) ->
    (match Prim.find reg name with
    | None -> errs := Printf.sprintf "%s: unknown primitive %S" fname name :: !errs
    | Some p ->
      if p.Prim.arity <> List.length args then
        errs :=
          Printf.sprintf "%s: primitive %S wants %d arguments, got %d" fname name
            p.Prim.arity (List.length args)
          :: !errs);
    List.iter (expr_errors reg fname errs) args

let dup_names names =
  let sorted = List.sort compare names in
  let rec dups = function
    | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
    | _ -> []
  in
  List.sort_uniq compare (dups sorted)

let rec stmt_errors reg (p : Lang.program) fname arities errs (s : Lang.stmt) =
  let check_ident kind x =
    if bad_ident x then
      errs := Printf.sprintf "%s: bad %s name %S" fname kind x :: !errs
  in
  match s with
  | Lang.Assign (x, e) ->
    check_ident "variable" x;
    expr_errors reg fname errs e
  | Lang.Call_stmt (dsts, callee, args) ->
    List.iter (check_ident "destination") dsts;
    List.iter
      (fun d -> errs := Printf.sprintf "%s: duplicate call destination %S" fname d :: !errs)
      (dup_names dsts);
    List.iter (expr_errors reg fname errs) args;
    (match Lang.find_func p callee with
    | None -> errs := Printf.sprintf "%s: call to unknown function %S" fname callee :: !errs
    | Some f ->
      if List.length f.Lang.params <> List.length args then
        errs :=
          Printf.sprintf "%s: call to %S passes %d arguments for %d parameters" fname
            callee (List.length args)
            (List.length f.Lang.params)
          :: !errs;
      (match List.assoc_opt callee arities with
      | Some (Some n) when n <> List.length dsts ->
        errs :=
          Printf.sprintf "%s: call to %S binds %d results but it returns %d" fname callee
            (List.length dsts) n
          :: !errs
      | _ -> ()))
  | Lang.Return es -> List.iter (expr_errors reg fname errs) es
  | Lang.If (c, t, e) ->
    expr_errors reg fname errs c;
    List.iter (stmt_errors reg p fname arities errs) t;
    List.iter (stmt_errors reg p fname arities errs) e
  | Lang.While (c, body) ->
    expr_errors reg fname errs c;
    List.iter (stmt_errors reg p fname arities errs) body

let func_shape_errors (f : Lang.func) errs =
  List.iter
    (fun x ->
      if bad_ident x then
        errs := Printf.sprintf "%s: bad parameter name %S" f.Lang.fname x :: !errs)
    f.Lang.params;
  List.iter
    (fun d -> errs := Printf.sprintf "%s: duplicate parameter %S" f.Lang.fname d :: !errs)
    (dup_names f.Lang.params);
  let rec stmts_return stmts =
    match List.rev stmts with [] -> false | last :: _ -> stmt_returns last
  and stmt_returns = function
    | Lang.Return _ -> true
    | Lang.If (_, t, e) -> stmts_return t && stmts_return e
    | Lang.While _ | Lang.Assign _ | Lang.Call_stmt _ -> false
  in
  if not (stmts_return f.Lang.body) then
    errs :=
      Printf.sprintf "%s: control can reach the end of the body without returning"
        f.Lang.fname
      :: !errs

(* Must-defined forward dataflow over one CFG function, on bitsets over
   its variables numbered once by [Var_index]. Blocks start at ⊤ (the
   entry at its parameters) and the fixpoint intersects over
   predecessors, so it is the greatest one; an unreachable block is
   [None]. *)
let must_defined (f : Cfg.func) vars =
  let n = Array.length f.Cfg.blocks in
  let succ i = Cfg.successors f.Cfg.blocks.(i).Cfg.term in
  (* defined_in.(i): variables surely defined on entry to block i. *)
  let defined_in = Array.init n (fun _ -> Var_index.full vars) in
  let defs =
    Array.init n (fun block ->
        let d = Var_index.empty vars in
        Array.iter (Var_index.add_all d) (Var_index.op_defs vars ~block);
        d)
  in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter (fun j -> preds.(j) <- i :: preds.(j)) (succ i)
  done;
  let reachable = Array.make n false in
  let rec visit i =
    if not reachable.(i) then begin
      reachable.(i) <- true;
      List.iter visit (succ i)
    end
  in
  if n > 0 then begin
    defined_in.(0) <- Var_index.empty vars;
    Var_index.add_all defined_in.(0) (Var_index.params vars);
    visit 0
  end;
  let inp = Var_index.empty vars in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      match preds.(i) with
      | [] -> ()  (* unreachable: keep ⊤ *)
      | ps ->
        Array.fill inp 0 (Array.length inp) (-1);
        List.iter
          (fun p ->
            for w = 0 to Array.length inp - 1 do
              inp.(w) <- inp.(w) land (defined_in.(p).(w) lor defs.(p).(w))
            done)
          ps;
        let cur = defined_in.(i) in
        for w = 0 to Array.length inp - 1 do
          if inp.(w) <> cur.(w) then begin
            cur.(w) <- inp.(w);
            changed := true
          end
        done
    done
  done;
  Array.mapi (fun i d -> if reachable.(i) then Some d else None) defined_in

let check_defined_before_use (f : Cfg.func) =
  let errs = ref [] in
  if Array.length f.Cfg.blocks = 0 then [ Printf.sprintf "%s: empty function" f.Cfg.name ]
  else begin
    let vars = Var_index.number f in
    let report ~where i defined uses =
      Array.iter
        (fun u ->
          if not (Var_index.mem defined u) then
            errs :=
              Printf.sprintf "%s: variable %S may be used before definition (%s%d)"
                f.Cfg.name (Var_index.name vars u) where i
              :: !errs)
        uses
    in
    Array.iteri
      (fun i -> function
        | None -> ()  (* dead blocks are never reported *)
        | Some defined_in ->
          let defined = Array.copy defined_in in
          Array.iteri
            (fun k uses ->
              report ~where:"block " i defined uses;
              Var_index.add_all defined (Var_index.op_defs vars ~block:i).(k))
            (Var_index.op_uses vars ~block:i);
          report ~where:"terminator of block " i defined (Var_index.term_uses vars ~block:i))
      (must_defined f vars);
    List.sort_uniq compare !errs
  end

(* Every check, returning on success the CFG the dataflow check ran on. *)
let check_lowered reg (p : Lang.program) =
  let errs = ref [] in
  (match Lang.find_func p p.Lang.main with
  | Some _ -> ()
  | None -> errs := Printf.sprintf "entry function %S not defined" p.Lang.main :: !errs);
  List.iter
    (fun d -> errs := Printf.sprintf "duplicate function name %S" d :: !errs)
    (dup_names (Lang.func_names p));
  List.iter
    (fun (f : Lang.func) ->
      if bad_ident f.Lang.fname then
        errs := Printf.sprintf "bad function name %S" f.Lang.fname :: !errs;
      func_shape_errors f errs)
    p.Lang.funcs;
  (* Return arities, where determinable. *)
  let arities =
    List.map
      (fun (f : Lang.func) ->
        match Lower_cfg.result_arity f with
        | n -> (f.Lang.fname, Some n)
        | exception Failure msg ->
          errs := msg :: !errs;
          (f.Lang.fname, None))
      p.Lang.funcs
  in
  List.iter
    (fun (f : Lang.func) ->
      List.iter (stmt_errors reg p f.Lang.fname arities errs) f.Lang.body)
    p.Lang.funcs;
  (* Only attempt lowering and the dataflow check when structurally sound. *)
  let cfg =
    if !errs <> [] then None
    else
      match Lower_cfg.lower p with
      | cfg ->
        List.iter
          (fun (_, f) -> errs := check_defined_before_use f @ !errs)
          cfg.Cfg.funcs;
        Some cfg
      | exception Failure msg ->
        errs := msg :: !errs;
        None
  in
  match (List.rev !errs, cfg) with
  | [], Some cfg -> Ok cfg
  | msgs, _ -> Error msgs

let check_program reg p = Result.map ignore (check_lowered reg p)

let lower_exn reg p =
  match check_lowered reg p with
  | Ok cfg -> cfg
  | Error msgs -> invalid_arg ("Validate: " ^ String.concat "; " msgs)

let check_exn reg p = ignore (lower_exn reg p)
