open Ir_util

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error ("Shape_infer: " ^ s))) fmt

let infer reg (p : Cfg.program) ~inputs =
  let shapes = ref Smap.empty in
  let changed = ref false in
  let lookup v = Smap.find_opt v !shapes in
  let assign v s =
    match lookup v with
    | None ->
      shapes := Smap.add v s !shapes;
      changed := true
    | Some s0 ->
      if not (Shape.equal s0 s) then
        err "conflicting shapes for %s: %s vs %s" v (Shape.to_string s0)
          (Shape.to_string s)
  in
  let entry = Cfg.entry_func p in
  if List.length entry.Cfg.params <> List.length inputs then
    err "entry %s wants %d inputs, got %d" entry.Cfg.name
      (List.length entry.Cfg.params) (List.length inputs);
  List.iter2 assign entry.Cfg.params inputs;
  let process_op fname op =
    match op with
    | Cfg.Const_op { dst; value } -> assign dst (Tensor.shape value)
    | Cfg.Mov { dst; src } -> Option.iter (assign dst) (lookup src)
    | Cfg.Prim_op { dst; prim; args } -> (
      match List.map lookup args with
      | arg_shapes when List.for_all Option.is_some arg_shapes ->
        let arg_shapes = List.map Option.get arg_shapes in
        let prim_impl = Prim.find_exn reg prim in
        (match prim_impl.Prim.shape arg_shapes with
        | s -> assign dst s
        | exception Prim.Shape_error msg -> err "in %s: %s" fname msg)
      | _ -> ())
    | Cfg.Call_op { dsts; func; args } -> (
      let callee = Cfg.find_func_exn p func in
      if List.length callee.Cfg.params <> List.length args then
        err "call to %s from %s: arity mismatch" func fname;
      if List.length callee.Cfg.result_vars <> List.length dsts then
        err "call to %s from %s: result count mismatch" func fname;
      List.iter2
        (fun param arg -> Option.iter (assign param) (lookup arg))
        callee.Cfg.params args;
      List.iter2
        (fun dst ret -> Option.iter (assign dst) (lookup ret))
        dsts callee.Cfg.result_vars)
  in
  let process_func (fname, (f : Cfg.func)) =
    Array.iter
      (fun (b : Cfg.block) ->
        List.iter (process_op fname) b.Cfg.ops;
        match b.Cfg.term with
        | Cfg.Branch { cond; _ } -> (
          match lookup cond with
          | Some s when Shape.rank s > 0 ->
            err "branch condition %s in %s has non-scalar shape %s" cond fname
              (Shape.to_string s)
          | Some _ | None -> ())
        | Cfg.Jump _ | Cfg.Return -> ())
      f.Cfg.blocks
  in
  let rec fixpoint () =
    changed := false;
    List.iter process_func p.Cfg.funcs;
    if !changed then fixpoint ()
  in
  fixpoint ();
  !shapes
