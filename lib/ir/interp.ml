exception Return_values of Tensor.t list

let truthy t =
  if Tensor.numel t <> 1 then
    invalid_arg
      (Printf.sprintf "Interp: condition must be a one-element tensor, got shape %s"
         (Shape.to_string (Tensor.shape t)));
  Tensor.item t <> 0.

let run ?(max_steps = 1_000_000) reg (p : Lang.program) ~member ~args =
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > max_steps then raise Ir_util.Step_limit_exceeded
  in
  let rec eval_expr env (e : Lang.expr) : Tensor.t =
    match e with
    | Lang.Var x -> (
      match Hashtbl.find_opt env x with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Interp: undefined variable %S" x))
    | Lang.Const v -> Tensor.scalar v
    | Lang.Vec a -> Tensor.of_array [| Array.length a |] a
    | Lang.Prim (name, arg_exprs) ->
      let prim = Prim.find_exn reg name in
      let arg_vals = List.map (eval_expr env) arg_exprs in
      prim.Prim.single ~member arg_vals
  and exec_stmts env stmts = List.iter (exec_stmt env) stmts
  and exec_stmt env (s : Lang.stmt) =
    tick ();
    match s with
    | Lang.Assign (x, e) -> Hashtbl.replace env x (eval_expr env e)
    | Lang.Call_stmt (dsts, callee, arg_exprs) ->
      let arg_vals = List.map (eval_expr env) arg_exprs in
      let results = call callee arg_vals in
      if List.length results <> List.length dsts then
        invalid_arg
          (Printf.sprintf "Interp: call to %S returned %d values for %d destinations"
             callee (List.length results) (List.length dsts));
      List.iter2 (Hashtbl.replace env) dsts results
    | Lang.Return es -> raise (Return_values (List.map (eval_expr env) es))
    | Lang.If (c, t, e) ->
      if truthy (eval_expr env c) then exec_stmts env t else exec_stmts env e
    | Lang.While (c, body) ->
      while truthy (eval_expr env c) do
        tick ();
        exec_stmts env body
      done
  and call fname arg_vals =
    let f =
      match Lang.find_func p fname with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Interp: unknown function %S" fname)
    in
    if List.length f.Lang.params <> List.length arg_vals then
      invalid_arg (Printf.sprintf "Interp: arity mismatch calling %S" fname);
    let env = Hashtbl.create 16 in
    List.iter2 (Hashtbl.replace env) f.Lang.params arg_vals;
    match exec_stmts env f.Lang.body with
    | () -> failwith (Printf.sprintf "Interp: function %S fell off the end" fname)
    | exception Return_values vs -> vs
  in
  call p.Lang.main args
