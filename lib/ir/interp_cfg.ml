let run ?(max_steps = 1_000_000) reg (p : Cfg.program) ~member ~args =
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > max_steps then raise Ir_util.Step_limit_exceeded
  in
  let rec call (f : Cfg.func) arg_values =
    if List.length f.Cfg.params <> List.length arg_values then
      invalid_arg (Printf.sprintf "Interp_cfg: arity mismatch calling %s" f.Cfg.name);
    let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
    List.iter2 (Hashtbl.replace env) f.Cfg.params arg_values;
    let lookup v =
      match Hashtbl.find_opt env v with
      | Some t -> t
      | None -> invalid_arg (Printf.sprintf "Interp_cfg: undefined variable %s" v)
    in
    let rec block i =
      tick ();
      let b = f.Cfg.blocks.(i) in
      List.iter
        (fun (op : Cfg.op) ->
          match op with
          | Cfg.Prim_op { dst; prim; args } ->
            let impl = Prim.find_exn reg prim in
            Hashtbl.replace env dst (impl.Prim.single ~member (List.map lookup args))
          | Cfg.Const_op { dst; value } -> Hashtbl.replace env dst value
          | Cfg.Mov { dst; src } -> Hashtbl.replace env dst (lookup src)
          | Cfg.Call_op { dsts; func; args } ->
            let callee = Cfg.find_func_exn p func in
            let results = call callee (List.map lookup args) in
            List.iter2 (Hashtbl.replace env) dsts results)
        b.Cfg.ops;
      match b.Cfg.term with
      | Cfg.Jump j -> block j
      | Cfg.Branch { cond; if_true; if_false } ->
        let c = lookup cond in
        if Tensor.numel c <> 1 then
          invalid_arg "Interp_cfg: condition must be a one-element tensor";
        block (if Tensor.item c <> 0. then if_true else if_false)
      | Cfg.Return -> List.map lookup f.Cfg.result_vars
    in
    block 0
  in
  call (Cfg.entry_func p) args
