type exec_style = Masking | Gather_scatter | Adaptive of float

(* The style one block executes in: [Adaptive] resolves to one of these
   from the block's occupancy. *)
type block_style = Masked | Gathered

type config = {
  style : exec_style;
  sched : Sched_policy.t;
  engine : Engine.t option;
  max_steps : int;
  sink : Obs_sink.t option;
}

let default_config =
  {
    style = Masking;
    sched = Sched_policy.Earliest;
    engine = None;
    max_steps = 100_000_000;
    sink = None;
  }

let run_active ?(config = default_config) reg (p : Cfg.program) ~batch ~active =
  let z = Vm_util.batch_size ~who:"Local_vm" batch in
  if Array.length active <> z then
    invalid_arg "Local_vm: active mask length must equal the batch size";
  if Vm_util.count_mask active = 0 then
    invalid_arg "Local_vm: initial active set is empty";
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > config.max_steps then raise Ir_util.Step_limit_exceeded
  in
  (* Function-local cost tables for the table-driven policies, built on
     first entry per function (host recursion re-enters run_function for
     every batched call, so memoization matters). *)
  let tables_cache : (string, Sched_policy.tables) Hashtbl.t = Hashtbl.create 8 in
  let tables_for (f : Cfg.func) =
    if not (Sched_policy.needs_tables config.sched) then None
    else
      Some
        (match Hashtbl.find_opt tables_cache f.Cfg.name with
        | Some tb -> tb
        | None ->
          let tb = Sched_cost.func_tables p ~fn:f.Cfg.name in
          Hashtbl.replace tables_cache f.Cfg.name tb;
          tb)
  in
  (* [depth] counts the host frames down to this one (1 for the entry). *)
  let rec run_function (f : Cfg.func) ~depth args active =
    let base = Cfg.block_base p f.Cfg.name in
    let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
    if List.length f.Cfg.params <> List.length args then
      invalid_arg (Printf.sprintf "Local_vm: arity mismatch calling %s" f.Cfg.name);
    (* Bind parameters to copies: the frame writes into its variables in
       place, and an argument tensor belongs to the caller (or the user). *)
    List.iter2 (fun x v -> Hashtbl.replace env x (Tensor.copy v)) f.Cfg.params args;
    let nb = Array.length f.Cfg.blocks in
    let pc = Array.make z 0 in
    let counts = Array.make nb 0 in
    let last = ref (-1) in
    (* One batched write of [out] (full-width or gathered per style) into
       variable [dst] for the locally active members. *)
    let write_result style lmask members dst out =
      let full_shape =
        match style with
        | Masked -> Tensor.shape out
        | Gathered -> Shape.concat_outer z (Vm_util.elem_shape_of_batched out)
      in
      let cur =
        match Hashtbl.find_opt env dst with
        | Some cur when Shape.equal (Tensor.shape cur) full_shape -> cur
        | Some cur ->
          invalid_arg
            (Printf.sprintf "Local_vm: variable %s changes shape from %s to %s" dst
               (Shape.to_string (Tensor.shape cur))
               (Shape.to_string full_shape))
        | None ->
          let fresh = Tensor.zeros full_shape in
          Hashtbl.replace env dst fresh;
          fresh
      in
      match style with
      | Masked -> Tensor.blit_rows_masked ~mask:lmask ~src:out ~dst:cur
      | Gathered -> Tensor.blit_rows_indexed ~idx:members ~src:out ~dst:cur
    in
    let lookup v =
      match Hashtbl.find_opt env v with
      | Some t -> t
      | None -> invalid_arg (Printf.sprintf "Local_vm: undefined variable %s" v)
    in
    let rec vm_loop () =
      Array.fill counts 0 nb 0;
      let live = ref 0 in
      for b = 0 to z - 1 do
        if active.(b) && pc.(b) < nb then begin
          counts.(pc.(b)) <- counts.(pc.(b)) + 1;
          incr live
        end
      done;
      match Sched_policy.pick ?tables:(tables_for f) config.sched ~last:!last ~counts with
      | None -> ()
      | Some i ->
        tick ();
        let n_active = counts.(i) in
        (* Resolve the adaptive style per block from this block's
           occupancy; the rest of the step sees a concrete style. *)
        let style =
          match config.style with
          | Masking -> Masked
          | Gather_scatter -> Gathered
          | Adaptive threshold ->
            if float_of_int n_active < threshold *. float_of_int z then Gathered
            else Masked
        in
        let lanes = match style with Masked -> z | Gathered -> n_active in
        (* Events carry program-unique block ids ([Cfg.block_base]), so a
           profiler keeps the blocks of different functions apart. The
           occupancy event counts lanes live in *this* frame: during a
           host-recursion call, lanes outside the call are idle by
           construction, which is exactly the waste the profiler should
           see. It is also the runtime's only utilization report. *)
        (match config.sink with
        | None -> ()
        | Some sink ->
          let block = base + i in
          sink (Obs_sink.Step { shard = 0; step = !steps; block });
          sink
            (Obs_sink.Occupancy
               {
                 shard = 0;
                 step = !steps;
                 block;
                 active = n_active;
                 live = !live;
                 total = z;
                 width = lanes;
                 depth;
               }));
        last := i;
        let lmask = Array.init z (fun b -> active.(b) && pc.(b) = i) in
        let members = Vm_util.indices_of_mask lmask in
        let charged_ops = ref [] in
        let traffic = ref 0. in
        let charge_write row =
          traffic :=
            !traffic
            +.
            match style with
            | Masked -> Vm_util.masked_write_bytes ~lanes:z ~row
            | Gathered -> Vm_util.stack_move_bytes ~lanes:n_active ~row
        in
        let block = f.Cfg.blocks.(i) in
        List.iter
          (fun (op : Cfg.op) ->
            match op with
            | Cfg.Prim_op { dst; prim; args } ->
              let impl = Prim.find_exn reg prim in
              let arg_tensors =
                match style with
                | Masked -> List.map lookup args
                | Gathered ->
                  List.iter
                    (fun a ->
                      traffic :=
                        !traffic
                        +. Vm_util.stack_move_bytes ~lanes:n_active
                             ~row:(Tensor.row_numel (lookup a)))
                    args;
                  List.map (fun a -> Tensor.take_rows (lookup a) members) args
              in
              (* Member identities for the RNG primitives: every lane
                 when masking, the gathered rows' lanes otherwise. *)
              let row_members =
                match style with
                | Masked -> Array.init z Fun.id
                | Gathered -> members
              in
              let out = impl.Prim.batched ~members:row_members arg_tensors in
              let elem_shapes = List.map Vm_util.elem_shape_of_batched arg_tensors in
              charged_ops :=
                (prim, impl.Prim.flops elem_shapes *. float_of_int lanes) :: !charged_ops;
              charge_write (Tensor.row_numel out);
              write_result style lmask members dst out
            | Cfg.Const_op { dst; value } ->
              let out =
                match style with
                | Masked -> Tensor.broadcast_rows value z
                | Gathered -> Tensor.broadcast_rows value n_active
              in
              charged_ops :=
                ("const", float_of_int (Tensor.numel value * lanes)) :: !charged_ops;
              charge_write (Tensor.numel value);
              write_result style lmask members dst out
            | Cfg.Mov { dst; src } ->
              let out =
                match style with
                | Masked -> lookup src
                | Gathered -> Tensor.take_rows (lookup src) members
              in
              charged_ops :=
                ("mov", float_of_int (Tensor.row_numel out * lanes)) :: !charged_ops;
              charge_write (Tensor.row_numel out);
              write_result style lmask members dst out
            | Cfg.Call_op { dsts; func; args } ->
              let callee = Cfg.find_func_exn p func in
              Option.iter Engine.charge_host_call config.engine;
              let arg_tensors = List.map lookup args in
              let results = run_function callee ~depth:(depth + 1) arg_tensors lmask in
              List.iter2
                (fun dst out ->
                  charge_write (Tensor.row_numel out);
                  write_result style lmask members dst
                    (match style with
                    | Masked -> out
                    | Gathered -> Tensor.take_rows out members))
                dsts results)
          block.Cfg.ops;
        (* Terminator: update the locally active members' program counters. *)
        let control_ops = ref 1 in
        (match block.Cfg.term with
        | Cfg.Jump j -> Array.iter (fun b -> pc.(b) <- j) members
        | Cfg.Branch { cond; if_true; if_false } ->
          incr control_ops;
          let cv = lookup cond in
          let data = Tensor.data cv in
          Array.iter
            (fun b -> pc.(b) <- (if data.(b) <> 0. then if_true else if_false))
            members
        | Cfg.Return -> Array.iter (fun b -> pc.(b) <- nb) members);
        Option.iter
          (fun eng ->
            Engine.charge_block eng ~ops:(List.rev !charged_ops)
              ~control_ops:!control_ops ~traffic_bytes:!traffic)
          config.engine;
        vm_loop ()
    in
    vm_loop ();
    List.map lookup f.Cfg.result_vars
  in
  run_function (Cfg.entry_func p) ~depth:1 batch active

let run ?config reg p ~batch =
  let z = Vm_util.batch_size ~who:"Local_vm" batch in
  run_active ?config reg p ~batch ~active:(Array.make z true)
