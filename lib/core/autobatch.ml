type compiled = {
  source : Lang.program;
  registry : Prim.registry;
  cfg : Cfg.program;
  stack : Stack_ir.program;
  fuse : Fuse.report option;
  pool_template : Pc_vm.Lanes.template Lazy.t;
}

let compile ?registry ?options ?(optimize = false) ?fuse ~input_shapes
    (source : Lang.program) =
  let registry = match registry with Some r -> r | None -> Prim.standard () in
  let cfg = Validate.lower_exn registry source in
  (* Fusion implies optimization: the post-fusion Optimize.run is what
     lets fold/CSE/DCE work across the old block boundaries. *)
  let optimize = optimize || Option.is_some fuse in
  let cfg = if optimize then Optimize.run registry cfg else cfg in
  let cfg, staged =
    match fuse with
    | None -> (cfg, None)
    | Some fopts ->
      let cfg, staged = Fuse.apply_cfg ~options:fopts registry cfg in
      (Optimize.run registry cfg, Some staged)
  in
  let shapes = Shape_infer.infer registry cfg ~inputs:input_shapes in
  let stack = Lower_stack.lower ?options ~shapes cfg in
  let stack, fuse_report =
    match staged with
    | None -> (stack, None)
    | Some staged ->
      let stack, report = Fuse.apply_stack staged stack in
      (stack, Some report)
  in
  (* The pool template is built on the first run, not here: a serving
     miss compiles on the request path, and a program that never reaches
     the pc VM never needs one. *)
  { source; registry; cfg; stack; fuse = fuse_report;
    pool_template = lazy (Pc_vm.Lanes.template stack) }

let template c = Lazy.force c.pool_template

let run_local ?config c ~batch = Local_vm.run ?config c.registry c.cfg ~batch
let run_pc ?config c ~batch = Pc_vm.run_template ?config c.registry (template c) ~batch

let run_sharded ?config c ~batch = Sched_vm.run ?config c.registry c.stack ~batch

let run_single ?max_steps c ~member ~args =
  Interp.run ?max_steps c.registry c.source ~member ~args

(* Wrap every primitive's single-example implementation so each execution
   is priced as one eagerly dispatched kernel. *)
let charging_registry engine reg =
  let wrapped = Prim.create_registry () in
  List.iter
    (fun name ->
      let p = Prim.find_exn reg name in
      Prim.register wrapped
        {
          p with
          Prim.single =
            (fun ~member args ->
              let elem_shapes = List.map Tensor.shape args in
              Engine.charge_kernel engine ~name ~flops:(p.Prim.flops elem_shapes);
              p.Prim.single ~member args);
        })
    (Prim.names reg);
  wrapped

let run_unbatched ?engine c ~batch =
  let reg =
    match engine with None -> c.registry | Some e -> charging_registry e c.registry
  in
  let z = Vm_util.batch_size ~who:"Autobatch.run_unbatched" batch in
  let per_member =
    List.init z (fun b ->
        let args = List.map (fun t -> Tensor.slice_row t b) batch in
        Interp.run reg c.source ~member:b ~args)
  in
  match per_member with
  | [] -> []
  | first :: _ ->
    List.mapi (fun i _ -> Tensor.stack_rows (List.map (fun r -> List.nth r i) per_member)) first
