type table = { header : string list; rows : string list list }

let nuts_setup ~dim ~seed =
  let model = Gaussian_model.model ~dim () in
  let reg, _key = Nuts_dsl.setup ~seed ~model () in
  let q0 = Tensor.zeros [| dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  (model, reg, prog, q0, eps)

let masking_vs_gather ?(dim = 50) ?(batch = 32) ?(n_iter = 3)
    ?(seed = 0x5EEDL) () =
  let model, reg, prog, q0, eps = nuts_setup ~dim ~seed in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch_inputs = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch () in
  let rows =
    List.map
      (fun (name, style) ->
        let engine = Engine.create ~device:Device.cpu ~mode:Engine.Eager () in
        let prof = Obs_prof.create () in
        let config =
          {
            Local_vm.default_config with
            style;
            engine = Some engine;
            sink = Some (Obs_prof.sink prof);
          }
        in
        ignore (Autobatch.run_local ~config compiled ~batch:batch_inputs);
        let c = (Engine.snapshot engine).Engine.at in
        let { Profile.useful; issued; _ } =
          Profile.(prim (derive (local_ops compiled.Autobatch.cfg) prof) "grad")
        in
        [
          name;
          Printf.sprintf "%.4f" (Engine.elapsed engine);
          Table.si c.Engine.Counters.flops;
          Table.si c.Engine.Counters.traffic_bytes;
          string_of_int useful;
          string_of_int issued;
          Printf.sprintf "%.3f" (float_of_int useful /. float_of_int (max 1 issued));
        ])
      [
        ("masking", Local_vm.Masking);
        ("gather-scatter", Local_vm.Gather_scatter);
        ("adaptive-0.5", Local_vm.Adaptive 0.5);
      ]
  in
  {
    header =
      [ "style"; "sim-seconds"; "flops"; "traffic-B"; "useful-grads"; "issued-grads";
        "grad-util" ];
    rows;
  }

let schedulers ?(dim = 50) ?(batch = 32) ?(n_iter = 3) ?(seed = 0x5EEDL) () =
  let model, reg, prog, q0, eps = nuts_setup ~dim ~seed in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch_inputs = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch () in
  let ops = Profile.pc_ops compiled.Autobatch.stack in
  let rows =
    List.map
      (fun sched ->
        let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
        let prof = Obs_prof.create () in
        let config =
          {
            Pc_vm.default_config with
            sched;
            engine = Some engine;
            sink = Some (Obs_prof.sink prof);
          }
        in
        ignore (Autobatch.run_pc ~config compiled ~batch:batch_inputs);
        [
          Sched_policy.to_string sched;
          Printf.sprintf "%.4f" (Engine.elapsed engine);
          string_of_int (Obs_prof.supersteps prof);
          Printf.sprintf "%.3f" (Obs_prof.utilization prof);
          Printf.sprintf "%.3f"
            Profile.(lane_utilization (prim (derive ops prof) "grad"));
        ])
      Sched_policy.all
  in
  {
    header = [ "scheduler"; "sim-seconds"; "blocks"; "overall-util"; "grad-util" ];
    rows;
  }

let stack_optimizations ?(dim = 50) ?(batch = 32) ?(n_iter = 3)
    ?(seed = 0x5EEDL) () =
  let model, reg, prog, q0, eps = nuts_setup ~dim ~seed in
  let input_shapes = Nuts_dsl.input_shapes ~model in
  let batch_inputs = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch () in
  let variants =
    [
      ("all-opts", Lower_stack.default_options, Pc_vm.default_config);
      ( "no-temporaries (O2)",
        { Lower_stack.default_options with detect_temporaries = false },
        Pc_vm.default_config );
      ( "no-save-liveness (O3)",
        { Lower_stack.default_options with save_live_only = false },
        Pc_vm.default_config );
      ( "no-top-cache (O4)",
        Lower_stack.default_options,
        { Pc_vm.default_config with top_cache = false } );
      ( "naive-writes (O5)",
        Lower_stack.default_options,
        { Pc_vm.default_config with naive_stack_writes = true } );
    ]
  in
  let rows =
    List.map
      (fun (name, options, base_config) ->
        let compiled = Autobatch.compile ~registry:reg ~options ~input_shapes prog in
        let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
        let prof = Obs_prof.create () in
        let config =
          { base_config with Pc_vm.engine = Some engine; sink = Some (Obs_prof.sink prof) }
        in
        ignore (Autobatch.run_pc ~config compiled ~batch:batch_inputs);
        let temps, masked, stacked = Stack_ir.stats compiled.Autobatch.stack in
        let c = (Engine.snapshot engine).Engine.at in
        let derived = Profile.derive (Profile.pc_ops compiled.Autobatch.stack) prof in
        [
          name;
          Printf.sprintf "%d/%d/%d" temps masked stacked;
          string_of_int derived.Profile.pushes;
          string_of_int (Obs_prof.max_depth prof);
          Table.si c.Engine.Counters.traffic_bytes;
          Printf.sprintf "%.4f" (Engine.elapsed engine);
        ])
      variants
  in
  {
    header =
      [ "variant"; "temp/masked/stacked"; "pushes"; "max-depth"; "traffic-B";
        "sim-seconds" ];
    rows;
  }

let print ppf ~title t =
  Format.fprintf ppf "%s@." title;
  Table.print ~header:t.header ~rows:t.rows ppf
