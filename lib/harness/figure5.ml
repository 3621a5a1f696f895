type scale = {
  n_data : int;
  dim : int;
  batch_sizes : int list;
  n_iter : int;
  seed : int64;
}

let default_scale =
  {
    n_data = 500;
    dim = 30;
    batch_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ];
    n_iter = 2;
    seed = 0x5EEDL;
  }

let paper_scale =
  {
    n_data = 10_000;
    dim = 100;
    batch_sizes = [ 1; 4; 16; 64; 256; 1024; 4096 ];
    n_iter = 2;
    seed = 0x5EEDL;
  }

type point = {
  strategy : string;
  batch : int;
  policy : string;
  useful_grads : int;
  sim_seconds : float;
  grads_per_sec : float;
}

let strategies =
  [
    "pc-xla-gpu";
    "pc-xla-cpu";
    "local-eager-gpu";
    "local-eager-cpu";
    "hybrid-gpu";
    "hybrid-cpu";
    "eager-unbatched";
    "stan";
  ]

let mk_point ~policy strategy batch useful sim =
  {
    strategy;
    batch;
    policy;
    useful_grads = useful;
    sim_seconds = sim;
    grads_per_sec = (if sim > 0. then float_of_int useful /. sim else Float.nan);
  }

let run ?(scale = default_scale) ?trace ?fuse ?(policy = Sched_policy.Earliest) () =
  let policy_name = Sched_policy.to_string policy in
  let model =
    Logistic_model.model ~seed:scale.seed ~n:scale.n_data ~dim:scale.dim ()
  in
  let reg, _key = Nuts_dsl.setup ~seed:scale.seed ~model () in
  let q0 = Tensor.zeros [| scale.dim |] in
  (* Warm, tuned step size (dual averaging toward 0.8 acceptance), as the
     paper measures a warm run of a tuned sampler. *)
  let eps0 = Nuts.find_reasonable_eps ~model ~q0 () in
  let eps =
    Hmc.warmup_eps ~target_accept:0.8 ~n_warmup:200
      ~stream:(Splitmix.Stream.create scale.seed) ~model ~q0 ~eps0 ~n_leapfrog:4 ()
  in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ?fuse
      ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let inputs z = Nuts_dsl.inputs ~q0 ~eps ~n_iter:scale.n_iter ~n_burn:0 ~batch:z () in
  let pc_ops = Profile.pc_ops compiled.Autobatch.stack
  and local_ops = Profile.local_ops compiled.Autobatch.cfg in
  let points = ref [] in
  let emit p = points := p :: !points in
  (* Tracing is bounded: one track per strategy, at the smallest batch size
     of the sweep (the trace is about VM/engine behavior, not the axis).
     The sink doubles as the engine's, so kernel/fused-launch spans land on
     the same track as the superstep spans. *)
  let traced_z = List.fold_left min max_int scale.batch_sizes in
  let tracing name z engine =
    match trace with
    | Some tr when z = traced_z ->
      let track = Obs_trace.track tr (Printf.sprintf "%s/z%d" name z) in
      let sink = Obs_trace.sink tr ~track ~clock:(fun () -> Engine.elapsed engine) in
      Engine.set_sink engine sink;
      Some sink
    | _ -> None
  in
  (* Batched strategies: one real execution per (strategy, batch size).
     Useful gradients are read off a profiler on the VM sink. *)
  let observed name z engine =
    let prof = Obs_prof.create () in
    let traced = Option.to_list (tracing name z engine) in
    (prof, Some (Obs_sink.fanout (Obs_prof.sink prof :: traced)))
  in
  let point name z ops prof engine =
    let useful = (Profile.prim (Profile.derive ops prof) "grad").useful in
    emit (mk_point ~policy:policy_name name z useful (Engine.elapsed engine))
  in
  let pc_strategy name device z =
    let engine = Engine.create ~device ~mode:Engine.Fused () in
    let prof, sink = observed name z engine in
    let config =
      { Pc_vm.default_config with sched = policy; engine = Some engine; sink }
    in
    ignore (Autobatch.run_pc ~config compiled ~batch:(inputs z));
    point name z pc_ops prof engine
  in
  let local_strategy name device mode z =
    let engine = Engine.create ~device ~mode () in
    let prof, sink = observed name z engine in
    let config =
      { Local_vm.default_config with sched = policy; engine = Some engine; sink }
    in
    ignore (Autobatch.run_local ~config compiled ~batch:(inputs z));
    point name z local_ops prof engine
  in
  List.iter
    (fun z ->
      pc_strategy "pc-xla-gpu" Device.gpu z;
      pc_strategy "pc-xla-cpu" Device.cpu z;
      local_strategy "local-eager-gpu" Device.gpu Engine.Eager z;
      local_strategy "local-eager-cpu" Device.cpu Engine.Eager z;
      local_strategy "hybrid-gpu" Device.gpu Engine.Hybrid z;
      local_strategy "hybrid-cpu" Device.cpu Engine.Hybrid z)
    scale.batch_sizes;
  (* Flat baselines: throughput independent of batch size, measured once
     at batch 1 and replicated across the axis. *)
  let flat name device =
    (* A few members, to average trajectory-length variation; every
       reference gradient is useful (no synchronization waste). *)
    let engine = Engine.create ~device ~mode:Engine.Eager () in
    ignore (tracing name traced_z engine);
    ignore (Autobatch.run_unbatched ~engine compiled ~batch:(inputs 4));
    let tally = (Engine.snapshot engine).Engine.ops in
    let grads = Option.value ~default:0 (List.assoc_opt "grad" tally) in
    let sim = Engine.elapsed engine in
    List.iter (fun z -> emit (mk_point ~policy:policy_name name z grads sim)) scale.batch_sizes
  in
  flat "eager-unbatched" Device.gpu;
  flat "stan" Device.stan_cpu;
  List.rev !points

let rate points ~strategy ~batch =
  List.find_opt (fun p -> p.strategy = strategy && p.batch = batch) points
  |> Option.map (fun p -> p.grads_per_sec)

let to_csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "strategy,batch,useful_grads,sim_seconds,grads_per_sec,policy\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%.9g,%.9g,%s\n" p.strategy p.batch
           p.useful_grads p.sim_seconds p.grads_per_sec p.policy))
    points;
  Buffer.contents buf

let to_json points =
  Obs_json.List
    (List.map
       (fun p ->
         Obs_json.Obj
           [
             ("strategy", Obs_json.Str p.strategy);
             ("batch", Obs_json.Int p.batch);
             ("policy", Obs_json.Str p.policy);
             ("useful_grads", Obs_json.Int p.useful_grads);
             ("sim_seconds", Obs_json.Float p.sim_seconds);
             ("grads_per_sec", Obs_json.Float p.grads_per_sec);
           ])
       points)

let print ppf points =
  let batches =
    List.sort_uniq compare (List.map (fun p -> p.batch) points)
  in
  let header = "batch" :: strategies in
  let rows =
    List.map
      (fun z ->
        string_of_int z
        :: List.map
             (fun s ->
               match rate points ~strategy:s ~batch:z with
               | Some r -> Table.si r
               | None -> "-")
             strategies)
      batches
  in
  Format.fprintf ppf "%s@."
    "Figure 5: NUTS throughput on Bayesian logistic regression (useful gradient \
     evaluations per simulated second)";
  Table.print ~header ~rows ppf
