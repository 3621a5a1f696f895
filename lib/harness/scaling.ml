type scale = {
  dim : int;
  per_device : int;
  total : int;
  n_iter : int;
  devices : int list;
  link : Mesh.link;
  collective : Collectives.algorithm;
  seed : int64;
}

let default_scale =
  {
    dim = 20;
    per_device = 16;
    total = 64;
    n_iter = 2;
    devices = [ 1; 2; 4; 8 ];
    link = Mesh.nvlink;
    collective = Collectives.Ring;
    seed = 0x5EEDL;
  }

type point = {
  series : [ `Weak | `Strong ];
  devices : int;
  batch : int;
  useful_grads : int;
  compute_time : float;
  collective_time : float;
  sim_time : float;
  grads_per_sec : float;
  speedup : float;
  efficiency : float;
  wall_seconds : float;
  shard_times : float array;
}

let series_name = function `Weak -> "weak" | `Strong -> "strong"

let run ?(scale = default_scale) () =
  let model = Gaussian_model.model ~dim:scale.dim () in
  let reg, _key = Nuts_dsl.setup ~seed:scale.seed ~model () in
  let q0 = Tensor.zeros [| scale.dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let pc_ops = Profile.pc_ops compiled.Autobatch.stack in
  let measure series ~devices ~z =
    let mesh = Mesh.create ~device:Device.gpu ~link:scale.link ~n:devices () in
    let config =
      {
        Sched_vm.default_config with
        plan = Sched_plan.off;
        mesh;
        mode = Some Engine.Fused;
        collective = scale.collective;
      }
    in
    let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter:scale.n_iter ~n_burn:0 ~batch:z () in
    let prof = Obs_prof.create () in
    let config = { config with Sched_vm.sink = Some (Obs_prof.sink prof) } in
    let t0 = Unix.gettimeofday () in
    let r = Autobatch.run_sharded ~config compiled ~batch in
    let wall = Unix.gettimeofday () -. t0 in
    let useful = (Profile.prim (Profile.derive pc_ops prof) "grad").useful in
    {
      series;
      devices;
      batch = z;
      useful_grads = useful;
      compute_time = r.Sched_vm.compute_time;
      collective_time = r.Sched_vm.collective_time;
      sim_time = r.Sched_vm.sim_time;
      grads_per_sec =
        (if r.Sched_vm.sim_time > 0. then
           float_of_int useful /. r.Sched_vm.sim_time
         else Float.nan);
      speedup = 1.;
      efficiency = 1.;
      wall_seconds = wall;
      shard_times = r.Sched_vm.shard_times;
    }
  in
  let devices = List.sort_uniq compare scale.devices in
  let finish series points =
    (* Weak scaling grows the problem with the mesh, so the honest figure
       of merit is throughput relative to one device; strong scaling fixes
       the problem, so it is the plain time ratio. *)
    match points with
    | [] -> []
    | base :: _ ->
      List.map
        (fun p ->
          let speedup =
            match series with
            | `Strong ->
              if p.sim_time > 0. then base.sim_time /. p.sim_time else Float.nan
            | `Weak ->
              if base.grads_per_sec > 0. then p.grads_per_sec /. base.grads_per_sec
              else Float.nan
          in
          { p with speedup; efficiency = speedup /. float_of_int p.devices })
        points
  in
  let weak =
    finish `Weak
      (List.map (fun n -> measure `Weak ~devices:n ~z:(scale.per_device * n)) devices)
  in
  let strong =
    finish `Strong (List.map (fun n -> measure `Strong ~devices:n ~z:scale.total) devices)
  in
  weak @ strong

let points_of ps series = List.filter (fun p -> p.series = series) ps

let to_csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "series,devices,batch,useful_grads,compute_time,collective_time,sim_time,\
     grads_per_sec,speedup,efficiency\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%.9g,%.9g,%.9g,%.9g,%.4f,%.4f\n"
           (series_name p.series) p.devices p.batch p.useful_grads p.compute_time
           p.collective_time p.sim_time p.grads_per_sec p.speedup p.efficiency))
    points;
  Buffer.contents buf

let to_json points =
  Obs_json.List
    (List.map
       (fun p ->
         Obs_json.Obj
           [
             ("series", Obs_json.Str (series_name p.series));
             ("devices", Obs_json.Int p.devices);
             ("batch", Obs_json.Int p.batch);
             ("useful_grads", Obs_json.Int p.useful_grads);
             ("compute_time", Obs_json.Float p.compute_time);
             ("collective_time", Obs_json.Float p.collective_time);
             ("sim_time", Obs_json.Float p.sim_time);
             ("grads_per_sec", Obs_json.Float p.grads_per_sec);
             ("speedup", Obs_json.Float p.speedup);
             ("efficiency", Obs_json.Float p.efficiency);
             ("wall_seconds", Obs_json.Float p.wall_seconds);
             ( "shard_times",
               Obs_json.List
                 (Array.to_list
                    (Array.map (fun t -> Obs_json.Float t) p.shard_times)) );
           ])
       points)

let print_series title points =
  print_endline title;
  Table.print_stdout
    ~header:
      [
        "devices"; "chains"; "grads"; "compute-s"; "collective-s"; "sim-s";
        "grads/s"; "speedup"; "efficiency"; "wall-s";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.devices;
             string_of_int p.batch;
             string_of_int p.useful_grads;
             Printf.sprintf "%.3g" p.compute_time;
             Printf.sprintf "%.3g" p.collective_time;
             Printf.sprintf "%.3g" p.sim_time;
             Table.si p.grads_per_sec;
             Printf.sprintf "%.2f" p.speedup;
             Printf.sprintf "%.2f" p.efficiency;
             Printf.sprintf "%.3f" p.wall_seconds;
           ])
         points)

let print points =
  print_series
    "Figure 7a: weak scaling (chains per device fixed; speedup = throughput vs 1 device)"
    (points_of points `Weak);
  print_newline ();
  print_series
    "Figure 7b: strong scaling (total chains fixed; speedup = simulated-time ratio)"
    (points_of points `Strong)
