type point = { batch : int; local_util : float; pc_util : float }

type stats = {
  policy : string;
  points : point list;
  mean_grads_per_trajectory : float;
  max_grads_per_trajectory : float;
  pc_occupancy : (int * float) list;
  pc_mean_occupancy : float;
}

let run ?(dim = 100) ?(rho = 0.7) ?(batch_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ])
    ?(n_iter = 10) ?(seed = 0x5EEDL) ?fuse ?(policy = Sched_policy.Earliest) () =
  let model = Gaussian_model.model ~rho ~dim () in
  let reg, key = Nuts_dsl.setup ~seed ~model () in
  let q0 = Tensor.zeros [| dim |] in
  (* A warm, tuned sampler as in the paper: dual-averaged step size
     targeting 0.8 acceptance (initialized by Algorithm 4). At this
     operating point NUTS genuinely varies its trajectory lengths, which
     is the whole phenomenon Figure 6 measures. *)
  let eps0 = Nuts.find_reasonable_eps ~model ~q0 () in
  let eps =
    Hmc.warmup_eps ~target_accept:0.8 ~n_warmup:300
      ~stream:(Splitmix.Stream.create seed) ~model ~q0 ~eps0 ~n_leapfrog:4 ()
  in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ?fuse
      ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let inputs z = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:z () in
  (* Each run reports through a profiler on its VM sink; the gradient
     utilization is derived from its per-block rows. *)
  let profiled ops run =
    let prof = Obs_prof.create () in
    ignore (run (Some (Obs_prof.sink prof)));
    (prof, Profile.(lane_utilization (prim (derive ops prof) "grad")))
  in
  let pc_ops = Profile.pc_ops compiled.Autobatch.stack
  and local_ops = Profile.local_ops compiled.Autobatch.cfg in
  (* Keep the program-counter profiler of the widest run: its live-lane
     gauge is the occupancy time series the --stats flag reports. *)
  let widest = ref None in
  let points =
    List.map
      (fun z ->
        let _, local_util =
          profiled local_ops (fun sink ->
              let config = { Local_vm.default_config with sched = policy; sink } in
              Autobatch.run_local ~config compiled ~batch:(inputs z))
        in
        let pc_prof, pc_util =
          profiled pc_ops (fun sink ->
              let config = { Pc_vm.default_config with sched = policy; sink } in
              Autobatch.run_pc ~config compiled ~batch:(inputs z))
        in
        (match !widest with
        | Some (z0, _) when z0 >= z -> ()
        | _ -> widest := Some (z, pc_prof));
        { batch = z; local_util; pc_util })
      batch_sizes
  in
  let pc_occupancy, pc_mean_occupancy =
    match !widest with
    | Some (_, prof) -> (Obs_prof.occupancy_series prof, Obs_prof.mean_occupancy prof)
    | None -> ([], 1.)
  in
  (* Trajectory-length statistics from reference chains. *)
  let n_chains = 32 in
  let grads_per_traj = ref [] in
  for member = 0 to n_chains - 1 do
    let q = ref q0 and cnt = ref 0 in
    for _ = 1 to n_iter do
      let counting, grads = Model.with_grad_counter model in
      let q', cnt', _depth =
        Nuts.trajectory cfg ~model:counting ~key ~member ~q:!q ~counter:!cnt
      in
      q := q';
      cnt := cnt';
      grads_per_traj := float_of_int !grads :: !grads_per_traj
    done
  done;
  let grads = Array.of_list !grads_per_traj in
  {
    policy = Sched_policy.to_string policy;
    points;
    mean_grads_per_trajectory = Diagnostics.mean grads;
    max_grads_per_trajectory = Array.fold_left Float.max 0. grads;
    pc_occupancy;
    pc_mean_occupancy;
  }

let to_csv stats =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "batch,local_util,pc_util,policy\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.6f,%.6f,%s\n" p.batch p.local_util p.pc_util
           stats.policy))
    stats.points;
  Buffer.add_string buf
    (Printf.sprintf "# grads/trajectory mean=%.3f max=%.3f\n"
       stats.mean_grads_per_trajectory stats.max_grads_per_trajectory);
  Buffer.contents buf

let to_json stats =
  Obs_json.Obj
    [
      ("policy", Obs_json.Str stats.policy);
      ( "points",
        Obs_json.List
          (List.map
             (fun p ->
               Obs_json.Obj
                 [
                   ("batch", Obs_json.Int p.batch);
                   ("local_util", Obs_json.Float p.local_util);
                   ("pc_util", Obs_json.Float p.pc_util);
                 ])
             stats.points) );
      ("mean_grads_per_trajectory", Obs_json.Float stats.mean_grads_per_trajectory);
      ("max_grads_per_trajectory", Obs_json.Float stats.max_grads_per_trajectory);
      ("pc_mean_occupancy", Obs_json.Float stats.pc_mean_occupancy);
      ( "pc_occupancy",
        Obs_json.List
          (List.map
             (fun (step, occ) ->
               Obs_json.Obj
                 [ ("step", Obs_json.Int step); ("occupancy", Obs_json.Float occ) ])
             stats.pc_occupancy) );
    ]

let print_occupancy stats =
  Printf.printf
    "live-lane occupancy over the widest program-counter run (mean %.3f):\n"
    stats.pc_mean_occupancy;
  let bar occ =
    let w = int_of_float (Float.round (occ *. 40.)) in
    String.make (max 0 (min 40 w)) '#'
  in
  List.iter
    (fun (step, occ) -> Printf.printf "%8d  %.3f  %s\n" step occ (bar occ))
    stats.pc_occupancy

let print ppf stats =
  Format.fprintf ppf "%s@."
    "Figure 6: batch-gradient utilization on the correlated Gaussian (local \
     static syncs on trajectory boundaries; program-counter syncs on gradients)";
  Table.print
    ~header:[ "batch"; "local-static"; "program-counter" ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.batch;
             Printf.sprintf "%.3f" p.local_util;
             Printf.sprintf "%.3f" p.pc_util;
           ])
         stats.points)
    ppf;
  Format.fprintf ppf
    "gradients per trajectory: mean %.1f, max %.1f (max/mean = %.2f)@."
    stats.mean_grads_per_trajectory stats.max_grads_per_trajectory
    (stats.max_grads_per_trajectory /. stats.mean_grads_per_trajectory)
