type summary = {
  mean : Tensor.t;
  variance : Tensor.t;
  chains : int;
  kept_draws : int;
  eps : float;
  minv : Tensor.t;
  grad_utilization : float;
  ess : float array option;
  split_rhat : float array option;
  samples : Tensor.t array array option;
}

let run ?(seed = 0x5EEDL) ?(variant = Nuts.Slice) ?(adapt = true)
    ?(collect = `Moments) ?(devices = 1) ?q0 ~model ~chains ~n_iter ~n_burn () =
  if chains <= 0 || n_iter <= 0 || n_burn < 0 || n_burn >= n_iter then
    invalid_arg "Batched_sampler.run: bad chain/iteration counts";
  if devices <= 0 then invalid_arg "Batched_sampler.run: devices must be positive";
  let dim = model.Model.dim in
  let q0 = match q0 with Some q -> q | None -> Tensor.zeros [| dim |] in
  let eps, minv, q_start =
    if adapt then begin
      let w = Warmup.run ~seed ~variant ~model ~q0 () in
      (w.Warmup.eps, w.Warmup.minv, w.Warmup.q)
    end
    else (Nuts.find_reasonable_eps ~seed ~model ~q0 (), Tensor.ones [| dim |], q0)
  in
  let reg, _key = Nuts_dsl.setup ~seed ~model () in
  let cfg = Nuts.default_config ~variant ~mass_minv:minv ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  (* One execution path for both collection modes and every device count:
     the static partition of the chains over the mesh (one device is one
     pool, exactly Pc_vm.run; results are bitwise identical for any
     count). It reports to one profiler, whose rows yield the
     gradient-lane utilization. *)
  let prof = Obs_prof.create () in
  let config =
    {
      Sched_vm.default_config with
      plan = Sched_plan.off;
      mesh = Mesh.gpu_pod ~n:devices ();
      sink = Some (Obs_prof.sink prof);
    }
  in
  let exec batch = (Autobatch.run_sharded ~config compiled ~batch).Sched_vm.outputs in
  let ops = Profile.pc_ops compiled.Autobatch.stack in
  let grad_utilization () = Profile.(lane_utilization (prim (derive ops prof) "grad")) in
  let kept_draws = (n_iter - n_burn) * chains in
  match collect with
  | `Moments ->
    let batch =
      Nuts_dsl.inputs ~minv ~q0:q_start ~eps ~n_iter ~n_burn ~batch:chains ()
    in
    let outputs = exec batch in
    let kf = float_of_int kept_draws in
    let mean = Tensor.mul_scalar (Tensor.sum ~axis:0 (List.nth outputs 1)) (1. /. kf) in
    let ex2 = Tensor.mul_scalar (Tensor.sum ~axis:0 (List.nth outputs 2)) (1. /. kf) in
    let variance = Tensor.sub ex2 (Tensor.square mean) in
    {
      mean;
      variance;
      chains;
      kept_draws;
      eps;
      minv;
      grad_utilization = grad_utilization ();
      ess = None;
      split_rhat = None;
      samples = None;
    }
  | `Samples ->
    (* One trajectory per program invocation: chains synchronize on
       trajectory boundaries (the local-static limitation), but every
       position is observable. Positions and RNG counters thread through
       explicitly. *)
    let z = chains in
    let q_cur = ref (Tensor.broadcast_rows q_start z) in
    let cnt_cur = ref (Tensor.zeros [| z |]) in
    let samples = Array.make_matrix chains n_iter (Tensor.zeros [| dim |]) in
    for it = 0 to n_iter - 1 do
      let batch =
        [
          !q_cur;
          Tensor.full [| z |] eps;
          Tensor.full [| z |] 1.;
          Tensor.full [| z |] 1.;
          !cnt_cur;
          Tensor.broadcast_rows minv z;
        ]
      in
      let outputs = exec batch in
      q_cur := List.nth outputs 0;
      cnt_cur := List.nth outputs 3;
      for c = 0 to chains - 1 do
        samples.(c).(it) <- Tensor.slice_row !q_cur c
      done
    done;
    let kept = Array.map (fun row -> Array.sub row n_burn (n_iter - n_burn)) samples in
    let all_kept = Array.concat (Array.to_list kept) in
    let mean, variance = Diagnostics.chain_moments all_kept in
    let per_coord f = Array.init dim f in
    let ess =
      per_coord (fun d ->
          Array.fold_left
            (fun acc chain -> acc +. Diagnostics.ess (Diagnostics.column chain d))
            0. kept)
    in
    let split_rhat =
      per_coord (fun d ->
          Diagnostics.split_rhat
            (Array.map (fun chain -> Diagnostics.column chain d) kept))
    in
    {
      mean;
      variance;
      chains;
      kept_draws;
      eps;
      minv;
      grad_utilization = grad_utilization ();
      ess = Some ess;
      split_rhat = Some split_rhat;
      samples = Some samples;
    }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d chains, %d kept draws, eps %.4f, gradient-lane utilization %.3f@,"
    s.chains s.kept_draws s.eps s.grad_utilization;
  let d = Tensor.numel s.mean in
  for i = 0 to d - 1 do
    Format.fprintf ppf "dim %2d: mean %+8.4f  var %8.4f  minv %8.4f" i
      (Tensor.data s.mean).(i)
      (Tensor.data s.variance).(i)
      (Tensor.data s.minv).(i);
    (match s.ess with
    | Some e -> Format.fprintf ppf "  ess %7.1f" e.(i)
    | None -> ());
    (match s.split_rhat with
    | Some r -> Format.fprintf ppf "  rhat %.3f" r.(i)
    | None -> ());
    Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"
