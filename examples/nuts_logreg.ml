(* Batched NUTS for Bayesian logistic regression — the paper's Figure 5
   workload, scaled to run quickly on a host CPU.

   Demonstrates the throughput story: the same compiled sampler executed
   under the different strategy/device configurations of the simulated
   accelerator, plus posterior quality against the data-generating
   coefficients.

     dune exec examples/nuts_logreg.exe *)

let () =
  let n_data = 400 and dim = 12 in
  let chains = 32 in
  let n_iter = 40 and n_burn = 15 in
  let data = Logistic_model.synth ~n:n_data ~dim () in
  let model = Logistic_model.model_of_data data in
  let reg, _key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn ~batch:chains () in

  (* Posterior inference with the program-counter VM. *)
  let outputs = Autobatch.run_pc compiled ~batch in
  let kept = float_of_int ((n_iter - n_burn) * chains) in
  let post_mean =
    Tensor.mul_scalar (Tensor.sum ~axis:0 (List.nth outputs 1)) (1. /. kept)
  in
  (* Compare the posterior mean with the coefficients that generated the
     data (they should correlate strongly at this data size). *)
  let beta = data.Logistic_model.beta_true in
  let corr =
    let center t =
      Tensor.sub t (Tensor.mean t)
    in
    let a = center post_mean and b = center beta in
    Tensor.item (Tensor.dot a b)
    /. Stdlib.sqrt
         (Tensor.item (Tensor.dot a a) *. Tensor.item (Tensor.dot b b))
  in
  Format.printf "correlation(posterior mean, true beta) = %.3f@." corr;

  (* Throughput under three strategy/device configurations. *)
  let grads_per_sec name ops run =
    let prof = Obs_prof.create () in
    let engine = run (Some (Obs_prof.sink prof)) in
    let useful = (Profile.prim (Profile.derive ops prof) "grad").useful in
    Format.printf "%-18s %s useful gradient evals/sec@." name
      (Table.si (float_of_int useful /. Engine.elapsed engine))
  in
  let pc_ops = Profile.pc_ops compiled.Autobatch.stack
  and local_ops = Profile.local_ops compiled.Autobatch.cfg in
  grads_per_sec "pc + XLA on GPU:" pc_ops (fun sink ->
      let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
      let config = { Pc_vm.default_config with engine = Some engine; sink } in
      ignore (Autobatch.run_pc ~config compiled ~batch);
      engine);
  grads_per_sec "local eager CPU:" local_ops (fun sink ->
      let engine = Engine.create ~device:Device.cpu ~mode:Engine.Eager () in
      let config = { Local_vm.default_config with engine = Some engine; sink } in
      ignore (Autobatch.run_local ~config compiled ~batch);
      engine);
  grads_per_sec "hybrid CPU:" local_ops (fun sink ->
      let engine = Engine.create ~device:Device.cpu ~mode:Engine.Hybrid () in
      let config = { Local_vm.default_config with engine = Some engine; sink } in
      ignore (Autobatch.run_local ~config compiled ~batch);
      engine)
