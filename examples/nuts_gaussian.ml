(* Batched NUTS on a correlated Gaussian — the paper's Figure 6 workload.

   Runs many independent NUTS chains in lockstep with program-counter
   autobatching, checks the posterior moments against the analytic target,
   and reports the batch utilization the two strategies achieve.

     dune exec examples/nuts_gaussian.exe *)

let () =
  let dim = 10 in
  let chains = 64 in
  let n_iter = 60 in
  let n_burn = 20 in
  let model = Gaussian_model.model ~rho:0.7 ~dim () in

  (* One registry serves both the sampler program and its RNG key. *)
  let reg, key = Nuts_dsl.setup ~model () in
  let q0 = Tensor.zeros [| dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  Format.printf "step size (Algorithm 4): %.4f@." eps;

  let cfg = Nuts.default_config ~eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn ~batch:chains () in

  (* Run all chains at once, with a profiler counting lane utilization. *)
  let prof = Obs_prof.create () in
  let config = { Pc_vm.default_config with sink = Some (Obs_prof.sink prof) } in
  let outputs = Autobatch.run_pc ~config compiled ~batch in
  let sum_q = List.nth outputs 1 and sum_qsq = List.nth outputs 2 in

  (* Posterior moments pooled across chains and kept iterations. *)
  let kept = float_of_int ((n_iter - n_burn) * chains) in
  let mean_all = Tensor.mul_scalar (Tensor.sum ~axis:0 sum_q) (1. /. kept) in
  let ex2 = Tensor.mul_scalar (Tensor.sum ~axis:0 sum_qsq) (1. /. kept) in
  let var_all = Tensor.sub ex2 (Tensor.square mean_all) in
  Format.printf "posterior mean  (target 0): %a@." Tensor.pp mean_all;
  Format.printf "posterior var   (target 1): %a@." Tensor.pp var_all;

  Format.printf "gradient-lane utilization (pc autobatching): %.3f@."
    Profile.(lane_utilization (prim (derive (pc_ops compiled.stack) prof) "grad"));

  (* Cross-check one chain bitwise against the reference sampler. *)
  let r = Nuts.sample_chain cfg ~model ~key ~member:0 ~q0 ~n_iter in
  let q_vm = Tensor.slice_row (List.hd outputs) 0 in
  Format.printf "chain 0 bitwise-equal to reference sampler: %b@."
    (Tensor.equal r.Nuts.final_q q_vm)
