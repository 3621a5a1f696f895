(* AUTOBATCH_FAST=1 (the @runtest-fast alias) is the pre-commit tier:
   it drops the slow suites — the example corpus and random-program
   fuzzing — and every test case registered as `Slow. *)
let fast =
  match Sys.getenv_opt "AUTOBATCH_FAST" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let drop_slow_cases suites =
  List.filter_map
    (fun (name, cases) ->
      match List.filter (fun (_, speed, _) -> speed = `Quick) cases with
      | [] -> None
      | quick -> Some (name, quick))
    suites

let () =
  let suites =
    List.concat
      [
        Test_shape.suites;
        Test_tensor.suites;
        Test_cholesky.suites;
        Test_rng.suites;
        Test_accel.suites;
        Test_ir.suites;
        Test_parser.suites;
        Test_tools.suites;
        Test_optimize.suites;
        (if fast then [] else Test_corpus.suites);
        Test_vm.suites;
        Test_fuse.suites;
        Test_pipeline.suites;
        (if fast then [] else Test_random_programs.suites);
        Test_ad.suites;
        Test_eff.suites;
        Test_models.suites;
        Test_mcmc.suites;
        Test_nuts_equivalence.suites;
        Test_shard.suites;
        Test_sched.suites;
        Test_obs.suites;
        Test_span.suites;
        Test_prof.suites;
        Test_harness.suites;
        Test_resil.suites;
        Test_tenant.suites;
        (if fast then [] else Test_resil.fuzz_suites);
      ]
  in
  Alcotest.run "autobatch" (if fast then drop_slow_cases suites else suites)
