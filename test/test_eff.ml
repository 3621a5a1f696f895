(* Tests for the effect-handler model frontend (lib/eff, DESIGN.md S22):
   elaboration mechanics, handler-composition laws (QCheck), and the
   bitwise equivalence of the migrated models across every runtime. *)

let t = Alcotest.test_case

(* A small two-latent model used by the handler-law properties. *)
let toy_y = [| 0.5; -0.2; 1.0 |]

let toy_spec () =
  let open Lang in
  let mu = Eff.sample "mu" (Dist.Normal (flt 0., flt 2.)) in
  let s = Eff.sample "s" (Dist.Exponential (flt 1.)) in
  Eff.observe ~shape:[| 3 |] "y" (Dist.Normal (mu, flt 1.)) (vec toy_y);
  [ mu; s ]

let log_2pi = Stdlib.log (2. *. Float.pi)

(* Hand-written normalized joint density of [toy_spec]. *)
let toy_logp mu s =
  let prior_mu =
    (-0.5 *. (mu /. 2.) *. (mu /. 2.)) -. Stdlib.log 2. -. (0.5 *. log_2pi)
  in
  let prior_s = -.s in
  let lik =
    Array.fold_left
      (fun acc y -> acc -. (0.5 *. (y -. mu) *. (y -. mu)) -. (0.5 *. log_2pi))
      0. toy_y
  in
  prior_mu +. prior_s +. lik

let compile_el el =
  Autobatch.compile ~registry:el.Eff.el_registry
    ~input_shapes:(Eff.input_shapes el) el.Eff.el_program

let lp_of el outs = List.nth outs el.Eff.el_lp_index

(* ---------- elaboration mechanics ---------- *)

let test_trace_structure () =
  let el = Eff.log_density toy_spec in
  Alcotest.(check (list string)) "params" [ "mu"; "s" ]
    (List.map fst el.Eff.el_params);
  Alcotest.(check (list string)) "latents" [ "mu"; "s" ]
    (List.map fst (Eff.latent_sites el));
  Alcotest.(check int) "three sites" 3 (List.length el.Eff.el_trace);
  let kinds = List.map (fun r -> r.Eff.r_kind) el.Eff.el_trace in
  Alcotest.(check bool) "kinds" true
    (kinds = [ Eff.Latent; Eff.Latent; Eff.Observed ]);
  Alcotest.(check bool) "all scored" true
    (List.for_all (fun r -> r.Eff.r_scored) el.Eff.el_trace);
  Alcotest.(check (option int)) "no counter in bind mode" None
    el.Eff.el_cnt_index

let test_log_density_matches_hand () =
  let el = Eff.log_density toy_spec in
  let compiled = compile_el el in
  let mus = Tensor.of_list [ -1.2; 0.; 0.7; 2.5 ] in
  let ss = Tensor.of_list [ 0.3; 1.; 2.; 0.1 ] in
  let lp = lp_of el (Autobatch.run_pc compiled ~batch:[ mus; ss ]) in
  for i = 0 to 3 do
    Alcotest.(check (float 1e-10))
      (Printf.sprintf "lp member %d" i)
      (toy_logp (Tensor.data mus).(i) (Tensor.data ss).(i))
      (Tensor.data lp).(i)
  done

let test_runtime_matrix_bitwise () =
  (* The elaborated log-density program of every zoo model produces
     bitwise-identical outputs on pc, local and sharded. *)
  List.iter
    (fun name ->
      let m = Zoo.resolve ~dim:6 name in
      let el = Model.log_density m in
      let compiled = compile_el el in
      let stream = Splitmix.Stream.create 7L in
      let z = 4 in
      let batch =
        List.map
          (fun shape ->
            Tensor.init
              (Array.append [| z |] shape)
              (fun _ -> Splitmix.Stream.normal stream))
          (Eff.input_shapes el)
      in
      let pc = Autobatch.run_pc compiled ~batch in
      let check arm outs =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s bitwise" name arm)
          true
          (List.for_all2 Tensor.equal pc outs)
      in
      check "local" (Autobatch.run_local compiled ~batch);
      check "shard"
        (Autobatch.run_sharded
           ~config:
             { Shard_vm.default_config with mesh = Mesh.gpu_pod ~n:2 () }
           compiled ~batch)
          .Shard_vm.outputs)
    Zoo.known

let test_elaborated_density_vs_hand () =
  (* Log-density differences of the elaborated program agree with the
     hand closures (additive constants cancel); the gaussian spec is
     engineered to match the hand density exactly. *)
  List.iter
    (fun name ->
      let m = Zoo.resolve ~dim:6 name in
      let el = Model.log_density m in
      let compiled = compile_el el in
      let stream = Splitmix.Stream.create 11L in
      let z = 3 in
      let qs =
        Tensor.init [| z; m.Model.dim |] (fun _ ->
            0.5 *. Splitmix.Stream.normal stream)
      in
      (* The zoo models are single-site-per-latent-block: map the flat
         q rows onto the elaborated parameter blocks in order. *)
      let batch =
        let col = ref 0 in
        List.map
          (fun shape ->
            let w = if Array.length shape = 0 then 1 else shape.(0) in
            let t =
              Tensor.init
                (Array.append [| z |] shape)
                (fun idx ->
                  let j = if Array.length idx > 1 then idx.(1) else 0 in
                  Tensor.get qs [| idx.(0); !col + j |])
            in
            col := !col + w;
            t)
          (Eff.input_shapes el)
      in
      let lp = lp_of el (Autobatch.run_pc compiled ~batch) in
      let hand b = m.Model.logp (Tensor.slice_row qs b) in
      if name = "gaussian" then
        for b = 0 to z - 1 do
          Alcotest.(check (float 0.))
            (Printf.sprintf "gaussian lp %d exact" b)
            (hand b) (Tensor.data lp).(b)
        done
      else
        let d_el = (Tensor.data lp).(1) -. (Tensor.data lp).(0) in
        let d_hand = hand 1 -. hand 0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s density delta" name)
          true
          (Float.abs (d_el -. d_hand)
          < 1e-8 *. (1. +. Float.abs d_hand)))
    Zoo.known

let test_simulate_counts_draws () =
  let el = Eff.simulate toy_spec in
  Alcotest.(check (list string)) "only the counter is an input" [ "__cnt0" ]
    (List.map fst el.Eff.el_params);
  let compiled = compile_el el in
  let z = 5 in
  let outs = Autobatch.run_pc compiled ~batch:[ Tensor.zeros [| z |] ] in
  (match el.Eff.el_cnt_index with
  | None -> Alcotest.fail "draw-mode program must expose its counter"
  | Some i ->
    let cnt = List.nth outs i in
    for b = 0 to z - 1 do
      Alcotest.(check (float 0.)) "two draws" 2. (Tensor.data cnt).(b)
    done);
  (* Members draw from distinct streams. *)
  let mu = List.hd outs in
  Alcotest.(check bool) "members differ" true
    ((Tensor.data mu).(0) <> (Tensor.data mu).(1));
  (* The exponential site is positive. *)
  let s = List.nth outs 1 in
  Tensor.fold (fun () v -> Alcotest.(check bool) "s > 0" true (v > 0.)) () s

let test_simulate_bitwise_across_runtimes () =
  let el = Eff.simulate toy_spec in
  let compiled = compile_el el in
  let z = 6 in
  let batch = [ Tensor.zeros [| z |] ] in
  let pc = Autobatch.run_pc compiled ~batch in
  Alcotest.(check bool) "local" true
    (List.for_all2 Tensor.equal pc (Autobatch.run_local compiled ~batch))

let test_half_cauchy_positive () =
  let el =
    Eff.simulate (fun () ->
        [ Eff.sample "tau" (Dist.Half_cauchy (Lang.flt 2.)) ])
  in
  let compiled = compile_el el in
  let outs = Autobatch.run_pc compiled ~batch:[ Tensor.zeros [| 32 |] ] in
  Tensor.fold
    (fun () v -> Alcotest.(check bool) "tau > 0" true (v > 0.))
    () (List.hd outs)

let test_branch_divergence () =
  let el =
    Eff.log_density (fun () ->
        let open Lang in
        let open Lang.Infix in
        let c = Eff.param "c" in
        let x =
          Eff.branch (c > flt 0.) (fun () -> flt 2.) (fun () -> flt 3.)
        in
        [ x ])
  in
  let compiled = compile_el el in
  let outs =
    Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 1.; -1.; 0.5 ] ]
  in
  Alcotest.(check bool) "divergent branch values" true
    (Tensor.equal (List.hd outs) (Tensor.of_list [ 2.; 3.; 2. ]))

let test_plate_prefixes () =
  let el =
    Eff.log_density (fun () ->
        let open Lang in
        Eff.plate "grp" 2 (fun _ ->
            Eff.sample "z" (Dist.Normal (flt 0., flt 1.))))
  in
  Alcotest.(check (list string)) "plate site names" [ "grp.0.z"; "grp.1.z" ]
    (List.map (fun r -> r.Eff.r_site) el.Eff.el_trace)

let test_errors () =
  Alcotest.check_raises "sample outside a handler"
    (Invalid_argument
       "Eff.sample: no model is being elaborated (call from within a body \
        passed to Eff.run / log_density / simulate)") (fun () ->
      ignore (Eff.sample "x" Dist.Uniform));
  (match
     Eff.log_density (fun () ->
         let open Lang in
         let a = Eff.sample "x" (Dist.Normal (flt 0., flt 1.)) in
         let b = Eff.sample "x" (Dist.Normal (flt 0., flt 1.)) in
         [ a; b ])
   with
  | _ -> Alcotest.fail "duplicate site accepted"
  | exception Invalid_argument _ -> ())

(* ---------- handler-composition laws (QCheck) ---------- *)

let float_in lo hi =
  QCheck.make
    ~print:string_of_float
    QCheck.Gen.(float_range lo hi)

let prop_substitute_consistency =
  (* substitute ∘ trace: pinning a latent to a constant yields the same
     log density (bitwise) as passing that constant as the parameter. *)
  QCheck.Test.make ~name:"substitute consistency" ~count:25
    (QCheck.pair (float_in (-2.5) 2.5) (float_in 0.05 3.))
    (fun (m, sv) ->
      let open_el = Eff.log_density toy_spec in
      let closed_el =
        Eff.log_density (fun () ->
            Eff.substitute [ ("s", Lang.flt sv) ] toy_spec)
      in
      List.map fst closed_el.Eff.el_params = [ "mu" ]
      &&
      let lp_open =
        Tensor.item
          (lp_of open_el
             (Autobatch.run_pc (compile_el open_el)
                ~batch:[ Tensor.of_list [ m ]; Tensor.of_list [ sv ] ]))
      in
      let lp_closed =
        Tensor.item
          (lp_of closed_el
             (Autobatch.run_pc (compile_el closed_el)
                ~batch:[ Tensor.of_list [ m ] ]))
      in
      lp_open = lp_closed)

let prop_condition_matches_substitute =
  (* Under the trace handler, condition and substitute score the same
     terms — the log density is bitwise identical; only the recorded
     site kind differs. *)
  QCheck.Test.make ~name:"condition = substitute on lp" ~count:25
    (QCheck.pair (float_in (-2.5) 2.5) (float_in 0.05 3.))
    (fun (m, sv) ->
      let v = Lang.flt sv in
      let sub = Eff.log_density (fun () -> Eff.substitute [ ("s", v) ] toy_spec) in
      let con = Eff.log_density (fun () -> Eff.condition [ ("s", v) ] toy_spec) in
      let kind el =
        (List.find (fun r -> r.Eff.r_site = "s") el.Eff.el_trace).Eff.r_kind
      in
      kind sub = Eff.Latent
      && kind con = Eff.Observed
      &&
      let lp el =
        Tensor.item
          (lp_of el
             (Autobatch.run_pc (compile_el el) ~batch:[ Tensor.of_list [ m ] ]))
      in
      lp sub = lp con)

let prop_seed_determinism =
  (* The seed handler is a pure function of the seed: same seed, same
     program, same draws — different seed, different draws. *)
  QCheck.Test.make ~name:"seed determinism" ~count:15 QCheck.int64
    (fun seed ->
      let run seed =
        let el = Eff.simulate ~seed toy_spec in
        (el.Eff.el_program, Autobatch.run_pc (compile_el el)
             ~batch:[ Tensor.zeros [| 3 |] ])
      in
      let p1, o1 = run seed in
      let p2, o2 = run seed in
      let _, o3 = run (Int64.add seed 1L) in
      p1 = p2
      && List.for_all2 Tensor.equal o1 o2
      && not (Tensor.equal (List.hd o1) (List.hd o3)))

let prop_substitute_under_seed =
  (* substitute ∘ seed: a pinned latent is not drawn — the counter
     drops by its tick and the site takes the pinned value. *)
  QCheck.Test.make ~name:"substitute removes draw" ~count:25
    (float_in (-2.) 2.)
    (fun v ->
      let el =
        Eff.simulate (fun () ->
            Eff.substitute [ ("mu", Lang.flt v) ] toy_spec)
      in
      let outs =
        Autobatch.run_pc (compile_el el) ~batch:[ Tensor.zeros [| 2 |] ]
      in
      let cnt =
        match el.Eff.el_cnt_index with
        | Some i -> Tensor.item (Tensor.slice_row (List.nth outs i) 0)
        | None -> -1.
      in
      cnt = 1. && (Tensor.data (List.hd outs)).(0) = v)

(* ---------- migrated models: bitwise vs the pre-migration pipeline ---------- *)

(* The Model.t redesign kept every hand density closure: the NUTS
   programs built from the migrated models must still match the
   single-chain reference bitwise on every runtime. *)
let test_nuts_bitwise_all_models () =
  List.iter
    (fun name ->
      let model = Zoo.resolve ~dim:4 name in
      let reg, key = Nuts_dsl.setup ~model () in
      let q0 = Tensor.zeros [| model.Model.dim |] in
      let eps = 0.2 in
      let cfg = Nuts.default_config ~eps () in
      let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
      let compiled =
        Autobatch.compile ~registry:reg
          ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
      in
      let z = 3 and n_iter = 3 in
      let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:z () in
      let pc = Autobatch.run_pc compiled ~batch in
      let arms =
        [
          ("local", Autobatch.run_local compiled ~batch);
          ( "shard",
            (Autobatch.run_sharded
               ~config:
                 { Shard_vm.default_config with mesh = Mesh.gpu_pod ~n:2 () }
               compiled ~batch)
              .Shard_vm.outputs );
        ]
      in
      List.iter
        (fun (arm, outs) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s = pc" name arm)
            true
            (List.for_all2 Tensor.equal pc outs))
        arms;
      for member = 0 to z - 1 do
        let r = Nuts.sample_chain cfg ~model ~key ~member ~q0 ~n_iter in
        Alcotest.(check bool)
          (Printf.sprintf "%s member %d vs reference" name member)
          true
          (Tensor.equal r.Nuts.final_q (Tensor.slice_row (List.hd pc) member))
      done)
    Zoo.known

let suites =
  [
    ( "eff-elaborate",
      [
        t "trace structure" `Quick test_trace_structure;
        t "log density matches hand density" `Quick
          test_log_density_matches_hand;
        t "runtime matrix bitwise" `Quick test_runtime_matrix_bitwise;
        t "elaborated density vs model closures" `Quick
          test_elaborated_density_vs_hand;
        t "simulate draws and counts" `Quick test_simulate_counts_draws;
        t "simulate bitwise across runtimes" `Quick
          test_simulate_bitwise_across_runtimes;
        t "half-cauchy support" `Quick test_half_cauchy_positive;
        t "branch divergence" `Quick test_branch_divergence;
        t "plate prefixes" `Quick test_plate_prefixes;
        t "error paths" `Quick test_errors;
      ] );
    ( "eff-handlers",
      [
        QCheck_alcotest.to_alcotest prop_substitute_consistency;
        QCheck_alcotest.to_alcotest prop_condition_matches_substitute;
        QCheck_alcotest.to_alcotest prop_seed_determinism;
        QCheck_alcotest.to_alcotest prop_substitute_under_seed;
      ] );
    ( "eff-migration",
      [ t "NUTS bitwise on all models" `Quick test_nuts_bitwise_all_models ] );
  ]
