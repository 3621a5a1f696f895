(* Command-line driver for the paper-reproduction experiments.

     dune exec bin/experiments.exe -- figure5
     dune exec bin/experiments.exe -- figure5 --paper-scale
     dune exec bin/experiments.exe -- figure6
     dune exec bin/experiments.exe -- ablations
     dune exec bin/experiments.exe -- inspect fib
     dune exec bin/experiments.exe -- fuse fib --dot fib.dot
     dune exec bin/experiments.exe -- sample --dim 10 --chains 64 *)

open Cmdliner

let batches_arg default =
  let doc = "Comma-separated batch sizes to sweep." in
  Arg.(value & opt (list int) default & info [ "batches" ] ~docv:"Z,Z,..." ~doc)

(* Every stochastic subcommand takes --seed; None keeps its default. *)
let seed_arg () =
  let parse s =
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "invalid seed %S" s))
  in
  let seed_conv = Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%Ld" v) in
  Arg.(value & opt (some seed_conv) None
       & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed (64-bit integer).")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Observability plumbing shared by the experiment subcommands: --trace
   records the run as Chrome trace-event JSON, --json replaces the human
   tables with one machine-readable report document on stdout. *)
let trace_arg () =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the run and write a Chrome trace-event JSON file \
                 (load in Perfetto or chrome://tracing).")

let json_arg () =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Print a machine-readable JSON report to stdout instead of \
                 the tables.")

(* The --fuse/--no-fuse A/B knob shared by the experiment subcommands,
   plus --profile FILE for profile-guided fusion (which implies --fuse).
   --no-fuse wins and restates the default, so scripts can pass it
   unconditionally when sweeping both arms. *)
let load_profile path =
  match Fuse_profile.load ~path with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 1

let fuse_args () =
  let fuse =
    Arg.(value & flag
         & info [ "fuse" ]
             ~doc:"Compile through the superblock fusion passes (jump \
                   threading, chain fusion, if-conversion, loop rotation, \
                   call-entry duplication) before running.")
  in
  let no_fuse =
    Arg.(value & flag
         & info [ "no-fuse" ]
             ~doc:"Force fusion off (wins over $(b,--fuse) and \
                   $(b,--profile)); this is the default.")
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Profile-guided fusion: weight the duplicating rewrites by \
                   an execution profile — folded stacks as written by \
                   $(b,experiments profile --folded), or JSON. Implies \
                   $(b,--fuse).")
  in
  let combine fuse no_fuse profile_path =
    if no_fuse then None
    else if fuse || profile_path <> None then
      Some
        {
          Fuse.default_options with
          Fuse.profile = Option.map load_profile profile_path;
        }
    else None
  in
  Term.(const combine $ fuse $ no_fuse $ profile)

(* The block-scheduling knobs shared by figure5|figure6|profile|serve:
   --policy NAME picks one policy for the run, --compare-policies reruns
   the workload under every policy and adds a delta readout against the
   earliest baseline. *)
let policy_conv =
  let parse s =
    match Sched_policy.of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown policy %S (%s)" s
              (String.concat "|"
                 (List.map Sched_policy.to_string Sched_policy.all))))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Sched_policy.to_string p))

let policy_args () =
  let policy =
    Arg.(value & opt (some policy_conv) None
         & info [ "policy" ] ~docv:"NAME"
             ~doc:"Block scheduling policy for the batched VMs: earliest, \
                   most-active, round-robin, cost-lookahead, or \
                   critical-path (default earliest). Outputs are \
                   policy-invariant; only the schedule and the simulated \
                   cost change.")
  in
  let compare =
    Arg.(value & flag
         & info [ "compare-policies" ]
             ~doc:"Run the workload once per scheduling policy and report \
                   every run against the $(b,earliest) baseline \
                   ($(b,--policy) is ignored).")
  in
  let combine policy compare =
    if compare then Sched_policy.all
    else [ Option.value ~default:Sched_policy.Earliest policy ]
  in
  Term.(const combine $ policy $ compare)

let comparing = function [] | [ _ ] -> false | _ -> true

(* Concatenate per-policy CSV documents, keeping only the first header
   line (every to_csv here puts its header on line one; the policy is a
   column, so the rows self-identify). *)
let concat_csv = function
  | [] -> ""
  | first :: rest ->
    first
    ^ String.concat ""
        (List.map
           (fun csv ->
             match String.index_opt csv '\n' with
             | Some i -> String.sub csv (i + 1) (String.length csv - i - 1)
             | None -> "")
           rest)

(* [with_trace ?policy ?csv path f] runs [f] with a trace when [path] or
   [csv] is set and writes the Chrome document (and/or the CSV rows,
   stamped with the scheduling policy) afterwards. *)
let with_trace ?policy ?csv path f =
  let tr =
    if path <> None || csv <> None then Some (Obs_trace.create ()) else None
  in
  let result = f tr in
  (match tr with
  | Some tr ->
    Option.iter (fun path -> Obs_trace.write tr ~path) path;
    Option.iter (fun path -> write_file path (Obs_trace.to_csv ?policy tr)) csv
  | None -> ());
  result

let trace_csv_arg () =
  Arg.(value & opt (some string) None
       & info [ "trace-csv" ] ~docv:"FILE"
           ~doc:"Also write the recorded events (spans, occupancy samples, \
                 migrations) as CSV rows, each stamped with the run's \
                 scheduling policy.")

let report ~name ~json ~human fields =
  if json then Obs_report.print (Obs_report.document ~name fields)
  else human ()

(* In --compare-policies mode the trace CSV's policy column is stamped
   "mixed": one trace document records every policy's run. *)
let policy_label = function
  | [ p ] -> Sched_policy.to_string p
  | _ -> "mixed"

let figure5_cmd =
  let run paper_scale batches n_data dim n_iter seed csv trace trace_csv json
      fuse policies =
    let base = if paper_scale then Figure5.paper_scale else Figure5.default_scale in
    let scale =
      {
        Figure5.batch_sizes = (match batches with [] -> base.Figure5.batch_sizes | bs -> bs);
        n_data = Option.value ~default:base.Figure5.n_data n_data;
        dim = Option.value ~default:base.Figure5.dim dim;
        n_iter = Option.value ~default:base.Figure5.n_iter n_iter;
        seed = Option.value ~default:base.Figure5.seed seed;
      }
    in
    let runs =
      with_trace ~policy:(policy_label policies) ?csv:trace_csv trace (fun tr ->
          List.map
            (fun policy ->
              (policy, Figure5.run ~scale ?trace:tr ~policy ?fuse ()))
            policies)
    in
    let points = List.concat_map snd runs in
    report ~name:"figure5" ~json
      ~human:(fun () ->
        List.iteri
          (fun i (policy, points) ->
            if i > 0 then print_newline ();
            if comparing policies then
              Printf.printf "-- policy %s --\n" (Sched_policy.to_string policy);
            Figure5.print points)
          runs)
      [ ("points", Figure5.to_json points) ];
    Option.iter (fun path -> write_file path (Figure5.to_csv points)) csv
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV.")
  in
  let paper =
    Arg.(value & flag & info [ "paper-scale" ]
           ~doc:"Use the paper's problem size (10,000 points, 100 regressors, \
                 batch sizes up to 4096). Slow on a host CPU.")
  in
  let n_data = Arg.(value & opt (some int) None & info [ "n-data" ] ~doc:"Data points.") in
  let dim = Arg.(value & opt (some int) None & info [ "dim" ] ~doc:"Regressors.") in
  let n_iter =
    Arg.(value & opt (some int) None & info [ "n-iter" ] ~doc:"Trajectories per member.")
  in
  Cmd.v
    (Cmd.info "figure5"
       ~doc:"NUTS throughput vs batch size on Bayesian logistic regression (paper Figure 5).")
    Term.(const run $ paper $ batches_arg [] $ n_data $ dim $ n_iter $ seed_arg () $ csv
          $ trace_arg () $ trace_csv_arg () $ json_arg () $ fuse_args ()
          $ policy_args ())

let figure6_cmd =
  let run dim batches n_iter seed stats_flag csv json fuse policies =
    let all =
      List.map
        (fun policy ->
          Figure6.run ~dim
            ?batch_sizes:(match batches with [] -> None | bs -> Some bs)
            ~n_iter ?seed ?fuse ~policy ())
        policies
    in
    report ~name:"figure6" ~json
      ~human:(fun () ->
        List.iteri
          (fun i stats ->
            if i > 0 then print_newline ();
            if comparing policies then
              Printf.printf "-- policy %s --\n" stats.Figure6.policy;
            Figure6.print stats;
            if stats_flag then begin
              print_newline ();
              Figure6.print_occupancy stats
            end)
          all)
      [ ( "stats",
          match all with
          | [ one ] -> Figure6.to_json one
          | many -> Obs_json.List (List.map Figure6.to_json many) );
      ];
    Option.iter
      (fun path -> write_file path (concat_csv (List.map Figure6.to_csv all)))
      csv
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV.")
  in
  let dim = Arg.(value & opt int 100 & info [ "dim" ] ~doc:"Gaussian dimension.") in
  let n_iter =
    Arg.(value & opt int 10 & info [ "n-iter" ] ~doc:"Consecutive NUTS trajectories.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Also print the live-lane occupancy time series of the widest \
                 program-counter run.")
  in
  Cmd.v
    (Cmd.info "figure6"
       ~doc:"Batch-gradient utilization on the correlated Gaussian (paper Figure 6).")
    Term.(const run $ dim $ batches_arg [] $ n_iter $ seed_arg () $ stats_flag $ csv
          $ json_arg () $ fuse_args () $ policy_args ())

let ablations_cmd =
  let run dim batch n_iter seed =
    Ablations.print ~title:"Ablation A1: masking vs gather/scatter (local static, CPU eager)"
      (Ablations.masking_vs_gather ~dim ~batch ~n_iter ?seed ());
    print_newline ();
    Ablations.print ~title:"Ablation A2: block scheduling heuristics (program counter, GPU fused)"
      (Ablations.schedulers ~dim ~batch ~n_iter ?seed ());
    print_newline ();
    Ablations.print ~title:"Ablation A3: stack compiler optimizations O2-O5 (program counter, GPU fused)"
      (Ablations.stack_optimizations ~dim ~batch ~n_iter ?seed ())
  in
  let dim = Arg.(value & opt int 50 & info [ "dim" ] ~doc:"Gaussian dimension.") in
  let batch = Arg.(value & opt int 32 & info [ "batch" ] ~doc:"Batch size.") in
  let n_iter = Arg.(value & opt int 3 & info [ "n-iter" ] ~doc:"Trajectories.") in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Design-choice ablations (DESIGN.md A1-A3).")
    Term.(const run $ dim $ batch $ n_iter $ seed_arg ())

let scaling_cmd =
  let run devices per_device total dim n_iter link_name algo_name seed csv json =
    let link =
      match link_name with
      | "nvlink" -> Mesh.nvlink
      | "pcie" -> Mesh.pcie
      | "ethernet" -> Mesh.ethernet
      | other ->
        Printf.eprintf "unknown link %S (nvlink|pcie|ethernet)\n" other;
        exit 1
    in
    let collective =
      match algo_name with
      | "ring" -> Collectives.Ring
      | "tree" -> Collectives.Tree
      | other ->
        Printf.eprintf "unknown collective algorithm %S (ring|tree)\n" other;
        exit 1
    in
    if List.exists (fun d -> d <= 0) devices then begin
      Printf.eprintf "device counts must be positive (got %s)\n"
        (String.concat "," (List.map string_of_int devices));
      exit 1
    end;
    let scale =
      {
        Scaling.devices =
          (match devices with [] -> Scaling.default_scale.Scaling.devices | ds -> ds);
        per_device; total; dim; n_iter; link; collective;
        seed = Option.value ~default:Scaling.default_scale.Scaling.seed seed;
      }
    in
    let points = Scaling.run ~scale () in
    report ~name:"scaling" ~json
      ~human:(fun () -> Scaling.print points)
      [ ("points", Scaling.to_json points) ];
    Option.iter (fun path -> write_file path (Scaling.to_csv points)) csv
  in
  let devices =
    Arg.(value & opt (list int) [] & info [ "devices" ] ~docv:"N,N,..."
           ~doc:"Mesh sizes to sweep (default 1,2,4,8).")
  in
  let per_device =
    Arg.(value & opt int 16 & info [ "per-device" ]
           ~doc:"Weak scaling: chains per device.")
  in
  let total =
    Arg.(value & opt int 64 & info [ "total" ] ~doc:"Strong scaling: total chains.")
  in
  let dim = Arg.(value & opt int 20 & info [ "dim" ] ~doc:"Gaussian dimension.") in
  let n_iter =
    Arg.(value & opt int 2 & info [ "n-iter" ] ~doc:"Trajectories per chain.")
  in
  let link =
    Arg.(value & opt string "nvlink"
         & info [ "link" ] ~doc:"Interconnect: nvlink, pcie, or ethernet.")
  in
  let algo =
    Arg.(value & opt string "ring"
         & info [ "collective" ] ~doc:"Collective schedule: ring or tree.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV.")
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Weak/strong scaling of sharded batched NUTS across a device mesh \
             (Figure 7; priced on the simulated clock).")
    Term.(const run $ devices $ per_device $ total $ dim $ n_iter $ link $ algo
          $ seed_arg () $ csv $ json_arg ())

let known_programs () =
  [
    ("fib", Examples_programs.fib);
    ("collatz", Examples_programs.collatz);
    ("nuts-gaussian", Examples_programs.nuts_gaussian ());
  ]

(* Resolve a program reference: a known name, or a source file parsed by
   the concrete-syntax frontend. Shapes default to scalars when unknown. *)
let resolve_program name =
  match List.assoc_opt name (known_programs ()) with
  | Some triple -> triple
  | None ->
    if Sys.file_exists name then begin
      match Parser.parse_file name with
      | Error e ->
        Printf.eprintf "%s: parse error at %s\n" name (Parser.string_of_error e);
        exit 1
      | Ok prog ->
        let entry = Option.get (Lang.find_func prog prog.Lang.main) in
        let shapes = List.map (fun _ -> Shape.scalar) entry.Lang.params in
        (prog, Prim.standard (), shapes)
    end
    else begin
      Printf.eprintf
        "unknown program %S: not a known name (%s) and not a source file\n" name
        (String.concat ", " (List.map fst (known_programs ())));
      exit 1
    end

let prog_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
         ~doc:"A known program (fib, collatz, nuts-gaussian) or a path to a \
               source file in the concrete syntax.")

let inspect_cmd =
  let run name stack optimize =
    let prog, registry, input_shapes = resolve_program name in
    let compiled = Autobatch.compile ~registry ~optimize ~input_shapes prog in
    if stack then Format.printf "%a@." Stack_ir.pp_program compiled.Autobatch.stack
    else Format.printf "%a@." Cfg.pp_program compiled.Autobatch.cfg
  in
  let stack =
    Arg.(value & flag & info [ "stack" ]
           ~doc:"Print the merged Figure-4 stack program instead of the Figure-2 CFG.")
  in
  let optimize =
    Arg.(value & flag & info [ "optimize" ]
           ~doc:"Run the CFG optimizer (fold/CSE/copy-prop/DCE) first.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Dump a program's compiled IR.")
    Term.(const run $ prog_pos_arg $ stack $ optimize)

let dot_cmd =
  let run name stack =
    let prog, registry, input_shapes = resolve_program name in
    let compiled = Autobatch.compile ~registry ~input_shapes prog in
    if stack then print_string (Dot.stack_to_dot compiled.Autobatch.stack)
    else print_string (Dot.cfg_to_dot compiled.Autobatch.cfg)
  in
  let stack =
    Arg.(value & flag & info [ "stack" ]
           ~doc:"Emit the merged stack program's graph instead of the CFG.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT for a program's compiled IR.")
    Term.(const run $ prog_pos_arg $ stack)

let fuse_cmd =
  let run name profile_path dot ir json no_inline speculate_rng =
    let prog, registry, input_shapes = resolve_program name in
    let options =
      {
        Fuse.default_options with
        Fuse.profile = Option.map load_profile profile_path;
        inline_entries = not no_inline;
        speculate_rng;
      }
    in
    let compiled = Autobatch.compile ~registry ~fuse:options ~input_shapes prog in
    let report = Option.get compiled.Autobatch.fuse in
    if json then Obs_report.print (Fuse.to_json report)
    else Fuse.print report;
    if ir then Format.printf "@.%a@." Cfg.pp_program compiled.Autobatch.cfg;
    Option.iter
      (fun path ->
        write_file path
          (Dot.fused_cfg_to_dot ~groups:report.Fuse.megablocks
             compiled.Autobatch.cfg))
      dot
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Profile-guided fusion: weight the duplicating rewrites by \
                   an execution profile (folded stacks or JSON).")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Write the fused CFG as Graphviz DOT with megablocks \
                   grouped into dashed clusters labelled by their source \
                   block ids.")
  in
  let ir =
    Arg.(value & flag
         & info [ "ir" ] ~doc:"Also dump the fused CFG in text form.")
  in
  let no_inline =
    Arg.(value & flag
         & info [ "no-inline" ]
             ~doc:"Skip call-entry duplication on the merged stack program \
                   (keep only the CFG-level rewrites).")
  in
  let speculate_rng =
    Arg.(value & flag
         & info [ "speculate-rng" ]
             ~doc:"Let if-conversion speculate RNG draws into both arms. \
                   Still bitwise-deterministic (draws are counter-based), \
                   but the lane RNG streams differ from the unfused \
                   program's, so A/B output comparison no longer holds.")
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Run the superblock fusion compiler on a program and report what \
             it did: per-pass rewrite counts, megablock provenance, kernel \
             sizes, and per-function/per-block op counts.")
    Term.(const run $ prog_pos_arg $ profile $ dot $ ir $ json_arg ()
          $ no_inline $ speculate_rng)

let run_file_cmd =
  let run name args =
    let prog, registry, input_shapes = resolve_program name in
    let compiled = Autobatch.compile ~registry ~input_shapes prog in
    let entry = Option.get (Lang.find_func prog prog.Lang.main) in
    if List.length args <> List.length entry.Lang.params then begin
      Printf.eprintf "program %s wants %d scalar arguments, got %d\n" name
        (List.length entry.Lang.params)
        (List.length args);
      exit 1
    end;
    let batch = List.map (fun v -> Tensor.of_list [ v ]) args in
    let outputs = Autobatch.run_pc compiled ~batch in
    List.iteri
      (fun i t -> Format.printf "output %d: %a@." i Tensor.pp (Tensor.slice_row t 0))
      outputs
  in
  let args =
    Arg.(value & pos_right 0 float [] & info [] ~docv:"ARGS"
           ~doc:"Scalar arguments to the entry function.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a program (batch of one) under the program-counter VM.")
    Term.(const run $ prog_pos_arg $ args)

let profile_cmd =
  let run model_name dim batch n_iter top seed folded trace trace_csv json fuse
      policies =
    if not (List.mem model_name Profile.known_models) then begin
      Printf.eprintf "unknown model %S (%s)\n" model_name
        (String.concat "|" Profile.known_models);
      exit 1
    end;
    let results =
      with_trace ~policy:(policy_label policies) ?csv:trace_csv trace (fun tr ->
          List.map
            (fun policy ->
              Profile.run ~dim ~batch ~n_iter ?seed ?trace:tr ?fuse ~policy
                ~model:model_name ())
            policies)
    in
    let result = List.hd results in
    let views = List.map Profile.view results in
    let fields =
      ("profile", Profile.to_json result)
      ::
      (if comparing policies then
         [ ("compare", Profile.compare_to_json views) ]
       else [])
    in
    report ~name:"profile" ~json
      ~human:(fun () ->
        Profile.print ~top result;
        if comparing policies then begin
          print_newline ();
          Profile.print_compare views
        end)
      fields;
    Option.iter (fun path -> write_file path (Profile.folded result)) folded
  in
  let model =
    Arg.(value & opt string "eight_schools"
         & info [ "model" ]
             ~doc:"Target posterior: eight_schools, gaussian, funnel, or \
                   logistic.")
  in
  let dim =
    Arg.(value & opt int 10
         & info [ "dim" ] ~doc:"Dimension (ignored by eight_schools).")
  in
  let batch = Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Batch size.") in
  let n_iter =
    Arg.(value & opt int 2 & info [ "n-iter" ] ~doc:"Trajectories per chain.")
  in
  let top =
    Arg.(value & opt int 12 & info [ "top" ] ~doc:"Hot-block rows to print.")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded stacks (flamegraph.pl input) of simulated \
                   self-time to FILE.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Divergence profile of batched NUTS under the program-counter VM: \
             per-block attribution of simulated time, lane-utilization \
             accounting, and flamegraph export.")
    Term.(const run $ model $ dim $ batch $ n_iter $ top $ seed_arg () $ folded
          $ trace_arg () $ trace_csv_arg () $ json_arg () $ fuse_args ()
          $ policy_args ())

let sample_cmd =
  let run model_name dim chains n_iter n_burn variant_name collect_name no_adapt
      devices seed =
    let model =
      match Zoo.resolve ~dim model_name with
      | m -> m
      | exception Invalid_argument _ ->
        Printf.eprintf "unknown model %S (%s)\n" model_name
          (String.concat "|" Zoo.known);
        exit 1
    in
    let variant =
      match variant_name with
      | "slice" -> Nuts.Slice
      | "multinomial" -> Nuts.Multinomial
      | other ->
        Printf.eprintf "unknown variant %S (slice|multinomial)\n" other;
        exit 1
    in
    let collect =
      match collect_name with
      | "moments" -> `Moments
      | "samples" -> `Samples
      | other ->
        Printf.eprintf "unknown collection mode %S (moments|samples)\n" other;
        exit 1
    in
    let s =
      Batched_sampler.run ~variant ~adapt:(not no_adapt) ~collect ~devices ~model
        ~chains ~n_iter ~n_burn ?seed ()
    in
    Format.printf "%s: %a@." model.Model.name Batched_sampler.pp_summary s
  in
  let model =
    Arg.(value & opt string "gaussian"
         & info [ "model" ] ~doc:"Target: gaussian, funnel, or logistic.")
  in
  let dim = Arg.(value & opt int 10 & info [ "dim" ] ~doc:"Dimension.") in
  let chains = Arg.(value & opt int 64 & info [ "chains" ] ~doc:"Parallel chains.") in
  let n_iter = Arg.(value & opt int 50 & info [ "n-iter" ] ~doc:"Trajectories per chain.") in
  let n_burn = Arg.(value & opt int 20 & info [ "n-burn" ] ~doc:"Burn-in trajectories.") in
  let variant =
    Arg.(value & opt string "slice"
         & info [ "variant" ] ~doc:"NUTS variant: slice (the paper's) or multinomial.")
  in
  let collect =
    Arg.(value & opt string "moments"
         & info [ "collect" ]
             ~doc:"moments (full cross-trajectory batching) or samples (per-draw \
                   diagnostics, trajectory-synchronized).")
  in
  let no_adapt =
    Arg.(value & flag & info [ "no-adapt" ] ~doc:"Skip warmup adaptation.")
  in
  let devices =
    Arg.(value & opt int 1
         & info [ "devices" ]
             ~doc:"Shard the chain dimension across this many simulated devices; \
                   results are bitwise identical to one device.")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Run batched NUTS on a built-in target and summarize the posterior.")
    Term.(const run $ model $ dim $ chains $ n_iter $ n_burn $ variant $ collect
          $ no_adapt $ devices $ seed_arg ())

let serve_cmd =
  let run dim lanes requests max_iter loads policies queue_depth closed_clients
      seed csv trace trace_csv json scheds =
    let policies =
      List.map
        (function
          | "sync" -> "synchronous"
          | p when List.mem p Serving.policies -> p
          | other ->
            Printf.eprintf "unknown policy %S (fifo|shortest|synchronous)\n"
              other;
            exit 1)
        policies
    in
    let all =
      with_trace ~policy:(policy_label scheds) ?csv:trace_csv trace (fun tr ->
          List.map
            (fun sched ->
              Serving.run ~dim ~lanes ~n_requests:requests ~max_iter
                ?loads:(match loads with [] -> None | ls -> Some ls)
                ~policies ~queue_depth ~closed_clients ?seed ?trace:tr ~sched
                ())
            scheds)
    in
    report ~name:"serve" ~json
      ~human:(fun () ->
        List.iteri
          (fun i stats ->
            if i > 0 then print_newline ();
            if comparing scheds then
              Printf.printf "-- scheduling policy %s --\n"
                stats.Serving.sched_policy;
            Serving.print stats)
          all)
      [ ( "stats",
          match all with
          | [ one ] -> Serving.to_json one
          | many -> Obs_json.List (List.map Serving.to_json many) );
      ];
    Option.iter
      (fun path -> write_file path (concat_csv (List.map Serving.to_csv all)))
      csv
  in
  let dim = Arg.(value & opt int 10 & info [ "dim" ] ~doc:"Gaussian dimension.") in
  let lanes =
    Arg.(value & opt int 8 & info [ "lanes" ] ~doc:"Device width (VM lanes).")
  in
  let requests =
    Arg.(value & opt int 48 & info [ "requests" ] ~doc:"Requests per run.")
  in
  let max_iter =
    Arg.(value & opt int 3
         & info [ "max-iter" ]
             ~doc:"Trajectories per request are uniform in 1..MAX (service-time \
                   spread).")
  in
  let loads =
    Arg.(value & opt (list float) []
         & info [ "loads" ] ~docv:"L,L,..."
             ~doc:"Offered loads as fractions of device capacity (default \
                   0.6,0.9,1.3).")
  in
  let policies =
    Arg.(value & opt (list string) [ "synchronous"; "fifo"; "shortest" ]
         & info [ "policies" ] ~docv:"P,P,..."
             ~doc:"Admission policies to compare: fifo, shortest, synchronous.")
  in
  let queue_depth =
    Arg.(value & opt int 1024 & info [ "queue-depth" ] ~doc:"Admission queue bound.")
  in
  let closed_clients =
    Arg.(value & opt int (-1)
         & info [ "closed-clients" ]
             ~doc:"Closed-loop clients (default: one per lane; 0 disables the \
                   closed-loop runs).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Continuous batching against the fixed-batch regime: stream NUTS \
             sampling requests through one shard of the serving runtime and \
             compare admission policies (throughput, latency percentiles, \
             live-lane occupancy, a bitwise check of sampled completions).")
    Term.(const run $ dim $ lanes $ requests $ max_iter $ loads $ policies
          $ queue_depth $ closed_clients $ seed_arg () $ csv $ trace_arg ()
          $ trace_csv_arg () $ json_arg () $ policy_args ())

let parse_pattern pattern =
  match Tenant_load.pattern_of_string pattern with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown pattern %S (uniform|bursty|diurnal|adversarial)\n"
      pattern;
    exit 1

let tenants_cmd =
  let run requests tenants programs pattern load mesh lanes ckpt kill_round
      cache seed no_baseline no_verify trace json =
    let pattern = parse_pattern pattern in
    (* --trace records the fair arm's span stream (request trees plus
       the operational instants) and writes a Perfetto document. *)
    let recorder = Option.map (fun _ -> Obs_span.create ()) trace in
    let r =
      Tenant_load.run ?seed ~pattern ~n_requests:requests ~n_tenants:tenants
        ~n_programs:programs ?cache_capacity:cache ~load ~mesh_size:mesh
        ~lanes_per_shard:lanes ~checkpoint_interval:ckpt ~kill_round
        ~baseline:(not no_baseline) ~verify:(not no_verify)
        ?sink:(Option.map Obs_span.sink recorder)
        ()
    in
    let span_fields =
      match (trace, recorder) with
      | Some path, Some rec_ ->
        Obs_span.write rec_ ~path;
        [
          ( "spans",
            Obs_json.Obj
              [
                ("path", Obs_json.Str path);
                ("recorded", Obs_json.Int (Obs_span.length rec_));
                ("dropped", Obs_json.Int (Obs_span.dropped rec_));
                ("trees", Obs_span.stats_to_json (Obs_span.validate rec_));
              ] );
        ]
      | _ -> []
    in
    report ~name:"tenants" ~json
      ~human:(fun () ->
        Tenant_load.print_table r;
        match (trace, recorder) with
        | Some path, Some rec_ ->
          Printf.printf "trace: %d spans, %d request trees (%s) -> %s\n"
            (Obs_span.length rec_)
            (Obs_span.count_named rec_ "request")
            (if Obs_span.all_well_formed rec_ then "all well-formed"
             else "MALFORMED")
            path
        | _ -> ())
      (("stats", Tenant_load.to_json r) :: span_fields);
    if r.Tenant_load.mismatches > 0 then exit 1
  in
  let requests =
    Arg.(value & opt int 2000 & info [ "requests" ] ~doc:"Requests in the trace.")
  in
  let tenants =
    Arg.(value & opt int 24
         & info [ "tenants" ] ~doc:"Tenants (Zipf-popular, mixed SLO classes).")
  in
  let programs =
    Arg.(value & opt int 8
         & info [ "programs" ] ~doc:"Distinct programs in the family.")
  in
  let pattern =
    Arg.(value & opt string "bursty"
         & info [ "pattern" ] ~docv:"P"
             ~doc:"Arrival pattern: uniform, bursty, diurnal, adversarial.")
  in
  let load =
    Arg.(value & opt float 0.35
         & info [ "load" ]
             ~doc:"Offered load as a fraction of full-pool capacity.")
  in
  let mesh =
    Arg.(value & opt int 4 & info [ "mesh" ] ~doc:"Devices in the shard pool.")
  in
  let lanes =
    Arg.(value & opt int 8 & info [ "lanes" ] ~doc:"VM lanes per shard.")
  in
  let ckpt =
    Arg.(value & opt int 16
         & info [ "checkpoint-interval" ] ~doc:"Rounds between checkpoints.")
  in
  let kill_round =
    Arg.(value & opt int 40
         & info [ "kill-round" ]
             ~doc:"Inject one device kill at this round (negative: none).")
  in
  let cache =
    Arg.(value & opt (some int) None
         & info [ "cache" ] ~doc:"Program-cache capacity (default: programs).")
  in
  let no_baseline =
    Arg.(value & flag
         & info [ "no-baseline" ] ~doc:"Skip the FIFO no-admission arm.")
  in
  let no_verify =
    Arg.(value & flag
         & info [ "no-verify" ]
             ~doc:"Skip the bitwise solo-equivalence check (and drop outputs), \
                   for large sweeps.")
  in
  Cmd.v
    (Cmd.info "tenants"
       ~doc:"Multi-tenant serving: admission control, SLO-aware preemption, \
             program cache, and an autoscaling shard pool under bursty Zipf \
             traffic, paired against a no-admission FIFO baseline and \
             verified bitwise against solo runs. --trace FILE additionally \
             records every request's span tree (queue/service children, \
             preemption and migration marks) plus the operational instants \
             as a Perfetto track-per-tenant document.")
    Term.(const run $ requests $ tenants $ programs $ pattern $ load $ mesh
          $ lanes $ ckpt $ kill_round $ cache $ seed_arg () $ no_baseline
          $ no_verify $ trace_arg () $ json_arg ())

let slo_cmd =
  let run requests pattern load threshold budget fast_window slow_window
      burn_threshold drive seed json =
    let pattern = parse_pattern pattern in
    let classes =
      List.map
        (fun cls ->
          Obs_slo.class_config ~budget ~fast_window ~slow_window
            ~burn_threshold ~cls ~threshold ())
        [ "latency"; "throughput"; "best-effort" ]
    in
    let slo = Obs_slo.create ~classes () in
    (* Alert edges and ladder transitions arrive as ordinary sink
       events; collecting them here is exactly what a production
       alerting pipe would do. *)
    let alerts = ref [] and ladder = ref [] in
    let sink = function
      | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ->
        alerts := (slo, fired, burn_fast, burn_slow, at) :: !alerts
      | Obs_sink.Ladder { level; occupancy; cause; at } ->
        ladder := (level, occupancy, cause, at) :: !ladder
      | _ -> ()
    in
    let r =
      Tenant_load.run ?seed ~pattern ~n_requests:requests ~load ~verify:false
        ~baseline:false ~sink ~slo ~slo_drive:drive ()
    in
    let makespan =
      r.Tenant_load.fair.Tenant_load.stats.Tenant_server.makespan
    in
    let alerts = List.rev !alerts and ladder = List.rev !ladder in
    report ~name:"slo" ~json
      ~human:(fun () ->
        Printf.printf
          "slo monitor: %s x %d requests, load %.2f; threshold %gs, budget \
           %g, windows %g/%gs, burn threshold %g%s\n"
          (Tenant_load.pattern_name r.Tenant_load.pattern)
          r.Tenant_load.n_requests r.Tenant_load.load threshold budget
          fast_window slow_window burn_threshold
          (if drive then " (driving the admission ladder)" else "");
        Printf.printf
          "completed %d  shed %d  rejected %d  makespan %.4fs  alerts %d\n\n"
          (List.length
             r.Tenant_load.fair.Tenant_load.stats.Tenant_server.completions)
          r.Tenant_load.fair.Tenant_load.shed r.Tenant_load.fair.Tenant_load.rejected
          makespan (Obs_slo.fired_total slo);
        if alerts <> [] then
          Table.print_stdout
            ~header:[ "at"; "class"; "edge"; "burn fast"; "burn slow" ]
            ~rows:
              (List.map
                 (fun (cls, fired, bf, bs, at) ->
                   [
                     Printf.sprintf "%.4f" at;
                     cls;
                     (if fired then "FIRED" else "resolved");
                     Printf.sprintf "%.2f" bf;
                     Printf.sprintf "%.2f" bs;
                   ])
                 alerts)
        else print_endline "no alert edges";
        if ladder <> [] then begin
          print_newline ();
          Table.print_stdout
            ~header:[ "at"; "ladder level"; "occupancy"; "cause" ]
            ~rows:
              (List.map
                 (fun (level, occ, cause, at) ->
                   [
                     Printf.sprintf "%.4f" at;
                     level;
                     Printf.sprintf "%.3f" occ;
                     cause;
                   ])
                 ladder)
        end)
      [
        ( "alerts",
          Obs_json.List
            (List.map
               (fun (cls, fired, bf, bs, at) ->
                 Obs_json.Obj
                   [
                     ("class", Obs_json.Str cls);
                     ("fired", Obs_json.Bool fired);
                     ("burn_fast", Obs_json.Float bf);
                     ("burn_slow", Obs_json.Float bs);
                     ("at", Obs_json.Float at);
                   ])
               alerts) );
        ( "ladder",
          Obs_json.List
            (List.map
               (fun (level, occ, cause, at) ->
                 Obs_json.Obj
                   [
                     ("level", Obs_json.Str level);
                     ("occupancy", Obs_json.Float occ);
                     ("cause", Obs_json.Str cause);
                     ("at", Obs_json.Float at);
                   ])
               ladder) );
        ("monitor", Obs_slo.to_json slo ~now:makespan);
        ("stats", Tenant_load.to_json r);
      ]
  in
  let requests =
    Arg.(value & opt int 2000 & info [ "requests" ] ~doc:"Requests in the trace.")
  in
  let pattern =
    Arg.(value & opt string "adversarial"
         & info [ "pattern" ] ~docv:"P"
             ~doc:"Arrival pattern: uniform, bursty, diurnal, adversarial.")
  in
  let load =
    Arg.(value & opt float 0.35
         & info [ "load" ]
             ~doc:"Offered load as a fraction of full-pool capacity.")
  in
  let threshold =
    Arg.(value & opt float 0.25
         & info [ "threshold" ]
             ~doc:"Latency threshold (simulated seconds) defining a bad \
                   request; sheds and ladder rejections are always bad.")
  in
  let budget =
    Arg.(value & opt float 0.05
         & info [ "budget" ] ~doc:"Error budget: allowed bad fraction.")
  in
  let fast_window =
    Arg.(value & opt float 60.
         & info [ "fast-window" ]
             ~doc:"Fast (detection) window, simulated seconds.")
  in
  let slow_window =
    Arg.(value & opt float 360.
         & info [ "slow-window" ]
             ~doc:"Slow (confirmation) window, simulated seconds.")
  in
  let burn_threshold =
    Arg.(value & opt float 6.
         & info [ "burn-threshold" ]
             ~doc:"Fire when both window burn rates reach this multiple of \
                   the sustainable budget pace.")
  in
  let drive =
    Arg.(value & flag
         & info [ "drive" ]
             ~doc:"Let a firing alert pin the admission ladder at \
                   shed-best-effort until it resolves (the resulting rung \
                   moves show up in the ladder table with cause slo-floor).")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"SLO burn-rate monitoring: replay a tenant trace under the \
             multi-window monitor, print every alert edge and admission \
             ladder transition, and optionally let alerts drive the ladder.")
    Term.(const run $ requests $ pattern $ load $ threshold $ budget
          $ fast_window $ slow_window $ burn_threshold $ drive $ seed_arg ()
          $ json_arg ())

let resilience_cmd =
  let run z intervals rates vms shards lanes requests bandwidth seed csv json =
    let intervals =
      match intervals with
      | [] -> None
      | l ->
        Some
          (List.map
             (fun s ->
               if s = "inf" || s = "0" then 0
               else
                 match int_of_string_opt s with
                 | Some i when i > 0 -> i
                 | _ ->
                   Printf.eprintf "invalid interval %S (positive int or 'inf')\n" s;
                   exit 1)
             l)
    in
    List.iter
      (fun vm ->
        if not (List.mem vm [ "pc"; "shard"; "server" ]) then begin
          Printf.eprintf "unknown vm %S (pc|shard|server)\n" vm;
          exit 1
        end)
      vms;
    if bandwidth <= 0. then begin
      Printf.eprintf "checkpoint bandwidth must be positive (got %g)\n" bandwidth;
      exit 1
    end;
    let stats =
      Resilience.run ~z ?intervals
        ?rates:(match rates with [] -> None | l -> Some l)
        ?vms:(match vms with [] -> None | l -> Some l)
        ~shards ~server_lanes:lanes ~n_requests:requests
        ~ckpt_bandwidth:bandwidth
        ?seed:(Option.map Int64.to_int seed)
        ()
    in
    report ~name:"resilience" ~json
      ~human:(fun () -> Resilience.print stats)
      [ ("stats", Resilience.to_json stats) ];
    Option.iter (fun path -> write_file path (Resilience.to_csv stats)) csv
  in
  let z = Arg.(value & opt int 32 & info [ "z" ] ~doc:"Batch size (lanes).") in
  let intervals =
    Arg.(value & opt (list string) []
         & info [ "intervals" ] ~docv:"K,K,..."
             ~doc:"Checkpoint intervals in supersteps; 'inf' (or 0) keeps only \
                   the initial checkpoint (default 1,8,64,inf).")
  in
  let rates =
    Arg.(value & opt (list float) []
         & info [ "rates" ] ~docv:"R,R,..."
             ~doc:"Per-superstep fault probabilities (default 0,0.02,0.1).")
  in
  let vms =
    Arg.(value & opt (list string) []
         & info [ "vms" ] ~docv:"VM,VM,..."
             ~doc:"Runtimes to sweep: pc, shard, server (default all).")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard count for the sharded VM.")
  in
  let lanes =
    Arg.(value & opt int 4 & info [ "server-lanes" ] ~doc:"Server device width.")
  in
  let requests =
    Arg.(value & opt int 12 & info [ "requests" ] ~doc:"Requests in the serving trace.")
  in
  let bandwidth =
    Arg.(value & opt float 262144.
         & info [ "ckpt-bandwidth" ]
             ~doc:"Modelled checkpoint drain rate in bytes per superstep (sets \
                   the analytic overhead and Young's interval).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV.")
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:"Checkpoint/restore under fault injection: sweep checkpoint \
             interval against fault rate for every runtime, report overhead \
             and recovered work, and verify each recovered run is bitwise \
             identical to the fault-free one.")
    Term.(const run $ z $ intervals $ rates $ vms $ shards $ lanes $ requests
          $ bandwidth $ seed_arg () $ csv $ json_arg ())


(* ---------- handler-DSL workloads (DESIGN.md S22) ---------- *)

(* Workload constructors reject bad sizes with [Invalid_argument]; the
   CLI turns that into the usual one-line message + exit 1. *)
let or_usage f =
  match f () with
  | r -> r
  | exception Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let smc_cmd =
  let run particles steps tol seed json =
    let r = or_usage (fun () -> Smc.run ?seed ~n_particles:particles ~steps ()) in
    report ~name:"smc" ~json
      ~human:(fun () -> Smc.print r)
      [ ("smc", Smc.to_json r) ];
    if not (Smc.passes ~tol r) then begin
      Printf.eprintf "smc: gate failed\n";
      exit 1
    end
  in
  let particles =
    Arg.(value & opt int 256 & info [ "particles" ] ~doc:"Particle count.")
  in
  let steps =
    Arg.(value & opt int 25 & info [ "steps" ] ~doc:"Filter time steps.")
  in
  let tol =
    Arg.(value & opt float 1.0
         & info [ "tol" ] ~doc:"Allowed |log Z - Kalman| gap.")
  in
  Cmd.v
    (Cmd.info "smc"
       ~doc:"Bootstrap particle filter from the handler DSL: multinomial \
             resampling through the lane-migration seam, gated against the \
             Kalman filter's exact log marginal likelihood.")
    Term.(const run $ particles $ steps $ tol $ seed_arg () $ json_arg ())

let temper_cmd =
  let run chains rounds sweep_steps mu0 seed json =
    let c =
      { Tempering.default_config with chains; rounds; sweep_steps; mu0 }
    in
    let r = or_usage (fun () -> Tempering.run ?seed ~c ()) in
    report ~name:"temper" ~json
      ~human:(fun () -> Tempering.print r)
      [ ("temper", Tempering.to_json r) ];
    if not (Tempering.passes r) then begin
      Printf.eprintf "temper: gate failed\n";
      exit 1
    end
  in
  let chains =
    Arg.(value & opt int 8 & info [ "chains" ] ~doc:"Temperature ladder size.")
  in
  let rounds =
    Arg.(value & opt int 400 & info [ "rounds" ] ~doc:"Sweep/exchange rounds.")
  in
  let sweep_steps =
    Arg.(value & opt int 10 & info [ "sweep-steps" ] ~doc:"RWM steps per sweep.")
  in
  let mu0 =
    Arg.(value & opt float 3. & info [ "mu0" ] ~doc:"Mixture mode offset.")
  in
  Cmd.v
    (Cmd.info "temper"
       ~doc:"Parallel tempering from the handler DSL: chains as batch \
             members, host replica exchanges priced as collectives, gated on \
             the mixture's closed-form moments.")
    Term.(const run $ chains $ rounds $ sweep_steps $ mu0 $ seed_arg ()
          $ json_arg ())

let tree_cmd =
  let run depth features z seed json =
    let r = or_usage (fun () -> Treebench.run ?seed ~depth ~n_features:features ~z ()) in
    report ~name:"tree" ~json
      ~human:(fun () -> Treebench.print r)
      [ ("tree", Treebench.to_json r) ];
    if not (Treebench.passes r) then begin
      Printf.eprintf "tree: gate failed\n";
      exit 1
    end
  in
  let depth =
    Arg.(value & opt int 6 & info [ "depth" ] ~doc:"Tree depth.")
  in
  let features =
    Arg.(value & opt int 8 & info [ "features" ] ~doc:"Feature vector size.")
  in
  let z = Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Batch size.") in
  Cmd.v
    (Cmd.info "tree"
       ~doc:"Decision-tree inference: pure control flow elaborated through \
             Eff.branch, every runtime gated bitwise against host evaluation.")
    Term.(const run $ depth $ features $ z $ seed_arg () $ json_arg ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "experiments" ~version:"1.0"
             ~doc:"Reproduction experiments for 'Automatically Batching \
                   Control-Intensive Programs for Modern Accelerators'.")
          [
            figure5_cmd; figure6_cmd; ablations_cmd; scaling_cmd; serve_cmd;
            tenants_cmd; slo_cmd; resilience_cmd; inspect_cmd; dot_cmd;
            fuse_cmd; run_file_cmd; profile_cmd; sample_cmd; smc_cmd;
            temper_cmd; tree_cmd;
          ]))
