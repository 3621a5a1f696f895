(* End-to-end host-time benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
     main.exe --smoke

   With --workload, runs one workload in this process: builds its
   fixtures, times 11 fresh set-ups, runs one untimed verified pass over
   its input pool, then repeats timed runs for S seconds (each verified
   outside the timed region) and prints the end-to-end metrics. With
   --trace 1 it then runs every pool entry once more with the layer
   probes attached and reports the per-layer metrics instead. The last
   line of output is one JSON object with the keys correct, attempted,
   failed and metrics. Exits 1 when any output is wrong.

   Without --workload, runs every workload, each in a fresh process, one
   after another. --smoke runs every workload at a tiny size in this
   process, with every check and a traced pass.

   Host times are in reference time (see Calib). *)

open Report

type rep = { k : int; raw_s : float; calib_s : float }

let run_workload ~size ~seed ~seconds ~trace name =
  let t_fix = Calib.now () in
  let w = Workloads.make ~size ~seed name in
  let pool = w.Workloads.pool in
  Printf.printf "== %s (seed %Ld): fixtures %.2f s, pool of %d inputs ==\n%!" name seed
    (Calib.now () -. t_fix) pool;
  let errors = ref [] in
  let note k (o : Workloads.outcome) =
    List.iter (fun e -> errors := Printf.sprintf "input %d: %s" k e :: !errors) o.Workloads.errors
  in
  let n_setups = match size with Workloads.Full -> 11 | Workloads.Tiny -> 2 in
  let setups = Array.init n_setups (fun _ -> Calib.run w.Workloads.setup) in
  let setup_calibs =
    Array.append (Array.map (fun (_, c, ()) -> c) setups) [| Calib.measure () |]
  in
  (* The verified pass: one untimed run per pool entry, whose outputs
     every later run must reproduce bitwise. *)
  let base =
    Array.init pool (fun k ->
        let o = w.Workloads.prepare Workloads.Verified ~rep:k k () () in
        note k o;
        o)
  in
  let reps = ref [] and attempted = ref 0 and failed = ref 0 in
  let t0 = Calib.now () in
  let i = ref 0 in
  while !i < pool || Calib.now () -. t0 < seconds do
    let k = !i mod pool in
    Gc.compact ();
    let go = w.Workloads.prepare Workloads.Timed ~rep:(pool + !i) k in
    let raw_s, calib_s, finish = Calib.run go in
    let o = finish () in
    note k o;
    attempted := !attempted + o.Workloads.items;
    failed := !failed + o.Workloads.failed;
    if o.Workloads.fingerprint <> base.(k).Workloads.fingerprint then begin
      errors := Printf.sprintf "input %d: run %d differs from the verified run" k !i :: !errors;
      failed := !failed + o.Workloads.items
    end;
    reps := { k; raw_s; calib_s } :: !reps;
    incr i
  done;
  let elapsed = Calib.now () -. t0 in
  let final_calib = Calib.measure () in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let reps = Array.of_list (List.rev !reps) in
  let n = Array.length reps in
  let raw_ms = Array.map (fun r -> 1e3 *. r.raw_s) reps in
  let calibs = Array.append (Array.map (fun r -> r.calib_s) reps) [| final_calib |] in
  let ref_ms = Calib.normalize raw_ms calibs in
  let calib_ms = 1e3 *. median calibs in
  let setup_raw = Array.map (fun (r, _, ()) -> r) setups in
  let setup_ref = Calib.normalize setup_raw setup_calibs in
  let total f = Array.fold_left (fun a o -> a +. f o) 0. base in
  (* Mean useful work of a run over the pool. *)
  let work = total (fun o -> o.Workloads.work) /. float_of_int pool in
  let lat = Array.concat (Array.to_list (Array.map (fun o -> o.Workloads.lat) base)) in
  let e2e =
    [
      metric "setup_s" "s" ~samples:n_setups (median setup_ref) ~raw:(median setup_raw);
      metric "run_ms_p50" "ms" ~samples:n (median ref_ms) ~raw:(median raw_ms);
      metric "run_ms_p90" "ms" ~samples:n (percentile ref_ms 0.9) ~raw:(percentile raw_ms 0.9);
      metric "work_per_s" "1/s" ~samples:n
        (work /. median ref_ms *. 1e3)
        ~raw:(work /. median raw_ms *. 1e3);
      metric "sim_work_per_s" "1/s" ~samples:pool
        (work *. float_of_int pool /. total (fun o -> o.Workloads.sim));
      metric "sim_lat_mean_ms" "ms" ~samples:(Array.length lat)
        (1e3 *. Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat));
      metric "heap_peak_mb" "MB" ~samples:1 heap_peak_mb;
    ]
  in
  print_metrics
    (Printf.sprintf
       "end-to-end: %d timed runs in %.1f s; work in %s; host times in reference time \
        (calibration %.4g ms raw)"
       n elapsed w.Workloads.work_unit calib_ms)
    e2e;
  let metrics =
    if not trace then e2e
    else begin
      let p50 =
        Array.init pool (fun k ->
            median
              (Array.of_list (List.filteri (fun i _ -> reps.(i).k = k) (Array.to_list ref_ms))))
      in
      let layers = Layers.traced w ~base ~p50 ~calib_ms ~size ~errors in
      print_metrics "per-layer (traced run)" layers;
      layers
    end
  in
  let errors = List.rev !errors in
  List.iter (fun e -> Printf.eprintf "ERROR %s: %s\n%!" name e) errors;
  let correct = errors = [] && List.for_all (fun m -> Float.is_finite m.value) metrics in
  let line = json_line ~correct ~attempted:!attempted ~failed:!failed metrics in
  print_endline line;
  (correct, line)

(* ---------- every workload, one fresh process each ---------- *)

let run_children ~seed ~seconds ~trace =
  List.map
    (fun name ->
      let args =
        [|
          Sys.executable_name; "--workload"; name; "--seed"; Int64.to_string seed;
          "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let last = ref "" in
      (try
         while true do
           let l = input_line ic in
           print_endline l;
           last := l
         done
       with End_of_file -> ());
      let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
      print_newline ();
      (ok, (name, !last)))
    Workloads.names

let write_json path ~seed results =
  let oc = open_out path in
  Printf.fprintf oc "{\"seed\": %Ld, \"results\": {%s}}\n" seed
    (String.concat ", " (List.map (fun (n, l) -> Printf.sprintf "%S: %s" n l) results));
  close_out oc

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 15. in
  let trace = ref false and json = ref "" and smoke = ref false in
  let spec =
    [
      ( "--workload", Arg.Set_string workload,
        "W  run one workload in this process: " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase (default 15)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"),
        "  1: add the traced run and report per-layer metrics" );
      ("--json", Arg.Set_string json, "PATH  also write the result objects to PATH");
      ("--smoke", Arg.Set smoke, " every workload at a tiny size, with every check");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let seed = !seed and seconds = !seconds and trace = !trace in
  let results =
    if !smoke then
      List.map
        (fun name ->
          let ok, line = run_workload ~size:Workloads.Tiny ~seed ~seconds:0. ~trace:true name in
          (ok, (name, line)))
        Workloads.names
    else if !workload = "" then run_children ~seed ~seconds ~trace
    else if List.mem !workload Workloads.names then
      let ok, line = run_workload ~size:Workloads.Full ~seed ~seconds ~trace !workload in
      [ (ok, (!workload, line)) ]
    else begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end
  in
  if !json <> "" then write_json !json ~seed (List.map snd results);
  if not (List.for_all fst results) then exit 1
