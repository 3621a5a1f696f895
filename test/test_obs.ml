(* Tests for the observability layer: the JSON codec both directions, the
   metrics registry's quantile arithmetic, trace recording and its Chrome
   export (golden file + structural checks on a live run), and the
   acceptance criterion that attaching a sink never perturbs a run —
   outputs and the simulated clock stay bitwise identical. *)

let t = Alcotest.test_case

(* ---------- fixtures ---------- *)

let fib_compiled = Test_prof.fib_compiled
let fib_batch = Test_prof.fib_batch

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let v =
    Obs_json.Obj
      [
        ("name", Obs_json.Str "tr\"ace\n");
        ("n", Obs_json.Int 42);
        ("x", Obs_json.Float 1.5);
        ("whole", Obs_json.Float 3.);
        ("flag", Obs_json.Bool true);
        ("nothing", Obs_json.Null);
        ("xs", Obs_json.List [ Obs_json.Int 1; Obs_json.Int (-2) ]);
      ]
  in
  match Obs_json.of_string (Obs_json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
    Alcotest.(check bool) "round trips" true (v = v');
    (* Pretty rendering parses back to the same value too. *)
    (match Obs_json.of_string (Obs_json.to_string_pretty v) with
    | Ok v'' -> Alcotest.(check bool) "pretty round trips" true (v = v'')
    | Error e -> Alcotest.failf "pretty reparse failed: %s" e)

let test_json_numbers () =
  (* Integral floats keep a mark distinguishing them from ints. *)
  Alcotest.(check string) "float 3 renders 3.0" "3.0"
    (Obs_json.to_string (Obs_json.Float 3.));
  Alcotest.(check string) "int 3 renders 3" "3"
    (Obs_json.to_string (Obs_json.Int 3));
  Alcotest.(check string) "nan renders null" "null"
    (Obs_json.to_string (Obs_json.Float Float.nan));
  (match Obs_json.of_string "3.0" with
  | Ok (Obs_json.Float 3.) -> ()
  | _ -> Alcotest.fail "3.0 should parse as Float 3.");
  match Obs_json.of_string "[1,2.5,\"a\\u0041\"]" with
  | Ok (Obs_json.List [ Obs_json.Int 1; Obs_json.Float 2.5; Obs_json.Str "aA" ]) -> ()
  | _ -> Alcotest.fail "mixed list parse"

(* ---------- metrics ---------- *)

let test_counters_and_gauges () =
  let m = Obs_metrics.create () in
  let c = Obs_metrics.counter m "launches" in
  Obs_metrics.incr c;
  Obs_metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs_metrics.count c);
  Alcotest.(check int) "same name, same instrument" 5
    (Obs_metrics.count (Obs_metrics.counter m "launches"));
  let g = Obs_metrics.gauge m "occupancy" in
  Obs_metrics.set g 0.5;
  Obs_metrics.set g 0.75;
  Alcotest.(check (float 0.)) "gauge last write wins" 0.75 (Obs_metrics.value g)

let test_disabled_registry_is_dead () =
  let m = Obs_metrics.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Obs_metrics.enabled m);
  let c = Obs_metrics.counter m "c" and h = Obs_metrics.histogram m "h" in
  Obs_metrics.incr ~by:100 c;
  Obs_metrics.observe h 1.0;
  Alcotest.(check int) "counter dead" 0 (Obs_metrics.count c);
  Alcotest.(check int) "histogram dead" 0 (Obs_metrics.hist_count h)

let test_histogram_quantiles () =
  let m = Obs_metrics.create () in
  let h = Obs_metrics.histogram m "latency" in
  (* 1..1000 "milliseconds": exact aggregates, bucketed quantiles. *)
  for i = 1 to 1000 do
    Obs_metrics.observe h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (Obs_metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 500.5 (Obs_metrics.hist_sum h);
  Alcotest.(check (float 0.)) "min exact" 0.001 (Obs_metrics.hist_min h);
  Alcotest.(check (float 0.)) "max exact" 1.0 (Obs_metrics.hist_max h);
  (* Log buckets at 8 per octave: relative error is bounded by the bucket
     width, ~9%. Check each advertised quantile against the true one. *)
  List.iter
    (fun (q, truth) ->
      let est = Obs_metrics.quantile h q in
      let rel = Float.abs (est -. truth) /. truth in
      if rel > 0.1 then
        Alcotest.failf "q%.2f: estimate %g vs true %g (rel %.3f)" q est truth rel)
    [ (0.5, 0.5); (0.9, 0.9); (0.99, 0.99) ];
  (* Estimates are clamped to the observed range. *)
  Alcotest.(check bool) "q0 >= min" true (Obs_metrics.quantile h 0. >= 0.001);
  Alcotest.(check bool) "q1 <= max" true (Obs_metrics.quantile h 1. <= 1.0);
  match Obs_metrics.hist_to_json h with
  | Obs_json.Obj fields ->
    List.iter
      (fun k ->
        if not (List.mem_assoc k fields) then Alcotest.failf "missing %s" k)
      [ "count"; "sum"; "mean"; "min"; "max"; "p50"; "p90"; "p99" ]
  | _ -> Alcotest.fail "hist_to_json should be an object"

let test_histogram_zero_and_empty () =
  let m = Obs_metrics.create () in
  let h = Obs_metrics.histogram m "h" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs_metrics.quantile h 0.5));
  Obs_metrics.observe h 0.;
  Obs_metrics.observe h (-1.);
  Alcotest.(check int) "non-positive observations counted" 2
    (Obs_metrics.hist_count h);
  Alcotest.(check (float 0.)) "quantile clamps to max" 0.
    (Obs_metrics.quantile h 0.99)

(* ---------- trace: golden Chrome export ---------- *)

(* A hand-built trace covering every event family; its Chrome export is
   compared byte-for-byte with test/trace_golden.json. Regenerate every
   golden at once with AUTOBATCH_BLESS=/abs/path/to/test (the directory
   to write into) after a deliberate format change. *)
let golden_trace () =
  let tr = Obs_trace.create () in
  let vm = Obs_trace.track tr "vm" in
  let srv = Obs_trace.track tr "server" in
  Obs_trace.record tr ~track:vm ~ts:0.
    (Obs_sink.Step { shard = 0; step = 1; block = 0 });
  Obs_trace.record tr ~track:vm ~ts:2e-4
    (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = "block 0"; t0 = 0.; t1 = 2e-4 });
  Obs_trace.record tr ~track:vm ~ts:1e-3
    (Obs_sink.Step { shard = 1; step = 2; block = 3 });
  Obs_trace.record tr ~track:vm ~ts:1.5e-3
    (Obs_sink.Collective
       { name = "all_reduce"; bytes = 1024.; t0 = 1.2e-3; t1 = 1.5e-3 });
  Obs_trace.record tr ~track:srv ~ts:0. (Obs_sink.Request_enqueued { id = 0; at = 0. });
  Obs_trace.record tr ~track:srv ~ts:5e-4 (Obs_sink.Request_shed { id = 7; at = 5e-4 });
  Obs_trace.record tr ~track:srv ~ts:6e-4
    (Obs_sink.Request_rejected { id = 8; at = 6e-4 });
  Obs_trace.record tr ~track:srv ~ts:3e-3
    (Obs_sink.Request_completed
       { id = 0; queued = 0.; started = 1e-3; finished = 3e-3 });
  Obs_trace.record tr ~track:vm ~ts:2e-3 (Obs_sink.Checkpoint { step = 2; bytes = 128 });
  Obs_trace.record tr ~track:vm ~ts:2.5e-3 (Obs_sink.Restore { step = 2 });
  tr

let read_file path =
  In_channel.with_open_text path In_channel.input_all

let test_trace_golden () =
  let got = Obs_trace.to_chrome_string (golden_trace ()) in
  match Sys.getenv_opt "AUTOBATCH_BLESS" with
  | Some dir when dir <> "" ->
    let path = Filename.concat dir "trace_golden.json" in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc got)
  | _ ->
    let want = read_file "trace_golden.json" in
    Alcotest.(check string) "chrome export matches golden" want got;
    (* The golden document is itself valid JSON with the Chrome shape. *)
    (match Obs_json.of_string got with
    | Ok doc ->
      Alcotest.(check bool) "has traceEvents" true
        (Obs_json.member "traceEvents" doc <> None)
    | Error e -> Alcotest.failf "golden is not JSON: %s" e)

let test_trace_limit_and_csv () =
  let tr = Obs_trace.create ~limit:2 () in
  let track = Obs_trace.track tr "t" in
  for i = 1 to 5 do
    Obs_trace.record tr ~track ~ts:(float_of_int i)
      (Obs_sink.Step { shard = 0; step = i; block = 0 })
  done;
  Alcotest.(check int) "kept" 2 (List.length (Obs_trace.entries tr));
  Alcotest.(check int) "dropped" 3 (Obs_trace.dropped tr);
  let csv = Obs_trace.to_csv tr in
  Alcotest.(check bool) "csv has rows" true (String.length csv > 0)

(* ---------- trace: a live run exports a well-formed document ---------- *)

let test_live_trace_well_formed () =
  let compiled = Lazy.force fib_compiled in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let tr = Obs_trace.create () in
  let track = Obs_trace.track tr "fib" in
  let sink = Obs_trace.sink tr ~track ~clock:(fun () -> Engine.elapsed engine) in
  Engine.set_sink engine sink;
  let config =
    { Pc_vm.default_config with engine = Some engine; sink = Some sink }
  in
  ignore (Autobatch.run_pc ~config compiled ~batch:(fib_batch 8));
  let doc =
    match Obs_json.of_string (Obs_trace.to_chrome_string tr) with
    | Ok d -> d
    | Error e -> Alcotest.failf "export is not JSON: %s" e
  in
  let events =
    match Obs_json.member "traceEvents" doc with
    | Some (Obs_json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let str k ev =
    match Obs_json.member k ev with Some (Obs_json.Str s) -> Some s | _ -> None
  in
  let phases =
    List.filter_map (fun ev -> str "ph" ev) events
  in
  (* Superstep B/E pairs balance; launches appear as X completes. *)
  let count p = List.length (List.filter (String.equal p) phases) in
  Alcotest.(check bool) "has superstep spans" true (count "B" > 0);
  Alcotest.(check int) "B/E balanced" (count "B") (count "E");
  Alcotest.(check bool) "has launch spans" true (count "X" > 0);
  (* Timestamps are numeric and non-negative; B events arrive in
     non-decreasing time order (the engine clock is monotone). *)
  let b_ts =
    List.filter_map
      (fun ev ->
        match (str "ph" ev, Obs_json.member "ts" ev) with
        | Some "B", Some (Obs_json.Float ts) -> Some ts
        | Some "B", Some (Obs_json.Int ts) -> Some (float_of_int ts)
        | _ -> None)
      events
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "superstep timestamps monotone" true (monotone b_ts);
  Alcotest.(check bool) "nothing dropped" true (Obs_trace.dropped tr = 0)

(* ---------- observers must not perturb execution ---------- *)

(* Run a workload bare and with every observer fanned out on one sink —
   the trace recorder, the divergence profiler with its metrics
   registries, and the span recorder; outputs and the engine clock must
   be bitwise identical. The sink is the only difference between the two
   runs. *)
let check_all_unperturbed name run =
  let tr = Obs_trace.create () in
  let track = Obs_trace.track tr name in
  let prof = Obs_prof.create () in
  let spans = Obs_span.create () in
  let sink =
    Obs_sink.fanout
      [
        Obs_trace.sink tr ~track ~clock:(fun () -> 0.);
        Obs_prof.sink prof;
        Obs_span.sink spans;
      ]
  in
  Test_prof.check_unperturbed name sink run;
  Alcotest.(check bool)
    (name ^ ": recorded something")
    true
    (List.length (Obs_trace.entries tr) > 0);
  Alcotest.(check bool) (name ^ ": profiled something") true
    (Obs_prof.supersteps prof > 0);
  Alcotest.(check int)
    (name ^ ": metrics count every superstep")
    (Obs_prof.supersteps prof)
    (Obs_metrics.count
       (Obs_metrics.counter (Obs_prof.metrics prof) "supersteps"))

let test_sink_off_on_pc () = check_all_unperturbed "pc" (Test_prof.run_pc_fib ?z:None)

let test_sink_off_on_local () =
  check_all_unperturbed "local" Test_prof.run_local_fib

let test_sink_off_on_shard () =
  check_all_unperturbed "shard" (Test_prof.run_shard_fib ?mode:None)

let test_sink_off_on_server () =
  check_all_unperturbed "server" Test_prof.run_server_fib

(* ---------- report documents ---------- *)

let test_report_document () =
  let doc =
    Obs_report.document ~name:"unit"
      [ ("answer", Obs_json.Int 42); ("pi", Obs_json.Float 3.5) ]
  in
  (match Obs_json.member "report" doc with
  | Some (Obs_json.Str "unit") -> ()
  | _ -> Alcotest.fail "report name");
  (match Obs_json.member "schema_version" doc with
  | Some (Obs_json.Int v) -> Alcotest.(check bool) "version positive" true (v >= 1)
  | _ -> Alcotest.fail "schema_version");
  match Obs_json.of_string (Obs_json.to_string doc) with
  | Ok d -> Alcotest.(check bool) "document reparses" true (d = doc)
  | Error e -> Alcotest.failf "document not JSON: %s" e

let suites =
  [
    ( "obs",
      [
        t "json round trip" `Quick test_json_roundtrip;
        t "json numbers" `Quick test_json_numbers;
        t "counters and gauges" `Quick test_counters_and_gauges;
        t "disabled registry" `Quick test_disabled_registry_is_dead;
        t "histogram quantiles" `Quick test_histogram_quantiles;
        t "histogram edge cases" `Quick test_histogram_zero_and_empty;
        t "golden chrome export" `Quick test_trace_golden;
        t "trace limit and csv" `Quick test_trace_limit_and_csv;
        t "live trace well-formed" `Quick test_live_trace_well_formed;
        t "sink off/on pc" `Quick test_sink_off_on_pc;
        t "sink off/on local" `Quick test_sink_off_on_local;
        t "sink off/on shard" `Quick test_sink_off_on_shard;
        t "sink off/on server" `Quick test_sink_off_on_server;
        t "report document" `Quick test_report_document;
      ] );
  ]
