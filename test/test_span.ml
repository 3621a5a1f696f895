(* The request-scoped tracing layer: span recording and tree validation
   (Obs_span), sliding-window counters and rolling histograms
   (Obs_window), the multi-window burn-rate monitor (Obs_slo), wall-clock
   probes (Obs_wall), and a QCheck round-trip fuzzer for the JSON layer
   everything exports through. The end-to-end invariants — spans cost
   zero simulated time, every completion gets exactly one tree — are
   gated by `bench obs2`; this file covers the unit contracts. *)

let span ?(trace = 0) ?(track = 0) ~id ?(parent = Obs_span.no_parent) ~name t0
    t1 =
  {
    Obs_span.sp_trace = trace;
    sp_id = id;
    sp_parent = parent;
    sp_track = track;
    sp_name = name;
    sp_t0 = t0;
    sp_t1 = t1;
  }

(* ---------- Obs_span ---------- *)

let test_span_tree_well_formed () =
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~name:"request" 0. 10.);
  Obs_span.record t (span ~id:1 ~parent:0 ~name:"queue" 0. 4.);
  Obs_span.record t (span ~id:2 ~parent:0 ~name:"service" 4. 10.);
  Obs_span.record t (span ~id:3 ~parent:2 ~name:"preempted" 5. 7.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "one trace" 1 st.Obs_span.traces;
  Alcotest.(check int) "well formed" 1 st.Obs_span.well_formed;
  Alcotest.(check bool) "all well formed" true (Obs_span.all_well_formed t);
  Alcotest.(check int) "count request" 1 (Obs_span.count_named t "request");
  Alcotest.(check int) "count preempted" 1 (Obs_span.count_named t "preempted");
  Alcotest.(check int) "length" 4 (Obs_span.length t)

let test_span_tree_violations () =
  (* Orphan parent reference. *)
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~name:"request" 0. 10.);
  Obs_span.record t (span ~id:1 ~parent:99 ~name:"lost" 1. 2.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "orphans" 1 st.Obs_span.orphans;
  Alcotest.(check bool) "not well formed" false (Obs_span.all_well_formed t);
  (* Two roots in one request trace. *)
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~name:"a" 0. 5.);
  Obs_span.record t (span ~id:1 ~name:"b" 5. 9.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "multi root" 1 st.Obs_span.multi_root;
  (* Child escapes its parent's interval. *)
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~name:"request" 2. 5.);
  Obs_span.record t (span ~id:1 ~parent:0 ~name:"early" 0. 4.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "nest violation" 1 st.Obs_span.nest_violations;
  (* Inverted interval. *)
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~name:"request" 5. 1.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "inverted" 1 st.Obs_span.inverted

let test_span_ops_trace_exempt () =
  (* Negative traces are operational streams: many roots, no tree rule. *)
  let t = Obs_span.create () in
  for i = 0 to 4 do
    let at = float_of_int i in
    Obs_span.record t
      (span ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:i
         ~name:"checkpoint" at at)
  done;
  let st = Obs_span.validate t in
  Alcotest.(check int) "no request traces" 0 st.Obs_span.traces;
  Alcotest.(check bool) "well formed" true (Obs_span.all_well_formed t)

let test_span_sink_and_limit () =
  let t = Obs_span.create ~limit:2 () in
  let sink = Obs_span.sink t in
  for i = 0 to 3 do
    sink
      (Obs_sink.Span
         {
           trace = i;
           span = 0;
           parent = Obs_span.no_parent;
           track = 0;
           name = "request";
           t0 = 0.;
           t1 = 1.;
         })
  done;
  (* Non-span events are ignored, not recorded. *)
  sink (Obs_sink.Ladder { level = "normal"; occupancy = 0.1; at = 0. });
  Alcotest.(check int) "kept up to limit" 2 (Obs_span.length t);
  Alcotest.(check int) "dropped counted" 2 (Obs_span.dropped t)

let test_span_chrome_roundtrip () =
  let t = Obs_span.create () in
  Obs_span.record t (span ~id:0 ~track:3 ~name:"request" 0. 10.);
  Obs_span.record t (span ~id:1 ~parent:0 ~track:3 ~name:"service" 2. 10.);
  Obs_span.record t
    (span ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:2
       ~name:"restore" 4. 4.);
  let path = Filename.temp_file "autobatch-span" ".json" in
  Obs_span.write t ~path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  match Obs_json.of_string contents with
  | Error e -> Alcotest.failf "chrome export unparseable: %s" e
  | Ok doc -> (
    match Obs_json.member "traceEvents" doc with
    | Some (Obs_json.List evs) ->
      (* 2 "X" spans + 1 instant + thread-name metadata records. *)
      Alcotest.(check bool) "has events" true (List.length evs >= 3)
    | _ -> Alcotest.fail "no traceEvents array")

let test_span_server_integration () =
  (* A small tenant trace run bare and observed: attaching the recorder
     must not move the simulated clock, and every completion must appear
     as exactly one well-formed tree. *)
  let run sink =
    Tenant_load.run ~n_requests:200 ~verify:false ~keep_outputs:true
      ~baseline:false ?sink ()
  in
  let bare = run None in
  let recorder = Obs_span.create () in
  let observed = run (Some (Obs_span.sink recorder)) in
  let stats (r : Tenant_load.result) =
    r.Tenant_load.fair.Tenant_load.stats
  in
  let digest r =
    List.map
      (fun c ->
        ( c.Tenant_server.c_item.Admission.request.Request.id,
          c.Tenant_server.c_started,
          c.Tenant_server.c_finished ))
      (stats r).Tenant_server.completions
  in
  Alcotest.(check (float 0.))
    "same makespan"
    (stats bare).Tenant_server.makespan
    (stats observed).Tenant_server.makespan;
  Alcotest.(check bool) "same completions" true (digest bare = digest observed);
  let n_done = List.length (stats observed).Tenant_server.completions in
  Alcotest.(check bool) "completions exist" true (n_done > 0);
  Alcotest.(check int) "one tree per completion" n_done
    (Obs_span.count_named recorder "request");
  Alcotest.(check bool) "trees well formed" true
    (Obs_span.all_well_formed recorder)

(* ---------- Obs_window ---------- *)

let test_window_counter () =
  let c = Obs_window.counter ~buckets:10 ~window:10. () in
  for i = 0 to 4 do
    Obs_window.add c ~now:(float_of_int i) 1.
  done;
  Alcotest.(check (float 1e-9)) "total in window" 5. (Obs_window.total c ~now:4.);
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Obs_window.rate c ~now:4.);
  Alcotest.(check (float 1e-9)) "all expired" 0. (Obs_window.total c ~now:100.);
  Obs_window.add c ~now:100. 3.;
  Alcotest.(check (float 1e-9)) "fresh after slide" 3.
    (Obs_window.total c ~now:100.);
  (* An observation older than the ring is dropped, not resurrected. *)
  Obs_window.add c ~now:50. 7.;
  Alcotest.(check (float 1e-9)) "stale add dropped" 3.
    (Obs_window.total c ~now:100.)

let test_window_hist () =
  let h = Obs_window.hist ~buckets:10 ~window:10. () in
  List.iter
    (fun (t, v) -> Obs_window.observe h ~now:t v)
    [ (0., 0.010); (1., 0.020); (2., 0.030); (3., 0.040); (4., 0.050) ];
  Alcotest.(check int) "count" 5 (Obs_window.hist_count h ~now:4.);
  Alcotest.(check (float 1e-9)) "sum" 0.15 (Obs_window.hist_sum h ~now:4.);
  Alcotest.(check (float 1e-9)) "mean" 0.03 (Obs_window.hist_mean h ~now:4.);
  let p50 = Obs_window.hist_quantile h ~now:4. 0.5 in
  Alcotest.(check bool) "p50 within range" true (p50 >= 0.010 && p50 <= 0.050);
  (* Slide past everything: the window forgets. *)
  Alcotest.(check int) "count after slide" 0 (Obs_window.hist_count h ~now:50.);
  Alcotest.(check bool) "quantile empty is nan" true
    (Float.is_nan (Obs_window.hist_quantile h ~now:50. 0.5))

(* ---------- Obs_slo ---------- *)

let slo_monitor () =
  Obs_slo.create
    ~classes:
      [
        Obs_slo.class_config ~cls:"lat" ~threshold:0.1 ~budget:0.1
          ~fast_window:10. ~slow_window:50. ~burn_threshold:2. ();
      ]
    ()

let test_slo_fire_and_resolve () =
  let t = slo_monitor () in
  (* Clean traffic: nothing fires. *)
  for i = 0 to 19 do
    Obs_slo.observe t ~cls:"lat" ~now:(0.1 *. float_of_int i) ~ok:true
  done;
  Alcotest.(check (list Alcotest.bool)) "quiet" []
    (List.map (fun a -> a.Obs_slo.a_fired) (Obs_slo.poll t ~now:2.));
  Alcotest.(check bool) "not firing" false (Obs_slo.firing t ~cls:"lat");
  (* Sustained badness: both windows burn, one fire edge. *)
  for i = 0 to 19 do
    Obs_slo.observe t ~cls:"lat" ~now:(2. +. (0.1 *. float_of_int i)) ~ok:false
  done;
  (match Obs_slo.poll t ~now:4. with
  | [ a ] ->
    Alcotest.(check bool) "fired" true a.Obs_slo.a_fired;
    Alcotest.(check string) "class" "lat" a.Obs_slo.a_cls;
    Alcotest.(check bool) "burns reported" true
      (a.Obs_slo.a_burn_fast >= 2. && a.Obs_slo.a_burn_slow >= 2.)
  | alerts -> Alcotest.failf "expected one fire edge, got %d" (List.length alerts));
  Alcotest.(check bool) "firing" true (Obs_slo.firing t ~cls:"lat");
  Alcotest.(check bool) "any firing" true (Obs_slo.any_firing t);
  (* Steady state: the edge is not re-reported. *)
  Alcotest.(check int) "no repeat" 0 (List.length (Obs_slo.poll t ~now:4.5));
  (* Recovery: the bad window ages out entirely, burns drop under half
     the threshold, one resolve edge. *)
  for i = 0 to 99 do
    Obs_slo.observe t ~cls:"lat" ~now:(10. +. float_of_int i) ~ok:true
  done;
  (match Obs_slo.poll t ~now:109. with
  | [ a ] -> Alcotest.(check bool) "resolved" false a.Obs_slo.a_fired
  | alerts ->
    Alcotest.failf "expected one resolve edge, got %d" (List.length alerts));
  Alcotest.(check bool) "not firing after" false (Obs_slo.firing t ~cls:"lat");
  Alcotest.(check int) "one fire total" 1 (Obs_slo.fired_total t)

let test_slo_latency_and_unknown () =
  let t = slo_monitor () in
  (* observe_latency classifies against the class threshold. *)
  for i = 0 to 9 do
    Obs_slo.observe_latency t ~cls:"lat" ~now:(float_of_int i) 0.05
  done;
  let fast, slow = Obs_slo.burn_rates t ~cls:"lat" ~now:9. in
  Alcotest.(check (float 1e-9)) "fast burn clean" 0. fast;
  Alcotest.(check (float 1e-9)) "slow burn clean" 0. slow;
  for i = 0 to 9 do
    Obs_slo.observe_latency t ~cls:"lat" ~now:(9. +. float_of_int i) 0.5
  done;
  let fast, _ = Obs_slo.burn_rates t ~cls:"lat" ~now:18. in
  Alcotest.(check bool) "fast burn hot" true (fast > 2.);
  (* Unknown classes are ignored, not errors. *)
  Obs_slo.observe t ~cls:"nope" ~now:0. ~ok:false;
  let f, s = Obs_slo.burn_rates t ~cls:"nope" ~now:1. in
  Alcotest.(check (float 0.)) "unknown fast" 0. f;
  Alcotest.(check (float 0.)) "unknown slow" 0. s

let test_slo_config_validation () =
  let invalid f = Alcotest.check_raises "rejects" (Invalid_argument "") f in
  let check_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  ignore invalid;
  check_invalid (fun () -> Obs_slo.class_config ~cls:"x" ~threshold:0. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~budget:0. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~budget:1.5 ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~fast_window:60.
        ~slow_window:60. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~burn_threshold:0. ());
  check_invalid (fun () -> Obs_slo.create ~classes:[] ())

let test_slo_alert_event () =
  let a =
    {
      Obs_slo.a_cls = "lat";
      a_fired = true;
      a_burn_fast = 3.5;
      a_burn_slow = 2.5;
      a_at = 7.;
    }
  in
  match Obs_slo.alert_to_event a with
  | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ->
    Alcotest.(check string) "slo" "lat" slo;
    Alcotest.(check bool) "fired" true fired;
    Alcotest.(check (float 0.)) "fast" 3.5 burn_fast;
    Alcotest.(check (float 0.)) "slow" 2.5 burn_slow;
    Alcotest.(check (float 0.)) "at" 7. at
  | _ -> Alcotest.fail "expected Slo_alert"

(* A monitor that fires must still only observe: the adversarial flood
   rejects far more than a 5% budget allows, so alerts fire, yet every
   completion (id, start, finish, outputs), the makespan and the round
   count match the same run without a monitor bit for bit. *)
let test_slo_firing_monitor_unperturbed () =
  let run slo =
    Tenant_load.run ~pattern:Tenant_load.Adversarial ~n_requests:500 ~verify:false
      ~keep_outputs:true ~baseline:false ?slo ()
  in
  let slo =
    Obs_slo.create
      ~classes:
        (List.map
           (fun cls -> Obs_slo.class_config ~cls ~threshold:infinity ~burn_threshold:6. ())
           [ "latency"; "throughput"; "best-effort" ])
      ()
  in
  let bare = run None and monitored = run (Some slo) in
  Alcotest.(check bool) "monitor fired" true (Obs_slo.fired_total slo >= 1);
  let stats (r : Tenant_load.result) = r.Tenant_load.fair.Tenant_load.stats in
  let digest r =
    List.map
      (fun c ->
        ( c.Tenant_server.c_item.Admission.request.Request.id,
          Int64.bits_of_float c.Tenant_server.c_started,
          Int64.bits_of_float c.Tenant_server.c_finished,
          Option.map
            (List.map (fun t -> Array.map Int64.bits_of_float (Tensor.data t)))
            c.Tenant_server.c_outputs ))
      (stats r).Tenant_server.completions
  in
  Alcotest.(check bool) "completions exist" true (digest monitored <> []);
  Alcotest.(check bool) "same completions" true (digest bare = digest monitored);
  Alcotest.(check int64) "same makespan"
    (Int64.bits_of_float (stats bare).Tenant_server.makespan)
    (Int64.bits_of_float (stats monitored).Tenant_server.makespan);
  Alcotest.(check int) "same rounds" (stats bare).Tenant_server.rounds
    (stats monitored).Tenant_server.rounds

(* ---------- Obs_wall ---------- *)

let test_wall_measures_allocation () =
  let (xs, s) =
    Obs_wall.time (fun () -> Sys.opaque_identity (List.init 200_000 Fun.id))
  in
  Alcotest.(check int) "result passed through" 200_000 (List.length xs);
  Alcotest.(check bool) "wall nonneg" true (s.Obs_wall.wall_s >= 0.);
  Alcotest.(check bool) "allocation observed" true
    (Obs_wall.alloc_words s > 0.);
  Alcotest.(check bool) "rate consistent" true
    (s.Obs_wall.wall_s = 0. || Obs_wall.alloc_rate s > 0.);
  (* add is fieldwise. *)
  let two = Obs_wall.add s s in
  Alcotest.(check (float 1e-12)) "add wall" (2. *. s.Obs_wall.wall_s)
    two.Obs_wall.wall_s;
  Alcotest.(check (float 1e-3)) "add alloc"
    (2. *. Obs_wall.alloc_words s)
    (Obs_wall.alloc_words two)

(* ---------- Obs_json round-trip fuzzing ---------- *)

(* Scalars whose compact rendering parses back to the identical value:
   ints, bools, null, printable strings, and dyadic floats with few
   significant digits (the printer uses %.12g; sixteenths stay exact). *)
let gen_exact_doc =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Obs_json.Null;
        map (fun b -> Obs_json.Bool b) bool;
        map (fun n -> Obs_json.Int n) (int_range (-1_000_000_000) 1_000_000_000);
        map
          (fun m -> Obs_json.Float (float_of_int m /. 16.))
          (int_range (-10_000) 10_000);
        map (fun s -> Obs_json.Str s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  sized
    (fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun xs -> Obs_json.List xs)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs_json.Obj kvs)
                   (list_size (0 -- 4)
                      (pair (string_size ~gen:printable (0 -- 8)) (self (n / 2))))
               );
             ]))

let arb_exact_doc = QCheck.make ~print:Obs_json.to_string gen_exact_doc

let prop_roundtrip_id =
  QCheck.Test.make ~name:"print . parse = id on representable documents"
    ~count:300 arb_exact_doc (fun d ->
      match Obs_json.of_string (Obs_json.to_string d) with
      | Ok d' -> d' = d
      | Error e -> QCheck.Test.fail_reportf "own output unparseable: %s" e)

let prop_pretty_agrees =
  QCheck.Test.make ~name:"pretty rendering parses to the same value"
    ~count:150 arb_exact_doc (fun d ->
      match Obs_json.of_string (Obs_json.to_string_pretty d) with
      | Ok d' -> d' = d
      | Error e -> QCheck.Test.fail_reportf "pretty output unparseable: %s" e)

(* Arbitrary floats (non-finite included) need not round-trip exactly,
   but one print/parse pass must reach a fixed point. *)
let prop_print_idempotent =
  QCheck.Test.make ~name:"print . parse . print is a fixed point" ~count:300
    QCheck.(map (fun f -> Obs_json.Float f) float)
    (fun d ->
      let s = Obs_json.to_string d in
      match Obs_json.of_string s with
      | Ok d' -> Obs_json.to_string d' = s
      | Error e -> QCheck.Test.fail_reportf "own output unparseable: %s" e)

let prop_parser_total_on_garbage =
  QCheck.Test.make ~name:"parser never raises on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 40))
    (fun s -> match Obs_json.of_string s with Ok _ | Error _ -> true)

let prop_parser_total_on_truncation =
  QCheck.Test.make ~name:"parser never raises on truncated documents"
    ~count:300
    QCheck.(pair arb_exact_doc (0 -- 1000))
    (fun (d, cut) ->
      let s = Obs_json.to_string d in
      let prefix = String.sub s 0 (min cut (String.length s)) in
      match Obs_json.of_string prefix with Ok _ | Error _ -> true)

let suites =
  [
    ( "span",
      [
        Alcotest.test_case "tree well-formed" `Quick test_span_tree_well_formed;
        Alcotest.test_case "tree violations" `Quick test_span_tree_violations;
        Alcotest.test_case "ops trace exempt" `Quick test_span_ops_trace_exempt;
        Alcotest.test_case "sink and limit" `Quick test_span_sink_and_limit;
        Alcotest.test_case "chrome round-trip" `Quick test_span_chrome_roundtrip;
        Alcotest.test_case "server integration" `Quick
          test_span_server_integration;
      ] );
    ( "window",
      [
        Alcotest.test_case "sliding counter" `Quick test_window_counter;
        Alcotest.test_case "rolling histogram" `Quick test_window_hist;
      ] );
    ( "slo",
      [
        Alcotest.test_case "fire and resolve" `Quick test_slo_fire_and_resolve;
        Alcotest.test_case "latency and unknown class" `Quick
          test_slo_latency_and_unknown;
        Alcotest.test_case "config validation" `Quick test_slo_config_validation;
        Alcotest.test_case "alert to event" `Quick test_slo_alert_event;
        Alcotest.test_case "firing monitor leaves the run unperturbed" `Quick
          test_slo_firing_monitor_unperturbed;
      ] );
    ( "wall",
      [
        Alcotest.test_case "measures allocation" `Quick
          test_wall_measures_allocation;
      ] );
    ( "json-fuzz",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip_id;
          prop_pretty_agrees;
          prop_print_idempotent;
          prop_parser_total_on_garbage;
          prop_parser_total_on_truncation;
        ] );
  ]
