(* The request-scoped tracing layer: span recording into Obs_trace and
   tree validation (Obs_span), sliding-window counters (Obs_window), the
   multi-window burn-rate monitor (Obs_slo) and the sink that feeds it
   from request events, wall-clock probes
   (Obs_wall), and a QCheck round-trip fuzzer for the JSON layer
   everything exports through. The end-to-end invariants — spans cost
   zero simulated time, every completion gets exactly one tree — are
   gated by `bench observe`; this file covers the unit contracts. *)

let span ?(trace = 0) ?(track = 0) ~id ?(parent = Obs_span.no_parent) ~name t0
    t1 =
  Obs_sink.Span { trace; span = id; parent; track; name; t0; t1 }

(* A trace fed through the span-only sink, and readers over its spans. *)
let recorder ?limit () =
  let t = Obs_trace.create ?limit () in
  (t, Obs_span.sink t)

let span_names t =
  let names = ref [] in
  Obs_trace.iter t (fun e ->
      match e.ev with Obs_sink.Span { name; _ } -> names := name :: !names | _ -> ());
  !names

let count_named t name = List.length (List.filter (String.equal name) (span_names t))

(* The Chrome export of [t], re-parsed: its events, and the name of
   every thread that carries an event of category [cat]. *)
let chrome_threads t ~cat =
  let path = Filename.temp_file "autobatch-span" ".json" in
  Obs_trace.write t ~path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let evs =
    match Obs_json.of_string contents with
    | Error e -> Alcotest.failf "chrome export unparseable: %s" e
    | Ok doc -> (
      match Obs_json.member "traceEvents" doc with
      | Some (Obs_json.List evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array")
  in
  let str k ev = match Obs_json.member k ev with Some (Obs_json.Str s) -> s | _ -> "" in
  let tid ev = match Obs_json.member "tid" ev with Some (Obs_json.Int n) -> n | _ -> -1 in
  let names =
    List.filter_map
      (fun ev ->
        if str "ph" ev = "M" then
          match Obs_json.member "args" ev with
          | Some args -> Some (tid ev, str "name" args)
          | None -> None
        else None)
      evs
  in
  let threads =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> if str "cat" ev = cat then List.assoc_opt (tid ev) names else None)
         evs)
  in
  (evs, threads)

(* ---------- Obs_span ---------- *)

let test_span_tree_well_formed () =
  let t, record = recorder () in
  record (span ~id:0 ~name:"request" 0. 10.);
  record (span ~id:1 ~parent:0 ~name:"queue" 0. 4.);
  record (span ~id:2 ~parent:0 ~name:"service" 4. 10.);
  record (span ~id:3 ~parent:2 ~name:"preempted" 5. 7.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "one trace" 1 st.Obs_span.traces;
  Alcotest.(check int) "well formed" 1 st.Obs_span.well_formed;
  Alcotest.(check bool) "all well formed" true (Obs_span.all_well_formed st);
  Alcotest.(check int) "count request" 1 (count_named t "request");
  Alcotest.(check int) "count preempted" 1 (count_named t "preempted");
  Alcotest.(check int) "length" 4 (Obs_trace.length t)

let test_span_tree_violations () =
  (* Orphan parent reference. *)
  let t, record = recorder () in
  record (span ~id:0 ~name:"request" 0. 10.);
  record (span ~id:1 ~parent:99 ~name:"lost" 1. 2.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "orphans" 1 st.Obs_span.orphans;
  Alcotest.(check bool) "not well formed" false (Obs_span.all_well_formed st);
  (* Two roots in one request trace. *)
  let t, record = recorder () in
  record (span ~id:0 ~name:"a" 0. 5.);
  record (span ~id:1 ~name:"b" 5. 9.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "multi root" 1 st.Obs_span.multi_root;
  (* Child escapes its parent's interval. *)
  let t, record = recorder () in
  record (span ~id:0 ~name:"request" 2. 5.);
  record (span ~id:1 ~parent:0 ~name:"early" 0. 4.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "nest violation" 1 st.Obs_span.nest_violations;
  (* Inverted interval. *)
  let t, record = recorder () in
  record (span ~id:0 ~name:"request" 5. 1.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "inverted" 1 st.Obs_span.inverted

let test_span_ops_trace_exempt () =
  (* Negative traces are operational streams: many roots, no tree rule. *)
  let t, record = recorder () in
  for i = 0 to 4 do
    let at = float_of_int i in
    record
      (span ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:i
         ~name:"checkpoint" at at)
  done;
  let st = Obs_span.validate t in
  Alcotest.(check int) "no request traces" 0 st.Obs_span.traces;
  Alcotest.(check bool) "well formed" true (Obs_span.all_well_formed st)

let test_span_sink_and_limit () =
  let t, sink = recorder ~limit:2 () in
  for i = 0 to 3 do
    sink (span ~trace:i ~id:0 ~name:"request" 0. 1.)
  done;
  (* Non-span events are ignored, not recorded. *)
  sink (Obs_sink.Ladder { level = "normal"; occupancy = 0.1; at = 0. });
  Alcotest.(check int) "kept up to limit" 2 (Obs_trace.length t);
  Alcotest.(check int) "dropped counted" 2 (Obs_trace.dropped t)

let test_span_chrome_roundtrip () =
  let t, record = recorder () in
  record (span ~id:0 ~track:3 ~name:"request" 0. 10.);
  record (span ~id:1 ~parent:0 ~track:3 ~name:"service" 2. 10.);
  record
    (span ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:2
       ~name:"restore" 4. 4.);
  let evs, threads = chrome_threads t ~cat:"span" in
  (* 2 "X" spans + 1 instant + thread-name metadata records. *)
  Alcotest.(check bool) "has events" true (List.length evs >= 3);
  Alcotest.(check (list string)) "one thread per track" [ "ops"; "tenant 3" ] threads;
  (* Two recording tracks holding spans (the arms of a sweep, each on its
     own simulated clock) keep apart, named after their track. *)
  let t = Obs_trace.create () in
  List.iter
    (fun arm ->
      let track = Obs_trace.track t arm in
      Obs_trace.record t ~track ~ts:0. (span ~id:0 ~name:"request" 0. 1.))
    [ "open"; "closed" ];
  let _, threads = chrome_threads t ~cat:"span" in
  Alcotest.(check (list string)) "one thread per arm and track"
    [ "closed tenant 0"; "open tenant 0" ] threads

let test_span_mixed_trace () =
  (* One trace takes the whole stream: supersteps on two shards,
     occupancy, a launch, two tenants' request trees, ops and cache
     instants. The validator reads only the span trees, and the export
     gives the spans their own threads, one per tenant plus ops. *)
  let t = Obs_trace.create () in
  let vm = Obs_trace.track t "vm" in
  let now = ref 0. in
  let sink = Obs_trace.sink t ~track:vm ~clock:(fun () -> !now) in
  let step shard step block =
    sink (Obs_sink.Step { shard; step; block });
    sink
      (Obs_sink.Occupancy
         { shard; step; block; active = 2; live = 3; total = 4; width = 4; depth = 1 })
  in
  step 0 1 0;
  sink (Obs_sink.Launched { kind = Obs_sink.Fused_block; name = "block 0"; t0 = 0.; t1 = 1. });
  sink (span ~trace:0 ~track:2 ~id:0 ~name:"request" 0. 6.);
  sink (span ~trace:0 ~track:2 ~id:1 ~parent:0 ~name:"service" 1. 6.);
  now := 1.;
  step 1 1 1;
  sink (span ~trace:1 ~track:5 ~id:0 ~name:"request" 1. 8.);
  sink (span ~trace:1 ~track:5 ~id:1 ~parent:0 ~name:"queue" 1. 3.);
  sink
    (span ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:0
       ~name:"checkpoint" 2. 2.);
  sink
    (span ~trace:Obs_span.cache_trace ~track:Obs_span.ops_track ~id:0
       ~name:"cache-hit" 2. 2.);
  let st = Obs_span.validate t in
  Alcotest.(check int) "request traces only" 2 st.Obs_span.traces;
  Alcotest.(check bool) "all well formed" true (Obs_span.all_well_formed st);
  Alcotest.(check int) "spans among entries" 6 (List.length (span_names t));
  let _, span_threads = chrome_threads t ~cat:"span" in
  Alcotest.(check (list string)) "one thread per tenant plus ops"
    [ "ops"; "tenant 2"; "tenant 5" ] span_threads;
  let _, step_threads = chrome_threads t ~cat:"superstep" in
  Alcotest.(check (list string)) "superstep threads per shard"
    [ "vm"; "vm/shard1" ] step_threads

let test_span_server_integration () =
  (* A small tenant trace run bare and observed: attaching the recorder
     must not move the simulated clock, and every completion must appear
     as exactly one well-formed tree. *)
  let run sink =
    Tenant_load.run ~n_requests:200 ~verify:false ~keep_outputs:true
      ~baseline:false ?sink ()
  in
  let bare = run None in
  let recorder, sink = recorder () in
  let observed = run (Some sink) in
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
    (count_named recorder "request");
  Alcotest.(check bool) "trees well formed" true
    (Obs_span.all_well_formed (Obs_span.validate recorder))

(* ---------- Obs_window ---------- *)

let test_window_counter () =
  let c = Obs_window.counter ~window:10. () in
  for i = 0 to 4 do
    Obs_window.add c ~now:(float_of_int i) 1.
  done;
  Alcotest.(check (float 1e-9)) "total in window" 5. (Obs_window.total c ~now:4.);
  Alcotest.(check (float 1e-9)) "all expired" 0. (Obs_window.total c ~now:100.);
  Obs_window.add c ~now:100. 3.;
  Alcotest.(check (float 1e-9)) "fresh after slide" 3.
    (Obs_window.total c ~now:100.);
  (* An observation older than the ring is dropped, not resurrected. *)
  Obs_window.add c ~now:50. 7.;
  Alcotest.(check (float 1e-9)) "stale add dropped" 3.
    (Obs_window.total c ~now:100.)

(* ---------- Obs_slo ---------- *)

let slo_monitor () =
  Obs_slo.create
    ~classes:
      [
        Obs_slo.class_config ~cls:"lat" ~threshold:0.1 ~budget:0.1
          ~fast_window:10. ~slow_window:50. ~burn_threshold:2. ();
      ]
    ()

(* A completion of class [cls] that finished at [finished] after
   [latency] simulated seconds. *)
let completed ?(cls = "lat") ~finished latency =
  Obs_sink.Request_completed
    { id = 0; cls; queued = finished -. latency; started = finished; finished }

let shed ?(cls = "lat") at = Obs_sink.Request_shed { id = 0; cls; at }
let round at = Obs_sink.Round { round = 0; at }

let test_slo_fire_and_resolve () =
  let t = slo_monitor () in
  let edges = ref [] in
  let feed = Obs_slo.sink t ~alerts:(fun ev -> edges := ev :: !edges) in
  (* The edges the round at [at] reported. *)
  let poll at =
    edges := [];
    feed (round at);
    List.rev !edges
  in
  (* Clean traffic: nothing fires. *)
  for i = 0 to 19 do
    feed (completed ~finished:(0.1 *. float_of_int i) 0.05)
  done;
  Alcotest.(check int) "quiet" 0 (List.length (poll 2.));
  Alcotest.(check bool) "not firing" false (Obs_slo.firing t ~cls:"lat");
  (* Sustained badness: both windows burn, one fire edge. *)
  for i = 0 to 19 do
    feed (shed (2. +. (0.1 *. float_of_int i)))
  done;
  (match poll 4. with
  | [ Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; _ } ] ->
    Alcotest.(check bool) "fired" true fired;
    Alcotest.(check string) "class" "lat" slo;
    Alcotest.(check bool) "burns reported" true (burn_fast >= 2. && burn_slow >= 2.)
  | alerts -> Alcotest.failf "expected one fire edge, got %d" (List.length alerts));
  Alcotest.(check bool) "firing" true (Obs_slo.firing t ~cls:"lat");
  (* Steady state: the edge is not re-reported. *)
  Alcotest.(check int) "no repeat" 0 (List.length (poll 4.5));
  (* Recovery: the bad window ages out entirely, burns drop under half
     the threshold, one resolve edge. *)
  for i = 0 to 99 do
    feed (completed ~finished:(10. +. float_of_int i) 0.05)
  done;
  (match poll 109. with
  | [ Obs_sink.Slo_alert { fired; _ } ] -> Alcotest.(check bool) "resolved" false fired
  | alerts ->
    Alcotest.failf "expected one resolve edge, got %d" (List.length alerts));
  Alcotest.(check bool) "not firing after" false (Obs_slo.firing t ~cls:"lat");
  Alcotest.(check int) "one fire total" 1 (Obs_slo.fired_total t)

let test_slo_latency_and_unknown () =
  let t = slo_monitor () in
  let feed = Obs_slo.sink t ~alerts:ignore in
  (* A completion is classified against the class threshold. *)
  for i = 0 to 9 do
    feed (completed ~finished:(float_of_int i) 0.05)
  done;
  let fast, slow = Obs_slo.burn_rates t ~cls:"lat" ~now:9. in
  Alcotest.(check (float 1e-9)) "fast burn clean" 0. fast;
  Alcotest.(check (float 1e-9)) "slow burn clean" 0. slow;
  for i = 0 to 9 do
    feed (completed ~finished:(9. +. float_of_int i) 0.5)
  done;
  let fast, _ = Obs_slo.burn_rates t ~cls:"lat" ~now:18. in
  Alcotest.(check bool) "fast burn hot" true (fast > 2.);
  (* Unknown classes are ignored, not errors. *)
  feed (shed ~cls:"nope" 0.);
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

(* What the sink counts: [(observed, breached)] after feeding [events]
   to a fresh monitor (threshold 0.125 s, exact in binary). *)
let sink_counts events =
  let t =
    Obs_slo.create
      ~classes:[ Obs_slo.class_config ~cls:"lat" ~threshold:0.125 ~budget:0.1 () ]
      ()
  in
  List.iter (Obs_slo.sink t ~alerts:(fun _ -> Alcotest.fail "alert without a round")) events;
  let count k =
    match Obs_json.member "lat" (Obs_slo.to_json t ~now:10.) with
    | Some doc -> (
      match Obs_json.member k doc with
      | Some (Obs_json.Int n) -> n
      | _ -> Alcotest.failf "no %s count" k)
    | None -> Alcotest.fail "no class document"
  in
  (count "observed", count "breached")

let test_slo_sink_counting () =
  let counts = Alcotest.(pair int int) in
  let rejected reason =
    Obs_sink.Request_rejected { id = 0; cls = "lat"; reason; at = 1. }
  in
  (* Sheds and admission's own refusals burn the budget. *)
  Alcotest.check counts "shed" (1, 1) (sink_counts [ shed 1. ]);
  List.iter
    (fun reason -> Alcotest.check counts reason (1, 1) (sink_counts [ rejected reason ]))
    [ "queue-full"; "overloaded:shed-best-effort"; "overloaded:cap-width";
      "overloaded:reject-new" ];
  (* Refusals before the queue, and enqueues, are not observed. *)
  List.iter
    (fun reason -> Alcotest.check counts reason (0, 0) (sink_counts [ rejected reason ]))
    [ "throttled"; "invalid-input"; "too-wide" ];
  Alcotest.check counts "enqueue" (0, 0)
    (sink_counts [ Obs_sink.Request_enqueued { id = 0; at = 1. } ]);
  (* A completion is bad exactly when finished - queued exceeds the
     threshold. *)
  Alcotest.check counts "at threshold" (1, 0)
    (sink_counts [ completed ~finished:1.125 0.125 ]);
  Alcotest.check counts "over threshold" (1, 1)
    (sink_counts
       [
         Obs_sink.Request_completed
           { id = 0; cls = "lat"; queued = 1.; started = Float.succ 1.125;
             finished = Float.succ 1.125 };
       ]);
  (* Other classes and other events are not this class's business. *)
  Alcotest.check counts "unknown class" (0, 0)
    (sink_counts
       [
         shed ~cls:"nope" 1.;
         Obs_sink.Ladder { level = "normal"; occupancy = 0.; at = 1. };
         Obs_sink.Checkpoint { step = 1; bytes = 8 };
       ])

(* Alert edges leave the sink only on a [Round], stamped with its clock,
   as [Slo_alert] events. *)
let test_slo_alert_event () =
  let t = slo_monitor () in
  let alerts = ref [] in
  let feed = Obs_slo.sink t ~alerts:(fun ev -> alerts := ev :: !alerts) in
  for i = 0 to 19 do
    feed (shed (0.1 *. float_of_int i))
  done;
  Alcotest.(check int) "no edge before a round" 0 (List.length !alerts);
  feed (Obs_sink.Round { round = 7; at = 2.5 });
  (match !alerts with
  | [ Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ] ->
    Alcotest.(check string) "slo" "lat" slo;
    Alcotest.(check bool) "fired" true fired;
    (* Every observation is bad: both burns are 1 / budget. *)
    Alcotest.(check (float 0.)) "fast" 10. burn_fast;
    Alcotest.(check (float 0.)) "slow" 10. burn_slow;
    Alcotest.(check (float 0.)) "at" 2.5 at
  | _ -> Alcotest.fail "expected one Slo_alert");
  feed (Obs_sink.Round { round = 8; at = 2.6 });
  Alcotest.(check int) "steady state is silent" 1 (List.length !alerts);
  Alcotest.(check bool) "firing" true (Obs_slo.firing t ~cls:"lat")

(* The 500-request adversarial run, once without a monitor and once
   with one in its sink; the monitored run also keeps every alert edge,
   oldest first. *)
let adversarial_runs =
  lazy
    (let run ?sink () =
       Tenant_load.run ~pattern:Tenant_load.Adversarial ~n_requests:500 ~verify:false
         ~keep_outputs:true ~baseline:false ?sink ()
     in
     let slo =
       Obs_slo.create
         ~classes:
           (List.map
              (fun cls -> Obs_slo.class_config ~cls ~threshold:infinity ~burn_threshold:6. ())
              [ "latency"; "throughput"; "best-effort" ])
         ()
     in
     let alerts = ref [] in
     let bare = run () in
     let monitored =
       run ~sink:(Obs_slo.sink slo ~alerts:(fun ev -> alerts := ev :: !alerts)) ()
     in
     (bare, monitored, slo, List.rev !alerts))

(* A monitor that fires must still only observe: the adversarial flood
   rejects far more than a 5% budget allows, so alerts fire, yet every
   completion (id, start, finish, outputs), the makespan and the round
   count match the same run without a monitor bit for bit. *)
let test_slo_firing_monitor_unperturbed () =
  let bare, monitored, slo, _ = Lazy.force adversarial_runs in
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

(* Every alert edge of the adversarial run, pinned bit for bit: class,
   edge, clock and both burn rates, floats in hex. *)
let test_slo_alerts_golden () =
  let _, _, _, alerts = Lazy.force adversarial_runs in
  let line = function
    | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ->
      Printf.sprintf "%s %s at=%h fast=%h slow=%h\n" slo
        (if fired then "fired" else "resolved")
        at burn_fast burn_slow
    | _ -> assert false
  in
  Alcotest.(check bool) "some edges" true (alerts <> []);
  Result.iter_error Alcotest.fail
    (Golden.check ~path:"slo_alerts_golden.txt" (String.concat "" (List.map line alerts)))

(* ---------- Obs_wall ---------- *)

let test_wall_measures_allocation () =
  let (xs, s) =
    Obs_wall.time (fun () -> Sys.opaque_identity (List.init 200_000 Fun.id))
  in
  Alcotest.(check int) "result passed through" 200_000 (List.length xs);
  Alcotest.(check bool) "wall nonneg" true (s.Obs_wall.wall_s >= 0.);
  Alcotest.(check bool) "allocation observed" true
    (Obs_wall.alloc_words s > 0.)

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
        Alcotest.test_case "mixed trace: trees and span threads" `Quick
          test_span_mixed_trace;
        Alcotest.test_case "server integration" `Quick
          test_span_server_integration;
      ] );
    ( "window",
      [
        Alcotest.test_case "sliding counter" `Quick test_window_counter;
      ] );
    ( "slo",
      [
        Alcotest.test_case "fire and resolve" `Quick test_slo_fire_and_resolve;
        Alcotest.test_case "latency and unknown class" `Quick
          test_slo_latency_and_unknown;
        Alcotest.test_case "config validation" `Quick test_slo_config_validation;
        Alcotest.test_case "alert to event" `Quick test_slo_alert_event;
        Alcotest.test_case "sink counting rule" `Quick test_slo_sink_counting;
        Alcotest.test_case "firing monitor leaves the run unperturbed" `Quick
          test_slo_firing_monitor_unperturbed;
        Alcotest.test_case "alert edges golden" `Quick test_slo_alerts_golden;
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
