type point = {
  mode : string;
  policy : string;
  load : float;
  offered : float;
  completed : int;
  shed : int;
  throughput : float;
  mean_occupancy : float;
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  makespan : float;
  verified : int;
  mismatches : int;
}

type stats = {
  lanes : int;
  n_requests : int;
  solo_service : float;
  sched_policy : string;
  points : point list;
}

let policies = [ "synchronous"; "fifo"; "shortest" ]

(* Every admission policy is a setting of the one serving runtime: FIFO
   is the FIFO admission queue with continuous refill, shortest-first
   swaps the queue's pop, and the fixed-batch baseline keeps FIFO but
   refills a shard only once its whole batch has drained. *)
let configure policy (cfg : Tenant_server.config) =
  let with_mode mode = { cfg.Tenant_server.admission with Admission.mode } in
  match policy with
  | "fifo" -> cfg
  | "shortest" -> { cfg with Tenant_server.admission = with_mode Admission.Shortest_first }
  | "synchronous" -> { cfg with Tenant_server.refill = Tenant_server.Synchronous }
  | other -> invalid_arg (Printf.sprintf "Serving.run: unknown policy %S" other)

(* Distinct completions checked bitwise against solo runs per point. *)
let sample_size = 4

let summarize ~mode ~policy ~load ~offered ~occupancy ~check
    (s : Tenant_server.stats) =
  let total c =
    c.Tenant_server.c_finished -. c.Tenant_server.c_item.Admission.request.Request.arrival
  in
  let lat = Array.of_list (List.map total s.Tenant_server.completions) in
  Array.sort compare lat;
  let completed = Array.length lat in
  let verified, mismatches = check s.Tenant_server.completions in
  {
    mode;
    policy;
    load;
    offered;
    completed;
    (* Refused under backpressure: shed, or turned away by a full queue. *)
    shed = List.length s.Tenant_server.shed + List.length s.Tenant_server.rejected;
    throughput =
      (if s.Tenant_server.makespan > 0. then
         float_of_int completed /. s.Tenant_server.makespan
       else 0.);
    mean_occupancy = occupancy;
    mean_latency =
      (if completed = 0 then Float.nan
       else Array.fold_left ( +. ) 0. lat /. float_of_int completed);
    p50 = Tenant_load.percentile lat 50.;
    p95 = Tenant_load.percentile lat 95.;
    p99 = Tenant_load.percentile lat 99.;
    makespan = s.Tenant_server.makespan;
    verified;
    mismatches;
  }

(* A trace track for one serving run. The server reports its own clock
   only on request-lifecycle events, so superstep spans are stamped with
   the latest of those; launch spans, which carry the shard engine's
   clock (it stands still while the server idles), are left out. *)
let traced tr ~label =
  let track = Obs_trace.track tr label in
  let now = ref 0. in
  let record = Obs_trace.sink tr ~track ~clock:(fun () -> !now) in
  fun ev ->
    (match ev with
    | Obs_sink.Request_enqueued { at; _ }
    | Obs_sink.Request_shed { at; _ }
    | Obs_sink.Request_rejected { at; _ } ->
      now := Float.max !now at
    | Obs_sink.Request_completed { finished; _ } -> now := Float.max !now finished
    | _ -> ());
    match ev with Obs_sink.Launched _ -> () | _ -> record ev

let run ?(dim = 10) ?(rho = 0.7) ?(lanes = 8) ?(n_requests = 48)
    ?(max_iter = 3) ?(loads = [ 0.6; 0.9; 1.3 ]) ?(policies = policies)
    ?(queue_depth = 1024) ?(closed_clients = -1) ?(seed = 0x5EEDL) ?trace
    ?(sched = Sched_policy.Earliest) () =
  let base =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
      Tenant_server.lanes_per_shard = lanes;
      policy = sched;
      admission = Admission.fifo ~depth:queue_depth ();
      preempt = false;
      checkpoint_interval = 0;
    }
  in
  let configs = List.map (fun p -> (p, configure p base)) policies in
  let closed_clients = if closed_clients < 0 then lanes else closed_clients in
  let model = Gaussian_model.model ~rho ~dim () in
  let reg, _key = Nuts_dsl.setup ~seed ~model () in
  let q0 = Tensor.zeros [| dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let prog = Nuts_dsl.program () in
  let input_shapes = Nuts_dsl.input_shapes ~model in
  let compiled = Autobatch.compile ~registry:reg ~input_shapes prog in
  let tenant = Tenant.make ~id:0 ~name:"e5" () in
  let digest = Prog_cache.digest ~input_shapes prog in
  (* One request = one NUTS chain of [n_iter] trajectories; the iteration
     count is a runtime input, so requests of different lengths share the
     compiled program (and the cost hint is honest). *)
  let request ~id ~arrival ~n_iter =
    let request =
      Request.make ~id ~member:id ~arrival
        ~cost_hint:(float_of_int n_iter)
        ~program:compiled
        ~inputs:(Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:1 ())
        ()
    in
    { Admission.tenant; request; digest }
  in
  let iter_stream = Splitmix.Stream.create (Int64.add seed 17L) in
  let n_iters =
    Array.init n_requests (fun _ ->
        1 + Splitmix.Stream.int_below iter_stream max_iter)
  in
  (* Calibrate one unit of offered load to the device's capacity: mean
     solo makespan over a few probe requests gives the per-request
     service time, so rate = load * lanes / solo_service has load 1.0 at
     the saturation point. *)
  let probe = max 1 (min lanes n_requests) in
  let solo_service =
    let tot = ref 0. in
    for i = 0 to probe - 1 do
      let r = request ~id:i ~arrival:0. ~n_iter:n_iters.(i) in
      let s = Tenant_server.run ~config:base (Tenant_server.source_of_list [ r ]) in
      tot := !tot +. s.Tenant_server.makespan
    done;
    !tot /. float_of_int probe
  in
  let n_points = ref 0 in
  let check completions =
    incr n_points;
    let pick = Splitmix.Stream.create (Splitmix.hash2 seed (Int64.of_int !n_points)) in
    let cs = Array.of_list completions in
    let n = Array.length cs in
    let k = min sample_size n in
    let bad = ref 0 in
    (* k distinct completions: a partial Fisher-Yates shuffle. *)
    for i = 0 to k - 1 do
      let j = i + Splitmix.Stream.int_below pick (n - i) in
      let c = cs.(j) in
      cs.(j) <- cs.(i);
      cs.(i) <- c;
      if not (Tenant_load.matches_solo c) then incr bad
    done;
    (k, !bad)
  in
  (* Mean occupancy comes from the lane pool's per-superstep [Occupancy]
     events, read by a profiler; with [trace], every measured run also
     gets its own track. *)
  let serve ~label ~config ?on_complete items =
    let prof = Obs_prof.create () in
    let traced = Option.to_list (Option.map (traced ~label) trace) in
    let sink = Obs_sink.fanout (Obs_prof.sink prof :: traced) in
    let config = { config with Tenant_server.sink = Some sink } in
    let s = Tenant_server.run ~config ?on_complete (Tenant_server.source_of_list items) in
    (s, Obs_prof.mean_occupancy prof)
  in
  let open_points =
    List.concat_map
      (fun load ->
        let rate = load *. float_of_int lanes /. solo_service in
        (* Same trace for every policy at this load: requests are
           immutable, so reuse is safe and the comparison is paired. *)
        let arr_stream =
          Splitmix.Stream.create
            (Splitmix.hash2 seed (Int64.of_float (load *. 1e6)))
        in
        let t = ref 0. in
        let arrivals =
          List.init n_requests (fun i ->
              t := !t +. Splitmix.Stream.exponential arr_stream ~rate;
              request ~id:i ~arrival:!t ~n_iter:n_iters.(i))
        in
        List.map
          (fun (policy, config) ->
            let s, occupancy =
              serve ~label:(Printf.sprintf "open/%s/load%.2f" policy load) ~config arrivals
            in
            summarize ~mode:"open" ~policy ~load ~offered:rate ~occupancy ~check s)
          configs)
      loads
  in
  let closed_points =
    if closed_clients = 0 then []
    else
      List.map
        (fun (policy, config) ->
          let issued = ref (min closed_clients n_requests) in
          let initial =
            List.init !issued (fun i ->
                request ~id:i ~arrival:0. ~n_iter:n_iters.(i))
          in
          let on_complete _ =
            if !issued >= n_requests then None
            else begin
              let id = !issued in
              incr issued;
              Some (request ~id ~arrival:0. ~n_iter:n_iters.(id))
            end
          in
          let s, occupancy =
            serve ~label:(Printf.sprintf "closed/%s" policy) ~config ~on_complete initial
          in
          let p =
            summarize ~mode:"closed" ~policy ~load:0. ~offered:0. ~occupancy ~check s
          in
          (* A closed loop has no offered rate; report the measured one. *)
          {
            p with
            offered = p.throughput;
            load = p.throughput *. solo_service /. float_of_int lanes;
          })
        configs
  in
  {
    lanes;
    n_requests;
    solo_service;
    sched_policy = Sched_policy.to_string sched;
    points = open_points @ closed_points;
  }

let to_csv stats =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "mode,policy,load,offered_rate,completed,shed,throughput,mean_occupancy,mean_latency,p50,p95,p99,makespan,verified,mismatches,sched_policy\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%.3f,%.6g,%d,%d,%.6g,%.4f,%.6g,%.6g,%.6g,%.6g,%.6g,%d,%d,%s\n"
           p.mode p.policy p.load p.offered p.completed p.shed p.throughput
           p.mean_occupancy p.mean_latency p.p50 p.p95 p.p99 p.makespan p.verified
           p.mismatches stats.sched_policy))
    stats.points;
  Buffer.add_string buf
    (Printf.sprintf "# lanes=%d n_requests=%d solo_service=%.6g\n" stats.lanes
       stats.n_requests stats.solo_service);
  Buffer.contents buf

let to_json stats =
  Obs_json.Obj
    [
      ("lanes", Obs_json.Int stats.lanes);
      ("n_requests", Obs_json.Int stats.n_requests);
      ("solo_service", Obs_json.Float stats.solo_service);
      ("sched_policy", Obs_json.Str stats.sched_policy);
      ( "points",
        Obs_json.List
          (List.map
             (fun p ->
               Obs_json.Obj
                 [
                   ("mode", Obs_json.Str p.mode);
                   ("policy", Obs_json.Str p.policy);
                   ("load", Obs_json.Float p.load);
                   ("offered_rate", Obs_json.Float p.offered);
                   ("completed", Obs_json.Int p.completed);
                   ("shed", Obs_json.Int p.shed);
                   ("throughput", Obs_json.Float p.throughput);
                   ("mean_occupancy", Obs_json.Float p.mean_occupancy);
                   ("mean_latency", Obs_json.Float p.mean_latency);
                   ("p50", Obs_json.Float p.p50);
                   ("p95", Obs_json.Float p.p95);
                   ("p99", Obs_json.Float p.p99);
                   ("makespan", Obs_json.Float p.makespan);
                   ("verified", Obs_json.Int p.verified);
                   ("mismatches", Obs_json.Int p.mismatches);
                 ])
             stats.points) );
    ]

let print stats =
  let ms x = Printf.sprintf "%.3f" (1e3 *. x) in
  Printf.printf
    "Serving: %d requests through %d recyclable lanes (solo service %s ms \
     simulated; load 1.0 = saturation)\n"
    stats.n_requests stats.lanes (ms stats.solo_service);
  Table.print_stdout
    ~header:
      [
        "mode"; "policy"; "load"; "done"; "shed"; "req/s"; "occ"; "p50 ms"; "p95 ms";
        "p99 ms"; "bitwise";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             p.mode;
             p.policy;
             Printf.sprintf "%.2f" p.load;
             string_of_int p.completed;
             string_of_int p.shed;
             Printf.sprintf "%.0f" p.throughput;
             Printf.sprintf "%.3f" p.mean_occupancy;
             ms p.p50;
             ms p.p95;
             ms p.p99;
             Printf.sprintf "%s %d/%d"
               (if p.mismatches = 0 then "yes" else "NO")
               (p.verified - p.mismatches) p.verified;
           ])
         stats.points)
