type pattern = Uniform | Bursty | Diurnal | Adversarial

let pattern_name = function
  | Uniform -> "uniform"
  | Bursty -> "bursty"
  | Diurnal -> "diurnal"
  | Adversarial -> "adversarial"

let pattern_of_string = function
  | "uniform" -> Some Uniform
  | "bursty" -> Some Bursty
  | "diurnal" -> Some Diurnal
  | "adversarial" -> Some Adversarial
  | _ -> None

type arm = {
  arm_name : string;
  completed : int;
  throttled : int;
  rejected : int;
  shed : int;
  preempted : int;
  makespan : float;
  mean_latency : float;
  p50_latency : float;
  p99_latency : float;
  p99_all : float;
  stats : Tenant_server.stats;
}

type result = {
  seed : int64;
  pattern : pattern;
  n_requests : int;
  n_tenants : int;
  n_programs : int;
  load : float;
  solo_service : float;
  hit_rate : float;
  hits : int;
  misses : int;
  evictions : int;
  verified : int;
  mismatches : int;
  fair : arm;
  baseline : arm option;
}

(* ---------- the program family ---------- *)

(* Program [k] of the family: a while loop whose body varies structurally
   with [k] — arithmetic chain depth, an optional divergent branch, an
   optional counter-based RNG draw — plus a [k]-derived constant so every
   member has a distinct {!Prog_cache} digest. Parameters are the trip
   count [n], the seed value [x], and the RNG counter [cnt] (all
   scalars). Two outputs, so retirement stacks a multi-output result. *)
let family_program ~k =
  let a = 0.125 *. float_of_int (1 + (k mod 7)) in
  let m = 1.0 -. (0.01 *. float_of_int (k mod 5)) in
  let depth = 1 + (k mod 3) in
  let use_rng = k mod 3 = 0 in
  let diverge = k mod 5 = 2 in
  let kf = 1e-3 *. float_of_int k in
  let open Lang in
  let open Lang.Infix in
  let rec chain d e =
    if Stdlib.( = ) d 0 then e
    else chain (Stdlib.( - ) d 1) ((e * flt m) + flt a)
  in
  let loop_body =
    [ assign "acc" (chain depth (var "acc")) ]
    @ (if use_rng then
         [
           assign "u" (prim "uniform" [ var "cnt" ]);
           assign "cnt" (var "cnt" + flt 1.);
           assign "acc" (var "acc" + ((var "u" - flt 0.5) * flt 0.25));
         ]
       else [])
    @ (if diverge then
         [
           if_ (var "acc" > flt 2.0)
             [ assign "acc" (var "acc" * flt 0.5) ]
             [ assign "acc" (var "acc" + flt a) ];
         ]
       else [])
    @ [ assign "i" (var "i" + flt 1.) ]
  in
  let body =
    [
      assign "i" (flt 0.);
      (* [cnt * 0] keeps the counter a live input in the RNG-free
         variants without perturbing the value (inputs are finite and
         non-negative). *)
      assign "acc" (var "x" + (var "cnt" * flt 0.) + flt kf);
      while_ (var "i" < var "n") loop_body;
      return_ [ var "acc"; var "i" ];
    ]
  in
  program ~main:"main" [ func "main" ~params:[ "n"; "x"; "cnt" ] body ]

let element_shapes = [ [||]; [||]; [||] ]

(* ---------- tenants ---------- *)

(* [rate_scale] is the whole fleet's offered cost per simulated second;
   buckets are expressed in the same cost units as [Request.cost_hint]. *)
let make_tenants ~n ~rate_scale =
  Array.init n (fun t ->
      let slo =
        if t mod 5 = 0 then Tenant.Latency_bound
        else if t mod 5 < 3 then Tenant.Throughput
        else Tenant.Best_effort
      in
      let rate, burst =
        if t mod 7 = 3 then
          (* A deliberately tight bucket: throttles under bursts. *)
          (0.05 *. rate_scale, 0.5 *. rate_scale)
        else (infinity, infinity)
      in
      let quota =
        (* One deliberately small quota: exhausts mid-trace. *)
        if t mod 13 = 6 then 600. else infinity
      in
      Tenant.make ~slo ~rate ~burst ~quota ~id:t
        ~name:(Printf.sprintf "tenant-%02d" t)
        ())

(* ---------- Zipf popularity ---------- *)

let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let tot = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. tot);
      !acc)
    w

let sample_cdf stream cdf =
  let u = Splitmix.Stream.uniform stream in
  let n = Array.length cdf in
  let i = ref 0 in
  while !i < n - 1 && u > cdf.(!i) do
    incr i
  done;
  !i

(* ---------- the trace source ---------- *)

(* Everything about request [i] is a pure function of ([seed], [i]) and
   the running arrival clock, so both arms regenerate the identical
   trace from their own source (their caches differ only in physical
   identity, never in digests). *)
let make_source ~seed ~pattern ~rate ~n_requests ~tenants ~n_programs ~cache
    ~max_width ~burst_every ~burst_len ~period ?(clock = ref 0.) () =
  let stream = Splitmix.Stream.create seed in
  let n_tenants = Array.length tenants in
  let cdf = zipf_cdf ~n:n_tenants ~s:1.1 in
  let be_idx =
    Array.of_list
      (List.filter
         (fun t -> tenants.(t).Tenant.slo = Tenant.Best_effort)
         (List.init n_tenants Fun.id))
  in
  let be_cdf = zipf_cdf ~n:(Array.length be_idx) ~s:1.1 in
  (* The hot family is built and digested once per source, so every hot
     request hands the cache the same program value (an identity-memo
     hit, no walk); a one-off is built and digested once. *)
  let digest_of = Prog_cache.digest ~input_shapes:element_shapes in
  let hot = Array.init n_programs (fun k -> family_program ~k) in
  let hot_digests = Array.map digest_of hot in
  let next_id = ref 0 in
  let next () =
    if !next_id >= n_requests then None
    else begin
      let i = !next_id in
      incr next_id;
      let in_burst = Float.rem !clock burst_every < burst_len in
      let inst_rate =
        match pattern with
        | Uniform -> rate
        | Bursty | Adversarial -> if in_burst then 8. *. rate else rate
        | Diurnal ->
          rate *. (1. +. (0.9 *. sin (2. *. Float.pi *. !clock /. period)))
      in
      clock := !clock +. Splitmix.Stream.exponential stream ~rate:inst_rate;
      let flooding =
        in_burst && (pattern = Bursty || pattern = Adversarial)
        && Array.length be_idx > 0
      in
      let tenant_id =
        if flooding then be_idx.(sample_cdf stream be_cdf)
        else sample_cdf stream cdf
      in
      let tenant = tenants.(tenant_id) in
      let busting =
        pattern = Adversarial && Splitmix.Stream.uniform stream < 0.05
      in
      let prog, digest =
        if busting then begin
          let p = family_program ~k:(n_programs + 1000 + i) in
          (p, digest_of p)
        end
        else (hot.(tenant_id mod n_programs), hot_digests.(tenant_id mod n_programs))
      in
      let width =
        let d = Splitmix.Stream.int_below stream 12 in
        let w = if d < 8 then 1 else if d < 11 then 2 else 4 in
        min w max_width
      in
      let n_iter = 4 + Splitmix.Stream.int_below stream 17 in
      let x0 = 0.25 +. (0.5 *. Splitmix.Stream.uniform stream) in
      let rows v = Tensor.stack_rows (List.init width (fun _ -> Tensor.scalar v)) in
      let xs =
        Tensor.stack_rows
          (List.init width (fun j ->
               Tensor.scalar (x0 +. (0.01 *. float_of_int j))))
      in
      let inputs = [ rows (float_of_int n_iter); xs; rows 0. ] in
      let compiled, _ = Prog_cache.find_or_compile cache ~input_shapes:element_shapes prog in
      let request =
        Request.make ~id:i ~member:(i * 8) ~arrival:!clock
          ~cost_hint:(float_of_int n_iter) ~program:compiled ~inputs ()
      in
      Some { Admission.tenant; request; digest }
    end
  in
  Tenant_server.source_of_fun next

(* ---------- solo reference ---------- *)

let bitwise_eq a b =
  Tensor.shape a = Tensor.shape b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.data a) (Tensor.data b)

(* The serving layer's contract, restated end-to-end: the outputs of a
   completion equal running the request alone with [member_base] at its
   member — whatever admission, preemption, migration, scaling, or
   injected kills happened in between. *)
let matches_solo (c : Tenant_server.completion) =
  match c.Tenant_server.c_outputs with
  | None -> true
  | Some outs ->
    let r = c.Tenant_server.c_item.Admission.request in
    let solo =
      Autobatch.run_pc
        ~config:{ Pc_vm.default_config with Pc_vm.member_base = r.Request.member }
        r.Request.program ~batch:r.Request.inputs
    in
    List.length solo = List.length outs && List.for_all2 bitwise_eq solo outs

(* ---------- percentiles ---------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let latencies ?slo (s : Tenant_server.stats) =
  let keep c =
    match slo with
    | None -> true
    | Some slo -> Admission.item_slo c.Tenant_server.c_item = slo
  in
  let lat =
    List.filter_map
      (fun c ->
        if keep c then
          Some
            (c.Tenant_server.c_finished
            -. c.Tenant_server.c_item.Admission.request.Request.arrival)
        else None)
      s.Tenant_server.completions
    |> Array.of_list
  in
  Array.sort compare lat;
  lat

(* ---------- experiment ---------- *)

let run ?(seed = 0x7E47L) ?(pattern = Bursty) ?(n_requests = 2000)
    ?(n_tenants = 24) ?(n_programs = 8) ?cache_capacity ?(load = 0.35)
    ?(mesh_size = 4) ?(lanes_per_shard = 8) ?(checkpoint_interval = 16)
    ?(kill_round = 40) ?(baseline = true) ?(verify = true) ?keep_outputs
    ?sink () =
  let cache_capacity =
    match cache_capacity with Some c -> c | None -> n_programs
  in
  let mesh = Mesh.gpu_pod ~n:mesh_size () in
  (* Calibrate one unit of load to solo capacity, {!Serving}-style: run
     one mid-size probe request on a one-lane, one-shard pool. *)
  let solo_service =
    let cache = Prog_cache.create ~capacity:2 () in
    let prog = family_program ~k:0 in
    let compiled, _ = Prog_cache.find_or_compile cache ~input_shapes:element_shapes prog in
    let digest = Prog_cache.digest ~input_shapes:element_shapes prog in
    let request =
      Request.make ~id:0 ~member:0 ~cost_hint:12.
        ~program:compiled
        ~inputs:
          [
            Tensor.stack_rows [ Tensor.scalar 12. ];
            Tensor.stack_rows [ Tensor.scalar 0.5 ];
            Tensor.stack_rows [ Tensor.scalar 0. ];
          ]
        ()
    in
    let tenant = Tenant.make ~id:0 ~name:"probe" () in
    let cfg =
      {
        (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
        Tenant_server.lanes_per_shard = 1;
        checkpoint_interval = 0;
      }
    in
    let s =
      Tenant_server.run ~config:cfg
        (Tenant_server.source_of_list [ { Admission.tenant; request; digest } ])
    in
    Float.max s.Tenant_server.makespan 1e-12
  in
  let capacity_lanes = mesh_size * lanes_per_shard in
  (* [rate] is requests per simulated second; requests average 12 cost
     units, and a lane serves one request per [solo_service]. *)
  let rate = load *. float_of_int capacity_lanes /. solo_service in
  let rate_scale = rate *. 12. in
  let burst_every = 40. /. rate in
  let burst_len = 10. /. rate in
  let period = 120. /. rate in
  let faults =
    if kill_round < 0 then []
    else [ { Fault.superstep = kill_round; device = 0; kind = Fault.Device_kill } ]
  in
  let keep_outputs = Option.value ~default:verify keep_outputs in
  let run_arm ~arm_name ~admission ~preempt ~faults ~observed =
    let tenants = make_tenants ~n:n_tenants ~rate_scale in
    (* Observability rides on the fair arm only: the baseline stays a
       clean pair, and the cache's hit/miss/compile instants are stamped
       with the trace clock at generation time. *)
    let arm_sink = if observed then sink else None in
    let trace_clock = ref 0. in
    let cache =
      Prog_cache.create ?sink:arm_sink
        ~clock:(fun () -> !trace_clock)
        ~capacity:cache_capacity ()
    in
    let source =
      make_source ~seed ~pattern ~rate ~n_requests ~tenants ~n_programs ~cache
        ~max_width:(min 4 lanes_per_shard) ~burst_every ~burst_len ~period
        ~clock:trace_clock ()
    in
    let config =
      {
        (Tenant_server.default_config ~mesh) with
        Tenant_server.lanes_per_shard;
        admission;
        preempt;
        checkpoint_interval;
        faults;
        keep_outputs;
        sink = arm_sink;
      }
    in
    let stats = Tenant_server.run ~config source in
    let lat_all = latencies stats in
    let lat_lb = latencies ~slo:Tenant.Latency_bound stats in
    let completed = Array.length lat_all in
    ( {
        arm_name;
        completed;
        throttled = List.length stats.Tenant_server.throttled;
        rejected = List.length stats.Tenant_server.rejected;
        shed = List.length stats.Tenant_server.shed;
        preempted =
          List.length
            (List.filter
               (fun c -> c.Tenant_server.c_preempted > 0)
               stats.Tenant_server.completions);
        makespan = stats.Tenant_server.makespan;
        mean_latency =
          (if completed = 0 then Float.nan
           else Array.fold_left ( +. ) 0. lat_all /. float_of_int completed);
        p50_latency = percentile lat_lb 50.;
        p99_latency = percentile lat_lb 99.;
        p99_all = percentile lat_all 99.;
        stats;
      },
      cache )
  in
  let fair, fair_cache =
    run_arm ~arm_name:"fair" ~admission:Admission.default ~preempt:true ~faults
      ~observed:true
  in
  let baseline =
    if not baseline then None
    else
      (* The no-admission arm: one SLO-blind FIFO, no preemption, same
         trace, same injected kill — fully paired. *)
      Some
        (fst
           (run_arm ~arm_name:"fifo" ~admission:(Admission.fifo ()) ~preempt:false
              ~faults ~observed:false))
  in
  let verified, mismatches =
    if not verify then (0, 0)
    else
      List.fold_left
        (fun (v, m) c -> (v + 1, if matches_solo c then m else m + 1))
        (0, 0) fair.stats.Tenant_server.completions
  in
  {
    seed;
    pattern;
    n_requests;
    n_tenants;
    n_programs;
    load;
    solo_service;
    hit_rate = Prog_cache.hit_rate fair_cache;
    hits = Prog_cache.hits fair_cache;
    misses = Prog_cache.misses fair_cache;
    evictions = Prog_cache.evictions fair_cache;
    verified;
    mismatches;
    fair;
    baseline;
  }

(* ---------- reporting ---------- *)

let arm_to_json a =
  let s = a.stats in
  Obs_json.Obj
    [
      ("name", Obs_json.Str a.arm_name);
      ("completed", Obs_json.Int a.completed);
      ("throttled", Obs_json.Int a.throttled);
      ("rejected", Obs_json.Int a.rejected);
      ("shed", Obs_json.Int a.shed);
      ("preempted_completions", Obs_json.Int a.preempted);
      ("makespan", Obs_json.Float a.makespan);
      ("mean_latency", Obs_json.Float a.mean_latency);
      ("p50_latency_bound", Obs_json.Float a.p50_latency);
      ("p99_latency_bound", Obs_json.Float a.p99_latency);
      ("p99_all", Obs_json.Float a.p99_all);
      ("rounds", Obs_json.Int s.Tenant_server.rounds);
      ("preemptions", Obs_json.Int s.Tenant_server.preemptions);
      ("resumes", Obs_json.Int s.Tenant_server.resumes);
      ("migrations", Obs_json.Int s.Tenant_server.migrations);
      ("binds", Obs_json.Int s.Tenant_server.binds);
      ("rebinds", Obs_json.Int s.Tenant_server.rebinds);
      ("grows", Obs_json.Int s.Tenant_server.grows);
      ("shrinks", Obs_json.Int s.Tenant_server.shrinks);
      ("checkpoints", Obs_json.Int s.Tenant_server.checkpoints);
      ("restores", Obs_json.Int s.Tenant_server.restores);
      ("wasted_rounds", Obs_json.Int s.Tenant_server.wasted_rounds);
      ("peak_active_shards", Obs_json.Int s.Tenant_server.peak_active);
    ]

let to_json r =
  Obs_report.document ~name:"tenant_load"
    ([
       ("seed", Obs_json.Str (Int64.to_string r.seed));
       ("pattern", Obs_json.Str (pattern_name r.pattern));
       ("n_requests", Obs_json.Int r.n_requests);
       ("n_tenants", Obs_json.Int r.n_tenants);
       ("n_programs", Obs_json.Int r.n_programs);
       ("load", Obs_json.Float r.load);
       ("solo_service", Obs_json.Float r.solo_service);
       ("cache_hit_rate", Obs_json.Float r.hit_rate);
       ("cache_hits", Obs_json.Int r.hits);
       ("cache_misses", Obs_json.Int r.misses);
       ("cache_evictions", Obs_json.Int r.evictions);
       ("verified", Obs_json.Int r.verified);
       ("mismatches", Obs_json.Int r.mismatches);
       ("fair", arm_to_json r.fair);
     ]
    @ match r.baseline with
      | Some b -> [ ("baseline", arm_to_json b) ]
      | None -> [])

let print_arm a =
  Printf.printf
    "  %-6s completed %5d  throttled %4d  rejected %4d  shed %4d  preempted \
     %4d\n"
    a.arm_name a.completed a.throttled a.rejected a.shed a.preempted;
  Printf.printf
    "         makespan %10.4g  mean %10.4g  lb-p50 %10.4g  lb-p99 %10.4g  \
     p99 %10.4g\n"
    a.makespan a.mean_latency a.p50_latency a.p99_latency a.p99_all;
  Printf.printf
    "         grows %d  shrinks %d  binds %d  rebinds %d  migrations %d  \
     preemptions %d  resumes %d  ckpts %d  restores %d\n"
    a.stats.Tenant_server.grows a.stats.Tenant_server.shrinks
    a.stats.Tenant_server.binds a.stats.Tenant_server.rebinds
    a.stats.Tenant_server.migrations a.stats.Tenant_server.preemptions
    a.stats.Tenant_server.resumes a.stats.Tenant_server.checkpoints
    a.stats.Tenant_server.restores

let print_table r =
  Printf.printf
    "tenant load: %d requests, %d tenants, %d programs, %s arrivals, load \
     %.2f (solo %.4g)\n"
    r.n_requests r.n_tenants r.n_programs (pattern_name r.pattern) r.load
    r.solo_service;
  Printf.printf "cache: hit rate %.4f (%d hits / %d misses / %d evictions)\n"
    r.hit_rate r.hits r.misses r.evictions;
  Printf.printf "solo equivalence: %d verified, %d mismatches\n" r.verified
    r.mismatches;
  print_arm r.fair;
  match r.baseline with
  | Some b ->
    print_arm b;
    if Float.is_finite b.p99_latency && Float.is_finite r.fair.p99_latency
       && r.fair.p99_latency > 0.
    then
      Printf.printf "latency-bound p99 improvement: %.2fx\n"
        (b.p99_latency /. r.fair.p99_latency)
  | None -> ()
