(* The five workloads. Each one is a pool of seeded inputs that the
   timed repetitions cycle through, a set-up step, and a verifier that
   checks every repetition's outputs against an independent reference. *)

type outcome = {
  fingerprint : float array;
      (** outputs and simulated results; every later run of the same
          input must reproduce it bitwise *)
  items : int;  (** operations attempted: lanes, or requests *)
  failed : int;  (** operations refused or answered wrongly *)
  errors : string list;
  work : float;  (** useful work done *)
  sim : float;  (** simulated seconds: the run, or the serving makespan *)
  lat : float array;
      (** simulated seconds until each item's result is final; filled in
          [Verified] runs *)
  counters : Engine.Counters.t;
  layer : (string * float) list;  (** deterministic per-layer counts *)
}

(* [Timed] runs carry no observer. The one [Verified] run per input adds
   the event sink that yields item latencies; [Traced] runs add the
   layer probes. Observers never change outputs or simulated time. *)
type mode = Timed | Verified | Traced of Probe.t

type t = {
  name : string;
  work_unit : string;
  runtime : string;  (** the layer that runs the work: vm, sched_vm or tenant *)
  pool : int;  (** distinct inputs; run [r] uses entry [r mod pool] *)
  setup : unit -> unit;  (** one fresh set-up, timed by the caller *)
  prepare : mode -> rep:int -> int -> unit -> unit -> outcome;
      (** [prepare mode ~rep k] does the untimed preparation of run [rep]
          on pool entry [k] and returns the timed part, which returns the
          untimed verification. *)
  programs : (Prim.registry * Shape.t list * Lang.program) list;
      (** what the workload compiles, for the compile-phase probe *)
}

type size = Full | Tiny

let names = [ "fib-z64"; "nuts-logreg-z32"; "sched-es-z64"; "serve-steady"; "serve-churn" ]
let gpu_engine () = Engine.create ~device:Device.gpu ~mode:Engine.Fused ()

let batch_outcome ~z ~work ~errors ~sim ~lat ~counters ~layer outputs =
  {
    fingerprint = Array.concat (List.map Tensor.data outputs @ [ [| sim |] ]);
    items = z;
    failed = (if errors = [] then 0 else z);
    errors;
    work;
    sim;
    lat;
    counters;
    layer;
  }

let with_probe mode (c : Autobatch.compiled) =
  match mode with
  | Traced p -> { c with Autobatch.registry = Probe.registry p c.Autobatch.registry }
  | Timed | Verified -> c

(* When each lane of a pc run halts: in the block before the first step
   whose occupancy no longer counts it live; lanes still live at the end
   halt in the last block. *)
let halt_times () =
  let times = ref [] and last = ref 0. and live = ref 0 in
  let sink = function
    | Obs_sink.Launched { t1; _ } -> last := t1
    | Obs_sink.Occupancy { live = l; _ } ->
      for _ = l + 1 to !live do
        times := !last :: !times
      done;
      live := l
    | _ -> ()
  in
  (sink, fun () -> Array.of_list (List.init !live (fun _ -> !last) @ !times))

(* One [Autobatch.run_pc] over a batch on a fresh GPU engine in fused
   mode; [check] compares the outputs with the reference. *)
let pc_prepare compiled ~batches ~work ~check mode ~rep:_ k =
  let compiled = with_probe mode compiled in
  let batch = batches.(k) in
  let engine = gpu_engine () in
  let halts, lat = halt_times () in
  let sink =
    match mode with
    | Timed -> None
    | Verified ->
      Engine.set_sink engine halts;
      Some halts
    | Traced p -> Some (Probe.sink p)
  in
  let config = { Pc_vm.default_config with Pc_vm.engine = Some engine; sink } in
  fun () ->
    let outputs = Autobatch.run_pc ~config compiled ~batch in
    fun () ->
      batch_outcome
        ~z:(Tensor.shape (List.hd batch)).(0)
        ~work:work.(k) ~errors:(check k outputs) ~sim:(Engine.elapsed engine) ~lat:(lat ())
        ~counters:(Engine.snapshot engine).Engine.at ~layer:[] outputs

let first_run compiled batch =
  ignore
    (Autobatch.run_pc
       ~config:{ Pc_vm.default_config with Pc_vm.engine = Some (gpu_engine ()) }
       compiled ~batch)

(* ---------- fib-z64 ---------- *)

let fib ~size ~seed =
  let z, pool, lo, hi = match size with Full -> (64, 16, 6, 15) | Tiny -> (8, 2, 3, 8) in
  (* A stratified draw: every depth in [lo, hi] fills the same number of
     lanes, the remaining lanes draw theirs at random, and the lanes are
     shuffled. Run time is set by the deepest lane and useful work by
     the sum, so this keeps both steady from seed to seed. *)
  let ns =
    let m = hi - lo + 1 in
    Array.init pool (fun p ->
        let s = Fixtures.stream ~seed p in
        let n =
          Array.init z (fun i ->
              if i < z / m * m then lo + (i mod m) else lo + Splitmix.Stream.int_below s m)
        in
        for i = z - 1 downto 1 do
          let j = Splitmix.Stream.int_below s (i + 1) in
          let t = n.(i) in
          n.(i) <- n.(j);
          n.(j) <- t
        done;
        n)
  in
  let batches = Array.map (fun n -> [ Tensor.init [| z |] (fun i -> float_of_int n.(i.(0))) ]) ns in
  let work =
    Array.map (fun n -> float_of_int (Array.fold_left (fun a n -> a + Fixtures.fib_calls n) 0 n)) ns
  in
  let compile () = Autobatch.compile ~input_shapes:[ Shape.scalar ] Fixtures.fib_program in
  let check k outputs =
    let got = Tensor.data (List.hd outputs) in
    List.filter_map
      (fun i ->
        let want = Fixtures.fib ns.(k).(i) in
        if Int64.equal (Int64.bits_of_float got.(i)) (Int64.bits_of_float want) then None
        else Some (Printf.sprintf "fib(%d): got %g, want %g" ns.(k).(i) got.(i) want))
      (List.init z Fun.id)
  in
  {
    name = "fib-z64";
    work_unit = "calls";
    runtime = "vm";
    pool;
    setup = (fun () -> first_run (compile ()) batches.(0));
    prepare = pc_prepare (compile ()) ~batches ~work ~check;
    programs = [ (Prim.standard (), [ Shape.scalar ], Fixtures.fib_program) ];
  }

(* ---------- NUTS ---------- *)

let final_q_errors (fx : Fixtures.nuts) k outputs =
  let q = List.hd outputs in
  List.filter_map
    (fun i ->
      if Tensor.equal (Tensor.slice_row q i) fx.Fixtures.reference.(k).(i) then None
      else Some (Printf.sprintf "chain %d: final q differs from Nuts.trajectory" i))
    (List.init (Array.length fx.Fixtures.reference.(k)) Fun.id)

let compile_nuts (fx : Fixtures.nuts) =
  Autobatch.compile ~registry:fx.Fixtures.registry ~input_shapes:fx.Fixtures.shapes
    fx.Fixtures.program

let nuts_logreg ~size ~seed =
  let n, dim, chains, pool =
    match size with Full -> (250, 20, 32, 32) | Tiny -> (40, 4, 4, 2)
  in
  let model = Logistic_model.model ~seed:0xDA7AL ~n ~dim () in
  let fx = Fixtures.nuts ~model ~seed ~chains ~pool ~same_longest:true in
  {
    name = "nuts-logreg-z32";
    work_unit = "grads";
    runtime = "vm";
    pool = Array.length fx.Fixtures.batches;
    setup = (fun () -> first_run (compile_nuts fx) fx.Fixtures.batches.(0));
    prepare =
      pc_prepare (compile_nuts fx) ~batches:fx.Fixtures.batches ~work:fx.Fixtures.grads
        ~check:(final_q_errors fx);
    programs = [ (fx.Fixtures.registry, fx.Fixtures.shapes, fx.Fixtures.program) ];
  }

(* ---------- sched-es-z64 ---------- *)

let sched_es ~size ~seed =
  let chains, shards, pool = match size with Full -> (64, 4, 16) | Tiny -> (8, 2, 2) in
  let fx = Fixtures.nuts ~model:(Eight_schools.model ()) ~seed ~chains ~pool ~same_longest:false in
  let run ?sink compiled batch =
    let config =
      {
        Sched_vm.default_config with
        Sched_vm.plan = Sched_plan.aggressive;
        lanes = 2;
        mesh = Mesh.gpu_pod ~n:shards ();
        mode = Some Engine.Fused;
        sink;
      }
    in
    Sched_vm.run ~config compiled.Autobatch.registry compiled.Autobatch.stack ~batch
  in
  let compiled = compile_nuts fx in
  let prepare mode ~rep:_ k =
    let compiled = with_probe mode compiled in
    (* A member's result is final when its lane is retired. *)
    let retires = ref [] in
    let sink =
      match mode with
      | Timed -> None
      | Verified ->
        Some
          (function
          | Obs_sink.Launched { name = "lane-retire"; t1; _ } -> retires := t1 :: !retires
          | _ -> ())
      | Traced p -> Some (Probe.sink p)
    in
    fun () ->
      let r = run ?sink compiled fx.Fixtures.batches.(k) in
      fun () ->
        batch_outcome ~z:chains ~work:fx.Fixtures.grads.(k)
          ~errors:(final_q_errors fx k r.Sched_vm.outputs)
          ~sim:r.Sched_vm.sim_time ~lat:(Array.of_list !retires) ~counters:r.Sched_vm.counters
          ~layer:
            [
              ("sched_vm.rounds", float_of_int r.Sched_vm.supersteps);
              ("sched_vm.refills", float_of_int r.Sched_vm.refills);
              ("sched_vm.migrations", float_of_int r.Sched_vm.migrations);
              ("sched_vm.steals", float_of_int r.Sched_vm.steals);
            ]
          r.Sched_vm.outputs
  in
  {
    name = "sched-es-z64";
    work_unit = "grads";
    runtime = "sched_vm";
    pool;
    setup = (fun () -> ignore (run (compile_nuts fx) fx.Fixtures.batches.(0)));
    prepare;
    programs = [ (fx.Fixtures.registry, fx.Fixtures.shapes, fx.Fixtures.program) ];
  }

(* ---------- serving ---------- *)

let verified_rows = 200

(* Conservation, and a seeded sample of served rows against the
   single-example reference interpreter. *)
let serve_errors ~seed ~rep ~arrivals (s : Tenant_server.stats) =
  let completions = Array.of_list s.Tenant_server.completions in
  let refused =
    List.length s.Tenant_server.throttled
    + List.length s.Tenant_server.rejected
    + List.length s.Tenant_server.shed
  in
  let conservation =
    if Array.length completions + refused = arrivals then []
    else
      [
        Printf.sprintf "%d completed + %d refused <> %d arrivals" (Array.length completions)
          refused arrivals;
      ]
  in
  let pick = Fixtures.stream ~seed (1_000_000 + rep) in
  let mismatches =
    if Array.length completions = 0 then []
    else
      List.filter_map
        (fun _ ->
          let c = completions.(Splitmix.Stream.int_below pick (Array.length completions)) in
          let r = c.Tenant_server.c_item.Admission.request in
          let row = Splitmix.Stream.int_below pick (Request.width r) in
          let solo =
            Autobatch.run_single r.Request.program ~member:(r.Request.member + row)
              ~args:(Request.lane_inputs r ~row)
          in
          let served =
            List.map (fun t -> Tensor.slice_row t row) (Option.get c.Tenant_server.c_outputs)
          in
          if List.length solo = List.length served && List.for_all2 Tensor.equal solo served
          then None
          else Some (Printf.sprintf "request %d row %d differs from run_single" r.Request.id row))
        (List.init verified_rows Fun.id)
  in
  (refused, conservation @ mismatches)

let serve_outcome ~seed ~rep ~arrivals ~hits ~misses (s : Tenant_server.stats) =
  let refused, errors = serve_errors ~seed ~rep ~arrivals s in
  let cs = s.Tenant_server.completions in
  let since_arrival f cs =
    Array.of_list
      (List.map (fun c -> f c -. c.Tenant_server.c_item.Admission.request.Request.arrival) cs)
  in
  let finished c = c.Tenant_server.c_finished in
  let lat = since_arrival finished cs in
  let lb_lat =
    since_arrival finished
      (List.filter
         (fun c -> Admission.item_slo c.Tenant_server.c_item = Tenant.Latency_bound)
         cs)
  in
  let queue = since_arrival (fun c -> c.Tenant_server.c_started) cs in
  let fingerprint =
    Array.concat
      (List.concat_map
         (fun c ->
           [|
             float_of_int c.Tenant_server.c_item.Admission.request.Request.id;
             c.Tenant_server.c_started;
             c.Tenant_server.c_finished;
             float_of_int c.Tenant_server.c_shard;
           |]
           :: List.map Tensor.data (Option.get c.Tenant_server.c_outputs))
         cs)
  in
  let i = float_of_int in
  {
    fingerprint;
    items = arrivals;
    failed = refused + List.length errors;
    errors;
    work = i (List.length cs);
    sim = s.Tenant_server.makespan;
    lat;
    counters = s.Tenant_server.counters;
    layer =
      [
        ("tenant.rounds", i s.Tenant_server.rounds);
        ("tenant.checkpoints", i s.Tenant_server.checkpoints);
        ("tenant.preemptions", i s.Tenant_server.preemptions);
        ("tenant.migrations", i s.Tenant_server.migrations);
        ("tenant.restores", i s.Tenant_server.restores);
        ("tenant.wasted_rounds", i s.Tenant_server.wasted_rounds);
        ("tenant.lat_p99_ms", 1e3 *. Report.percentile lat 0.99);
        ("tenant.queue_ms_p99", 1e3 *. Report.percentile queue 0.99);
        ("tenant.lb_lat_p99_ms", 1e3 *. Report.percentile lb_lat 0.99);
        ("prog_cache.hits", i hits);
        ("prog_cache.misses", i misses);
      ];
  }

let serve ~size ~seed ~churn =
  let requests, pool = match size with Full -> (800, 32) | Tiny -> (60, 1) in
  let fx = Fixtures.serve ~seed ~requests ~pool ~churn in
  let registry = Prim.standard () in
  let hot = Array.sub fx.Fixtures.programs 0 Fixtures.n_hot in
  let warm_cache registry =
    let cache = Prog_cache.create ~registry ~capacity:Fixtures.n_hot () in
    Array.iter
      (fun p -> ignore (Prog_cache.find_or_compile cache ~input_shapes:Fixtures.family_shapes p))
      hot;
    cache
  in
  let config sink =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:Fixtures.n_shards ())) with
      Tenant_server.lanes_per_shard = Fixtures.lanes_per_shard;
      (* Queues deep enough that admission never refuses: a refusal would
         be a failed operation. *)
      admission = { Admission.default with Admission.depth = requests };
      checkpoint_interval = 16;
      faults =
        (if churn then [ { Fault.superstep = 40; device = 0; kind = Fault.Device_kill } ]
         else []);
      keep_outputs = true;
      sink;
    }
  in
  let prepare mode ~rep k =
    let probe = match mode with Traced p -> Some p | Timed | Verified -> None in
    let cache =
      warm_cache (match probe with None -> registry | Some p -> Probe.registry p registry)
    in
    let hits0 = Prog_cache.hits cache and misses0 = Prog_cache.misses cache in
    let tenants = Fixtures.tenants () in
    let trace = fx.Fixtures.traces.(k) in
    let lookup prog =
      match probe with
      | None -> fst (Prog_cache.find_or_compile cache ~input_shapes:Fixtures.family_shapes prog)
      | Some p ->
        let w0 = Probe.words () in
        let t0 = Calib.now () in
        let c, tag = Prog_cache.find_or_compile cache ~input_shapes:Fixtures.family_shapes prog in
        Probe.add (if tag = `Hit then p.Probe.cache_hit else p.Probe.cache_miss) ~t0 ~w0;
        c
    in
    let next = ref 0 in
    let item () =
      if !next >= Array.length trace then None
      else begin
        let id = !next in
        let r = trace.(id) in
        incr next;
        let request =
          Request.make ~id ~member:r.Fixtures.member ~arrival:r.Fixtures.arrival
            ~cost_hint:r.Fixtures.cost ~program:(lookup fx.Fixtures.programs.(r.Fixtures.prog))
            ~inputs:r.Fixtures.inputs ()
        in
        Some
          {
            Admission.tenant = tenants.(r.Fixtures.tenant);
            request;
            digest = fx.Fixtures.digests.(r.Fixtures.prog);
          }
      end
    in
    let source =
      Tenant_server.source_of_fun
        (match probe with None -> item | Some p -> fun () -> Probe.time p.Probe.source item)
    in
    let config = config (Option.map Probe.sink probe) in
    fun () ->
      let stats = Tenant_server.run ~config source in
      fun () ->
        serve_outcome ~seed ~rep ~arrivals:(Array.length trace)
          ~hits:(Prog_cache.hits cache - hits0) ~misses:(Prog_cache.misses cache - misses0)
          stats
  in
  {
    name = (if churn then "serve-churn" else "serve-steady");
    work_unit = "requests";
    runtime = "tenant";
    pool;
    setup = (fun () -> ignore (warm_cache registry));
    prepare;
    programs = Array.to_list (Array.map (fun p -> (registry, Fixtures.family_shapes, p)) hot);
  }

let make ~size ~seed = function
  | "fib-z64" -> fib ~size ~seed
  | "nuts-logreg-z32" -> nuts_logreg ~size ~seed
  | "sched-es-z64" -> sched_es ~size ~seed
  | "serve-steady" -> serve ~size ~seed ~churn:false
  | "serve-churn" -> serve ~size ~seed ~churn:true
  | name -> invalid_arg ("unknown workload " ^ name)
