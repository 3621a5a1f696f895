(* The traced run: every pool entry once more with the layer probes
   attached, and the per-layer metrics derived from it.

   Host time of a traced run splits into rows that sum to its wall time
   by construction: the benchmark's own source work and the program
   cache (serving only), the primitives, and the runtime's self time,
   which is the residual. Simulated results and outputs must equal the
   untraced run's bitwise. *)

open Report

let traced (w : Workloads.t) ~(base : Workloads.outcome array) ~p50 ~calib_ms ~size ~errors =
  (* Raw host seconds to reference milliseconds. *)
  let ms s = s *. Calib.reference_s /. (calib_ms /. 1e3) *. 1e3 in
  let pool = w.Workloads.pool in
  let per_rep x = x /. float_of_int pool in
  (* Compile phases, in Autobatch.compile's order. *)
  let iters = match size with Workloads.Full -> 21 | Workloads.Tiny -> 1 in
  let programs = w.Workloads.programs in
  let stacks =
    List.map (fun (reg, shapes, prog) -> snd (Probe.compile_phases reg shapes prog)) programs
  in
  let faithful =
    List.for_all2
      (fun stack (reg, shapes, prog) ->
        stack = (Autobatch.compile ~registry:reg ~input_shapes:shapes prog).Autobatch.stack)
      stacks programs
  in
  let phases =
    Array.init iters (fun _ ->
        List.fold_left
          (fun acc (reg, shapes, prog) ->
            Array.map2 ( +. ) acc (fst (Probe.compile_phases reg shapes prog)))
          (Array.make 4 0.) programs)
  in
  let phase i = if faithful then ms (median (Array.map (fun p -> p.(i)) phases)) else -1. in
  let blocks, ops =
    List.fold_left
      (fun (b, o) stack ->
        let b', o' = Probe.stack_size stack in
        (b + b', o + o'))
      (0, 0) stacks
  in
  (* The traced repetitions. *)
  let probe = Probe.create () in
  let wall = ref 0. and words = ref 0. and traced = ref [] in
  let minor = ref 0 and major = ref 0 in
  let outs =
    Array.init pool (fun k ->
        Gc.compact ();
        let go = w.Workloads.prepare (Workloads.Traced probe) ~rep:k k in
        let g0 = Gc.quick_stat () and w0 = Probe.words () in
        let raw_s, calib_s, finish = Calib.run go in
        let g1 = Gc.quick_stat () and w1 = Probe.words () in
        wall := !wall +. raw_s;
        traced := (raw_s, calib_s) :: !traced;
        words := !words +. (w1 -. w0);
        minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
        major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
        let o = finish () in
        if o.Workloads.fingerprint <> base.(k).Workloads.fingerprint then
          errors :=
            Printf.sprintf "input %d: traced run differs from the untraced run" k :: !errors;
        o)
  in
  let traced_ms =
    let t = Array.of_list (List.rev !traced) in
    Array.fold_left ( +. ) 0.
      (Calib.normalize (Array.map (fun (r, _) -> 1e3 *. r) t)
         (Array.append (Array.map snd t) [| Calib.measure () |]))
  in
  let sum_layer name =
    Array.fold_left
      (fun a (o : Workloads.outcome) ->
        a +. Option.value ~default:0. (List.assoc_opt name o.Workloads.layer))
      0. outs
  in
  let counters =
    Array.fold_left
      (fun a (o : Workloads.outcome) -> Engine.Counters.add a o.Workloads.counters)
      Engine.Counters.zero outs
  in
  let prim_calls, prim_s, prim_w = Probe.prim_total probe in
  let hit = probe.Probe.cache_hit and miss = probe.Probe.cache_miss in
  let cache_s = hit.Probe.s +. miss.Probe.s and cache_w = hit.Probe.words +. miss.Probe.words in
  let source_s = probe.Probe.source.Probe.s -. cache_s in
  let source_w = probe.Probe.source.Probe.words -. cache_w in
  let self_s = !wall -. prim_s -. cache_s -. source_s in
  let self_w = !words -. prim_w -. cache_w -. source_w in
  let runtime = w.Workloads.runtime in
  let rows =
    (if runtime = "tenant" then
       [ ("bench source", source_s, source_w); ("prog_cache", cache_s, cache_w) ]
     else [])
    @ [ ("prim", prim_s, prim_w); (runtime ^ " (self)", self_s, self_w) ]
  in
  Printf.printf "\nper-layer host time, calls and allocation of a traced run (mean of %d)\n"
    pool;
  Printf.printf "  %-22s %12s %8s %12s\n" "layer" "ref ms" "share" "alloc kw";
  List.iter
    (fun (name, s, wd) ->
      Printf.printf "  %-22s %12.4f %7.1f%% %12.1f\n" name (ms (per_rep s))
        (100. *. ratio s !wall) (per_rep wd /. 1e3))
    rows;
  Printf.printf "  %-22s %12.4f %7.1f%% %12.1f\n" "total (wall)" (ms (per_rep !wall)) 100.
    (per_rep !words /. 1e3);
  Printf.printf "\n  %-22s %10s %12s %10s %8s %12s\n" "primitive" "calls" "ref ms" "us/call"
    "share" "alloc kw";
  List.iter
    (fun (name, (a : Probe.acc)) ->
      Printf.printf "  %-22s %10.0f %12.4f %10.3f %7.1f%% %12.1f\n" name
        (per_rep (float_of_int a.Probe.calls))
        (ms (per_rep a.Probe.s))
        (1e3 *. ms (ratio a.Probe.s (float_of_int a.Probe.calls)))
        (100. *. ratio a.Probe.s !wall) (per_rep a.Probe.words /. 1e3))
    (List.sort
       (fun (_, (a : Probe.acc)) (_, (b : Probe.acc)) -> compare b.Probe.s a.Probe.s)
       (List.filter
          (fun (_, (a : Probe.acc)) -> a.Probe.calls > 0)
          (List.of_seq (Hashtbl.to_seq probe.Probe.prims))));
  if not faithful then
    print_endline
      "  ir.* unavailable (-1): the compile-phase mirror no longer reproduces \
       Autobatch.compile";
  let steps = float_of_int probe.Probe.steps in
  let only name x = if runtime = name then x else 0. in
  let rounds = sum_layer "tenant.rounds" and sched_rounds = sum_layer "sched_vm.rounds" in
  let hits = sum_layer "prog_cache.hits" and misses = sum_layer "prog_cache.misses" in
  let m = metric ~samples:pool in
  let mi = metric ~samples:iters in
  [
    mi "ir.validate_ms" "ms" (phase 0);
    mi "ir.lower_cfg_ms" "ms" (phase 1);
    mi "ir.shape_infer_ms" "ms" (phase 2);
    mi "ir.lower_stack_ms" "ms" (phase 3);
    mi "ir.stack_blocks" "count" (if faithful then float_of_int blocks else -1.);
    mi "ir.stack_ops" "count" (if faithful then float_of_int ops else -1.);
    m "prog_cache.hit_rate" "ratio" (ratio hits (hits +. misses));
    m "prog_cache.misses" "count" (per_rep misses);
    m "prog_cache.compile_ms" "ms" (ms (per_rep miss.Probe.s));
    m "prog_cache.hit_us" "us" (1e3 *. ms (ratio hit.Probe.s (float_of_int hit.Probe.calls)));
    m "prim.ms" "ms" (ms (per_rep prim_s));
    m "prim.calls" "count" (per_rep (float_of_int prim_calls));
    m "prim.us_per_call" "us" (1e3 *. ms (ratio prim_s (float_of_int prim_calls)));
    m "prim.share" "ratio" (ratio prim_s !wall);
    m "prim.alloc_kw" "kword" (per_rep prim_w /. 1e3);
    m "vm.self_ms" "ms" (only "vm" (ms (per_rep self_s)));
    m "vm.supersteps" "count" (per_rep steps);
    m "vm.us_per_superstep" "us" (1e3 *. ms (ratio self_s steps));
    m "vm.lane_util" "ratio"
      (ratio (float_of_int probe.Probe.active) (float_of_int probe.Probe.lanes));
    m "vm.alloc_kw" "kword" (only "vm" (per_rep self_w /. 1e3));
    m "sched_vm.self_ms" "ms" (only "sched_vm" (ms (per_rep self_s)));
    m "sched_vm.rounds" "count" (per_rep sched_rounds);
    m "sched_vm.us_per_round" "us" (only "sched_vm" (1e3 *. ms (ratio self_s sched_rounds)));
    m "sched_vm.refills" "count" (per_rep (sum_layer "sched_vm.refills"));
    m "sched_vm.migrations" "count" (per_rep (sum_layer "sched_vm.migrations"));
    m "sched_vm.steals" "count" (per_rep (sum_layer "sched_vm.steals"));
    m "tenant.self_ms" "ms" (only "tenant" (ms (per_rep self_s)));
    m "tenant.rounds" "count" (per_rep rounds);
    m "tenant.us_per_round" "us" (only "tenant" (1e3 *. ms (ratio self_s rounds)));
    m "tenant.alloc_kw_per_req" "kword"
      (only "tenant"
         (ratio self_w
            (Array.fold_left (fun a (o : Workloads.outcome) -> a +. o.Workloads.work) 0. outs)
         /. 1e3));
    m "tenant.checkpoints" "count" (per_rep (sum_layer "tenant.checkpoints"));
    m "tenant.preemptions" "count" (per_rep (sum_layer "tenant.preemptions"));
    m "tenant.migrations" "count" (per_rep (sum_layer "tenant.migrations"));
    m "tenant.restores" "count" (per_rep (sum_layer "tenant.restores"));
    m "tenant.wasted_rounds" "count" (per_rep (sum_layer "tenant.wasted_rounds"));
    m "tenant.lat_p99_ms" "ms" (per_rep (sum_layer "tenant.lat_p99_ms"));
    m "tenant.queue_ms_p99" "ms" (per_rep (sum_layer "tenant.queue_ms_p99"));
    m "tenant.lb_lat_p99_ms" "ms" (per_rep (sum_layer "tenant.lb_lat_p99_ms"));
    m "accel.kernel_launches" "count"
      (per_rep (float_of_int counters.Engine.Counters.kernel_launches));
    m "accel.fused_launches" "count"
      (per_rep (float_of_int counters.Engine.Counters.fused_launches));
    m "accel.traffic_mb" "MB" (per_rep counters.Engine.Counters.traffic_bytes /. 1e6);
    m "gc.minor_collections" "count" (per_rep (float_of_int !minor));
    m "gc.major_collections" "count" (per_rep (float_of_int !major));
    m "gc.alloc_mw" "Mword" (per_rep !words /. 1e6);
    m "bench.trace_overhead" "ratio" (ratio traced_ms (Array.fold_left ( +. ) 0. p50) -. 1.);
    metric ~samples:1 "bench.calib_ms" "ms" calib_ms;
    m "bench.source_ms" "ms" (ms (per_rep source_s));
  ]
