(* Tests for the multi-tenant serving stack: tenant token buckets and
   quotas, the hash-consed program cache, SLO-aware admission (the
   weighted-fair dispatcher, the degradation ladder, and the shed-victim
   invariant), the pure autoscaling controller, and the tenant server's
   acceptance criterion — every completion bitwise identical to running
   the request alone, through preemption, scaling, and injected device
   kills. *)

let t = Alcotest.test_case

(* ---------- fixtures ---------- *)

let shapes = Tenant_load.element_shapes
let compiled0 = lazy (Autobatch.compile ~input_shapes:shapes (Tenant_load.family_program ~k:0))
let digest0 = lazy (Prog_cache.digest ~input_shapes:shapes (Tenant_load.family_program ~k:0))

let mk_tenant ?slo ?rate ?burst ?quota id =
  Tenant.make ?slo ?rate ?burst ?quota ~id ~name:(Printf.sprintf "t%d" id) ()

(* An admission item on the family program: [n] is the loop trip count
   (the service length), [width] the lanes it occupies. *)
let mk_item ?(tenant = mk_tenant 0) ?(arrival = 0.) ?(width = 1) ~id ~n () =
  let rows v = Tensor.stack_rows (List.init width (fun _ -> Tensor.scalar v)) in
  let xs =
    Tensor.stack_rows
      (List.init width (fun j -> Tensor.scalar (0.3 +. (0.01 *. float_of_int j))))
  in
  let request =
    Request.make ~id ~member:(id * 8) ~arrival ~cost_hint:(float_of_int n)
      ~program:(Lazy.force compiled0)
      ~inputs:[ rows (float_of_int n); xs; rows 0. ]
      ()
  in
  { Admission.tenant; request; digest = Lazy.force digest0 }

let item_ids adm =
  let acc = ref [] in
  Admission.iter adm (fun it -> acc := it.Admission.request.Request.id :: !acc);
  List.rev !acc

(* ---------- tenant token buckets ---------- *)

let test_bucket_refill_and_deny () =
  let tn = mk_tenant ~rate:2. ~burst:2. 1 in
  Alcotest.(check bool) "first token" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "second token" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "bucket empty" false (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check int) "throttle counted" 1 tn.Tenant.throttled;
  (* Half a second refills one token at rate 2. *)
  Alcotest.(check bool) "refilled" true (Tenant.admit tn ~now:0.5 ~cost:1.);
  Alcotest.(check bool) "but only one" false (Tenant.admit tn ~now:0.5 ~cost:1.);
  (* The bucket clamps at burst: a long idle stretch is not a war chest. *)
  Alcotest.(check (float 1e-12))
    "clamped at burst" 2.
    (Tenant.tokens_available tn ~now:100.)

let test_quota_exhaustion () =
  let tn = mk_tenant ~quota:3. 2 in
  Alcotest.(check bool) "within quota" true (Tenant.admit tn ~now:0. ~cost:2.);
  Alcotest.(check bool) "still within" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "over quota" false (Tenant.admit tn ~now:10. ~cost:0.5);
  Alcotest.(check (float 1e-12)) "usage charged" 3. tn.Tenant.cost_used

(* ---------- program cache ---------- *)

let test_digest_structural () =
  (* Hash-consed identity: two independent builds of the same family
     member digest equal; different members differ. *)
  let d k = Prog_cache.digest ~input_shapes:shapes (Tenant_load.family_program ~k) in
  Alcotest.(check bool) "same structure, same digest" true (Int64.equal (d 0) (d 0));
  Alcotest.(check bool) "k=1 distinct" false (Int64.equal (d 0) (d 1));
  Alcotest.(check bool) "k=2 distinct" false (Int64.equal (d 1) (d 2));
  Alcotest.(check bool) "shapes matter" false
    (Int64.equal (d 0)
       (Prog_cache.digest ~input_shapes:[ [||]; [||]; [| 2 |] ]
          (Tenant_load.family_program ~k:0)))

(* One program touching every constructor the digest folds: Vec, If,
   While, Call_stmt and Return (plus Var, Const, Prim, Assign). *)
let mixed_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"main"
    [
      func "step" ~params:[ "v"; "k" ]
        [
          if_ (var "k" > flt 0.)
            [ return_ [ var "v" * flt 2.; var "k" - flt 1. ] ]
            [ return_ [ var "v"; var "k" ] ];
        ];
      func "main" ~params:[ "x"; "n" ]
        [
          assign "v" (var "x" + vec [| 0.5; -1.25; 3. |]);
          assign "k" (var "n");
          while_ (var "k" > flt 0.) [ call [ "v"; "k" ] "step" [ var "v"; var "k" ] ];
          return_ [ prim "sum" [ var "v" ] ];
        ];
    ]

let test_digest_values_pinned () =
  (* Digests break ties in the server's shard placement, so their values
     are part of the scheduling contract: these literals were produced by
     the table-interned digest and must never move. *)
  let check name expected actual = Alcotest.(check int64) name expected actual in
  List.iter
    (fun (k, shaped, bare, prog) ->
      let p = Tenant_load.family_program ~k in
      check (Printf.sprintf "family %d with shapes" k) shaped
        (Prog_cache.digest ~input_shapes:shapes p);
      check (Printf.sprintf "family %d without shapes" k) bare (Prog_cache.digest p);
      check (Printf.sprintf "family %d program" k) prog (Prog_cache.digest_program p))
    [
      (0, 6829859895245219420L, -2083110743599357038L, 6968893273049445109L);
      (1, -7762627333856100331L, -1491358218407234642L, 3193534372948608001L);
      (2, 2913883830905281627L, -8182442176101215171L, -2882314250059280984L);
      (3, -8052270784529139565L, 2408071752734910065L, 3838564186800269803L);
      (4, 3649586651130347449L, -6754201385964240178L, -6954723907864946101L);
      (5, 5988838823436337957L, -8536350400797522917L, -6724484885072643762L);
      (6, 2608213475722458345L, -4991330831992417574L, 853809949203518751L);
      (7, -1328214944716656350L, 3227732257303701014L, 2664653330993247006L);
      (1013, 8050152324900383149L, -5680019973708134039L, -1211037518460035513L);
    ];
  check "mixed with shapes" 1800378681560622475L
    (Prog_cache.digest ~input_shapes:[ [| 3 |]; [||] ] mixed_program);
  check "mixed without shapes" 387966044301021033L (Prog_cache.digest mixed_program);
  check "mixed program" 7152476828149063451L (Prog_cache.digest_program mixed_program)

let test_cache_hit_and_identity () =
  let cache = Prog_cache.create ~capacity:4 () in
  let p = Tenant_load.family_program ~k:3 in
  let c1, o1 = Prog_cache.find_or_compile cache ~input_shapes:shapes p in
  let c2, o2 = Prog_cache.find_or_compile cache ~input_shapes:shapes p in
  Alcotest.(check bool) "first is a miss" true (o1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (o2 = `Hit);
  Alcotest.(check bool) "physically same artifact" true (c1 == c2);
  Alcotest.(check int) "one hit" 1 (Prog_cache.hits cache);
  Alcotest.(check int) "one miss" 1 (Prog_cache.misses cache);
  Alcotest.(check (float 1e-12)) "hit rate" 0.5 (Prog_cache.hit_rate cache)

let test_cache_lru_eviction () =
  let cache = Prog_cache.create ~capacity:2 () in
  let p k = Tenant_load.family_program ~k in
  let d k = Prog_cache.digest ~input_shapes:shapes (p k) in
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 0));
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 1));
  (* Touch 0 so 1 becomes least-recently-used, then insert 2. *)
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 0));
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 2));
  Alcotest.(check int) "one eviction" 1 (Prog_cache.evictions cache);
  Alcotest.(check bool) "LRU entry gone" true (Prog_cache.find cache (d 1) = None);
  Alcotest.(check bool) "recent entry kept" true (Prog_cache.find cache (d 0) <> None);
  Alcotest.(check bool) "new entry kept" true (Prog_cache.find cache (d 2) <> None)

(* ---------- admission: weighted-fair dispatch ---------- *)

let always _ = true

let test_wfq_shares () =
  let adm =
    Admission.create ~config:{ Admission.default with depth = 12 } ()
  in
  let id = ref 0 in
  List.iter
    (fun slo ->
      for _ = 1 to 8 do
        incr id;
        match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo !id) ~id:!id ~n:4 ()) with
        | `Admitted -> ()
        | _ -> Alcotest.fail "offer refused under Normal"
      done)
    [ Tenant.Latency_bound; Tenant.Throughput; Tenant.Best_effort ];
  (* One full credit round at weights 6:3:1. *)
  let popped =
    List.init 10 (fun _ ->
        match Admission.pop adm ~fits:always with
        | Some it -> Admission.item_rank it
        | None -> Alcotest.fail "pop ran dry")
  in
  Alcotest.(check (list int))
    "weighted round is 6 latency, 3 throughput, 1 best-effort"
    [ 0; 0; 0; 0; 0; 0; 1; 1; 1; 2 ]
    popped;
  (* Everything eventually drains; nothing is lost to the weighting. *)
  let rec drain acc =
    match Admission.pop adm ~fits:always with
    | Some _ -> drain (acc + 1)
    | None -> acc
  in
  Alcotest.(check int) "remaining items all dispatch" 14 (drain 0)

let test_pop_skips_nonfitting_head () =
  let adm = Admission.create () in
  let offer it =
    match Admission.offer adm it with
    | `Admitted -> ()
    | _ -> Alcotest.fail "offer refused"
  in
  offer (mk_item ~id:1 ~n:4 ~width:4 ());
  offer (mk_item ~id:2 ~n:4 ~width:1 ());
  (* A 2-lane server must get id 2: the wide head cannot wedge it. *)
  (match Admission.pop adm ~fits:(fun it -> Request.width it.Admission.request <= 2) with
  | Some it -> Alcotest.(check int) "fitting item behind head" 2 it.Admission.request.Request.id
  | None -> Alcotest.fail "fitting item not found");
  (* Arrival order is otherwise preserved. *)
  match Admission.pop adm ~fits:always with
  | Some it -> Alcotest.(check int) "head dispatches next" 1 it.Admission.request.Request.id
  | None -> Alcotest.fail "head lost"

let test_fifo_is_slo_blind () =
  let adm = Admission.create ~config:(Admission.fifo ~depth:3 ()) () in
  let offer it = Admission.offer adm it in
  Alcotest.(check bool) "be admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 1) ~id:1 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "lb admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 2) ~id:2 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "be admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 3) ~id:3 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "full queue rejects even latency-bound" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 4) ~id:4 ~n:4 ())
     = `Rejected Admission.Queue_full);
  let order =
    List.init 3 (fun _ ->
        match Admission.pop adm ~fits:always with
        | Some it -> it.Admission.request.Request.id
        | None -> Alcotest.fail "fifo ran dry")
  in
  Alcotest.(check (list int)) "strict arrival order, class-blind" [ 1; 2; 3 ] order

(* ---------- admission: degradation ladder ---------- *)

let test_ladder_climb_and_hysteresis () =
  (* depth 4 -> capacity 12; up-thresholds at 0.75, ~0.833, ~0.917. *)
  let adm =
    Admission.create ~config:{ Admission.default with depth = 4 } ()
  in
  let lb i = mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound i) ~id:i ~n:4 () in
  let fill upto =
    for i = Admission.length adm + 1 to upto do
      ignore (Admission.offer adm (lb i))
    done
  in
  fill 8;
  Alcotest.(check string) "normal at 8/12" "normal"
    (Admission.level_name (Admission.level adm));
  fill 9;
  Alcotest.(check string) "first rung at 9/12" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  fill 10;
  Alcotest.(check string) "second rung at 10/12" "cap-width"
    (Admission.level_name (Admission.level adm));
  fill 11;
  Alcotest.(check string) "top rung at 11/12" "reject-new"
    (Admission.level_name (Admission.level adm));
  (match Admission.offer adm (lb 12) with
  | `Rejected (Admission.Overloaded Admission.Reject_new) -> ()
  | _ -> Alcotest.fail "reject-new must refuse everything");
  (* Descend with the hysteresis band: still capped at 7/12, and still
     shedding best-effort at 6/12 — occupancies that were Normal on the
     way up. *)
  let pop_n n = for _ = 1 to n do ignore (Admission.pop adm ~fits:always) done in
  pop_n 4;
  Alcotest.(check string) "still cap-width at 7/12" "cap-width"
    (Admission.level_name (Admission.level adm));
  pop_n 1;
  Alcotest.(check string) "still shedding at 6/12" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  pop_n 1;
  Alcotest.(check string) "normal again at 5/12" "normal"
    (Admission.level_name (Admission.level adm))

let test_ladder_refusals_by_class () =
  (* Hold the ladder at shed-best-effort and check who gets in. *)
  let adm =
    Admission.create ~config:{ Admission.default with depth = 4; cap_width = 1 } ()
  in
  for i = 1 to 9 do
    ignore (Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Throughput i) ~id:i ~n:4 ()))
  done;
  Alcotest.(check string) "at first rung" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  (match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 90) ~id:90 ~n:4 ()) with
  | `Rejected (Admission.Overloaded Admission.Shed_best_effort) -> ()
  | _ -> Alcotest.fail "best-effort must be refused at the first rung");
  match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 91) ~id:91 ~n:4 ()) with
  | `Admitted -> ()
  | _ -> Alcotest.fail "latency-bound must still be admitted at the first rung"

(* ---------- admission: shed-victim property ---------- *)

(* With the ladder parked far away (high_water 2.0), a full buffer takes
   the drop-oldest path. The pinned invariant: a shed never drops a
   request while a strictly weaker one is queued, and never victimizes a
   class stronger than the offer. *)
let prop_shed_victim =
  QCheck.Test.make ~name:"shed never drops while a weaker item is queued"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 2))
    (fun ranks ->
      let adm =
        Admission.create
          ~config:
            { Admission.default with depth = 3; high_water = 2.0; low_water = 1.0 }
          ()
      in
      let ok = ref true in
      List.iteri
        (fun i rank ->
          let it =
            mk_item ~tenant:(mk_tenant ~slo:(Tenant.of_rank rank) i) ~id:i ~n:4 ()
          in
          match Admission.offer adm it with
          | `Admitted | `Rejected _ -> ()
          | `Shed victim ->
            let vr = Admission.item_rank victim in
            (* No strictly weaker item may remain queued... *)
            Admission.iter adm (fun q -> if Admission.item_rank q > vr then ok := false);
            (* ...and the victim is never stronger than the offer. *)
            if vr < rank then ok := false)
        ranks;
      !ok)

(* Same offer/pop schedule on two independent instances: identical
   admissions, identical dispatch order. Replays under --seed depend on
   exactly this. *)
let prop_admission_deterministic =
  QCheck.Test.make ~name:"admission replays deterministically" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 2) bool))
    (fun ops ->
      let trace () =
        let adm =
          Admission.create ~config:{ Admission.default with depth = 4 } ()
        in
        let log = ref [] in
        List.iteri
          (fun i (rank, do_pop) ->
            if do_pop then
              match Admission.pop adm ~fits:always with
              | Some it -> log := ("pop", it.Admission.request.Request.id) :: !log
              | None -> log := ("pop", -1) :: !log
            else begin
              let it =
                mk_item ~tenant:(mk_tenant ~slo:(Tenant.of_rank rank) i) ~id:i ~n:4 ()
              in
              match Admission.offer adm it with
              | `Admitted -> log := ("adm", i) :: !log
              | `Shed v -> log := ("shed", v.Admission.request.Request.id) :: !log
              | `Rejected _ -> log := ("rej", i) :: !log
            end)
          ops;
        (!log, item_ids adm)
      in
      trace () = trace ())

(* The queues keep O(1) length counters; they must agree with the items
   actually queued after every operation — offers (sheds at capacity
   included, with the ladder parked or live), fitting pops, head
   re-queues, and the recovery path's [requeue_order] replays — in both
   modes. *)
let prop_admission_counters =
  QCheck.Test.make ~name:"length counters match the queued items" ~count:200
    QCheck.(
      triple (pair bool bool)
        (list_of_size Gen.(int_range 1 80)
           (triple (int_range 0 4) (int_range 0 2) (int_range 1 4)))
        unit)
    (fun ((fair, ladder), ops, ()) ->
      let config =
        if fair then
          if ladder then { Admission.default with depth = 3 }
          else { Admission.default with depth = 3; high_water = 2.0; low_water = 1.0 }
        else Admission.fifo ~depth:6 ()
      in
      let adm = Admission.create ~config () in
      let popped = ref [] in
      let consistent () =
        let total = ref 0 and by_class = Array.make Tenant.n_slos 0 in
        Admission.iter adm (fun it ->
            incr total;
            let r = Admission.item_rank it in
            by_class.(r) <- by_class.(r) + 1);
        Admission.length adm = !total
        && List.for_all
             (fun r -> Admission.class_length adm (Tenant.of_rank r) = by_class.(r))
             (List.init Tenant.n_slos Fun.id)
      in
      let ok = ref true in
      List.iteri
        (fun i (op, rank, k) ->
          (match op with
          | 0 | 1 ->
            let it =
              mk_item ~tenant:(mk_tenant ~slo:(Tenant.of_rank rank) i) ~id:i ~width:k
                ~n:4 ()
            in
            ignore (Admission.offer adm it)
          | 2 -> (
            match
              Admission.pop adm ~fits:(fun it -> Request.width it.Admission.request <= k)
            with
            | Some it -> popped := it :: !popped
            | None -> ())
          | 3 -> (
            match !popped with
            | it :: rest ->
              Admission.push_front adm it;
              popped := rest
            | [] -> ())
          | _ ->
            (* As a restore does: recovered work back at the heads, in
               deterministic re-admission order. *)
            List.iter (Admission.push_front adm)
              (List.rev (Admission.requeue_order !popped));
            popped := []);
          if not (consistent ()) then ok := false)
        ops;
      !ok)

(* ---------- pool controller ---------- *)

let test_pool_decide () =
  let cfg =
    { Pool.min_shards = 1; max_shards = 4; grow_backlog = 1.0; shrink_util = 0.25; cooldown = 4 }
  in
  let sig_ ?(backlog = 0) ?(active = 1) ?(draining = 0) ?(live = 0) () =
    { Pool.backlog; active; draining; lanes_per_shard = 8; live_lanes = live }
  in
  let d ?(since = 99) s = Pool.decide cfg ~rounds_since_action:since s in
  Alcotest.(check string) "cooldown holds" "hold"
    (Pool.action_name (d ~since:3 (sig_ ~backlog:100 ())));
  Alcotest.(check string) "no capacity, any backlog grows" "grow"
    (Pool.action_name (d (sig_ ~backlog:1 ~active:0 ())));
  Alcotest.(check string) "backlog pressure grows" "grow"
    (Pool.action_name (d (sig_ ~backlog:9 ~active:1 ~live:8 ())));
  Alcotest.(check string) "at max_shards holds" "hold"
    (Pool.action_name
       (Pool.decide cfg ~rounds_since_action:99
          { Pool.backlog = 100; active = 3; draining = 1; lanes_per_shard = 8; live_lanes = 24 }));
  Alcotest.(check string) "idle fleet shrinks" "shrink"
    (Pool.action_name (d (sig_ ~active:2 ~live:1 ())));
  Alcotest.(check string) "min_shards holds" "hold"
    (Pool.action_name (d (sig_ ~active:1 ~live:0 ())));
  Alcotest.(check string) "draining shard blocks another shrink" "hold"
    (Pool.action_name (d (sig_ ~active:2 ~draining:1 ~live:1 ())));
  (* The no-bounce guard: survivors must absorb live + backlog. *)
  Alcotest.(check string) "shrink would bounce, holds" "hold"
    (Pool.action_name (d (sig_ ~active:2 ~live:3 ~backlog:6 ())));
  Alcotest.(check string) "survivors can absorb, shrinks" "shrink"
    (Pool.action_name (d (sig_ ~active:2 ~live:3 ~backlog:4 ())))

(* ---------- tenant server: bitwise acceptance ---------- *)

let default_mesh n = Mesh.gpu_pod ~n ()

(* [(request id, reason name)] of every request refused at ingest. *)
let refusals (st : Tenant_server.stats) =
  List.map
    (fun ((it : Admission.item), reason) ->
      (it.Admission.request.Request.id, Admission.reason_name reason))
    st.Tenant_server.rejected

let check_all_solo name (st : Tenant_server.stats) =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: request %d bitwise vs solo" name
           c.Tenant_server.c_item.Admission.request.Request.id)
        true (Tenant_load.matches_solo c))
    st.Tenant_server.completions

let test_server_preemption_bitwise () =
  let be = mk_tenant ~slo:Tenant.Best_effort 0 in
  let lb = mk_tenant ~slo:Tenant.Latency_bound 1 in
  let config =
    {
      (Tenant_server.default_config ~mesh:(default_mesh 1)) with
      Tenant_server.lanes_per_shard = 2;
      checkpoint_interval = 4;
    }
  in
  let st =
    Tenant_server.run ~config
      (Tenant_server.source_of_list
         [
           mk_item ~tenant:be ~id:0 ~width:2 ~n:60 ();
           mk_item ~tenant:lb ~id:1 ~arrival:1e-7 ~width:1 ~n:8 ();
         ])
  in
  Alcotest.(check int) "one preemption" 1 st.Tenant_server.preemptions;
  Alcotest.(check int) "one resume" 1 st.Tenant_server.resumes;
  Alcotest.(check int) "both completed" 2
    (List.length st.Tenant_server.completions);
  let by_id id =
    List.find
      (fun c -> c.Tenant_server.c_item.Admission.request.Request.id = id)
      st.Tenant_server.completions
  in
  Alcotest.(check int) "victim was parked once" 1 (by_id 0).Tenant_server.c_preempted;
  Alcotest.(check bool) "latency-bound finished first" true
    ((by_id 1).Tenant_server.c_finished < (by_id 0).Tenant_server.c_finished);
  check_all_solo "preempt" st

let kill_scenario () =
  let config =
    {
      (Tenant_server.default_config ~mesh:(default_mesh 1)) with
      Tenant_server.lanes_per_shard = 4;
      checkpoint_interval = 4;
      faults = [ { Fault.superstep = 10; device = 0; kind = Fault.Device_kill } ];
    }
  in
  Tenant_server.run ~config
    (Tenant_server.source_of_list
       (List.init 6 (fun i -> mk_item ~tenant:(mk_tenant 0) ~id:i ~n:(12 + i) ())))

let test_server_kill_recovers_bitwise () =
  let st = kill_scenario () in
  Alcotest.(check int) "one restore" 1 st.Tenant_server.restores;
  Alcotest.(check bool) "checkpoints taken" true (st.Tenant_server.checkpoints > 0);
  Alcotest.(check int) "nothing lost to the kill" 6
    (List.length st.Tenant_server.completions);
  Alcotest.(check bool) "re-execution was paid for" true
    (st.Tenant_server.wasted_rounds > 0);
  check_all_solo "kill" st

let test_server_kill_replay_deterministic () =
  let fingerprint (st : Tenant_server.stats) =
    ( st.Tenant_server.rounds,
      List.map
        (fun c ->
          ( c.Tenant_server.c_item.Admission.request.Request.id,
            Int64.bits_of_float c.Tenant_server.c_finished,
            c.Tenant_server.c_shard ))
        st.Tenant_server.completions )
  in
  Alcotest.(check bool) "same trace, same run" true
    (fingerprint (kill_scenario ()) = fingerprint (kill_scenario ()))

let test_server_rejects_malformed_inputs () =
  (* One request with a missing input and one whose per-row shape
     disagrees with the program's declared shapes, among well-formed
     work: both are refused at ingest with [Invalid_input], a request
     wider than a shard with [Too_wide], and the run continues to the
     end. *)
  let tenant = mk_tenant 0 in
  let good = List.init 6 (fun i -> mk_item ~tenant ~id:i ~arrival:(1e-7 *. float_of_int i) ~n:(6 + i) ()) in
  let bad ~id inputs =
    {
      Admission.tenant;
      request =
        Request.make ~id ~member:(id * 8) ~arrival:1.5e-7 ~program:(Lazy.force compiled0)
          ~inputs ();
      digest = Lazy.force digest0;
    }
  in
  let row v = Tensor.stack_rows [ Tensor.scalar v ] in
  let bad_count = bad ~id:100 [ row 4.; row 0.3 ] in
  let bad_shape =
    bad ~id:101 [ row 4.; Tensor.stack_rows [ Tensor.of_array [| 2 |] [| 0.3; 0.4 |] ]; row 0. ]
  in
  let too_wide = mk_item ~tenant ~id:102 ~arrival:1.5e-7 ~width:5 ~n:6 () in
  let items =
    match good with
    | a :: b :: rest -> a :: b :: bad_count :: bad_shape :: too_wide :: rest
    | _ -> assert false
  in
  let config =
    {
      (Tenant_server.default_config ~mesh:(default_mesh 1)) with
      Tenant_server.lanes_per_shard = 4;
      checkpoint_interval = 4;
    }
  in
  let st = Tenant_server.run ~config (Tenant_server.source_of_list items) in
  Alcotest.(check int) "requests conserved" (List.length items)
    (List.length st.Tenant_server.completions
    + List.length st.Tenant_server.throttled
    + List.length st.Tenant_server.rejected
    + List.length st.Tenant_server.shed);
  Alcotest.(check (list (pair int string)))
    "malformed requests refused as invalid-input, the wide one as too-wide"
    [ (100, "invalid-input"); (101, "invalid-input"); (102, "too-wide") ]
    (refusals st);
  Alcotest.(check int) "every well-formed request completed" 6
    (List.length st.Tenant_server.completions);
  check_all_solo "malformed" st

(* ---------- the E5 serving regime: one tenant, one shard ---------- *)

(* The configuration the serving experiment (E5) runs: one shard,
   preemption off, no periodic checkpoints. A policy is an admission pop
   plus a refill regime. *)
let policies =
  [
    ("fifo", Admission.Fifo, Tenant_server.Continuous);
    ("shortest", Admission.Shortest_first, Tenant_server.Continuous);
    ("synchronous", Admission.Fifo, Tenant_server.Synchronous);
  ]

let e5_config ?(lanes = 4) ?(depth = 64) ?(mode = Admission.Fifo)
    ?(refill = Tenant_server.Continuous) ?sink () =
  {
    (Tenant_server.default_config ~mesh:(default_mesh 1)) with
    Tenant_server.lanes_per_shard = lanes;
    admission = { (Admission.fifo ~depth ()) with Admission.mode };
    refill;
    preempt = false;
    checkpoint_interval = 0;
    sink;
  }

let serve ?on_complete config items =
  Tenant_server.run ~config ?on_complete (Tenant_server.source_of_list items)

(* One simulated microsecond: arrival gaps below are written in it. *)
let us = 1e-6

let e5_tenant = Tenant.make ~id:0 ~name:"e5" ()

let item ?(cost = 1.) ?(arrival = 0.) ~id ~member ~program inputs =
  {
    Admission.tenant = e5_tenant;
    request = Request.make ~id ~member ~arrival ~cost_hint:cost ~program ~inputs ();
    digest = 1L;
  }

(* Fib by double recursion: service time grows with the input. *)
let fib_compiled = lazy (Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib)

let fib_item ?(arrival = 0.) ?width ~id n =
  let inputs =
    match width with
    | None -> [ Tensor.of_list [ n ] ]
    | Some w -> [ Tensor.init [| w |] (fun i -> n +. float_of_int i.(0)) ]
  in
  item ~cost:n ~arrival ~id ~member:(id * 16) ~program:(Lazy.force fib_compiled) inputs

(* Batched NUTS on a small Gaussian: every lane draws from its member's
   RNG streams, which serving must reproduce through member offsets. *)
let nuts_item ?(arrival = 0.) ?(width = 1) ?(n_iter = 1) ~id ~member () =
  let program, q0, eps = Lazy.force Test_shard.nuts_program in
  item ~cost:(float_of_int n_iter) ~arrival ~id ~member ~program
    (Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:width ())

let completion_id c = c.Tenant_server.c_item.Admission.request.Request.id

let by_id (st : Tenant_server.stats) id =
  List.find (fun c -> completion_id c = id) st.Tenant_server.completions

(* Every completion's id and output bits, in id order. *)
let results (st : Tenant_server.stats) =
  List.sort compare
    (List.map
       (fun c ->
         ( completion_id c,
           List.map
             (fun o -> Array.map Int64.bits_of_float (Tensor.data o))
             (Option.get c.Tenant_server.c_outputs) ))
       st.Tenant_server.completions)

let all_solo (st : Tenant_server.stats) =
  List.for_all Tenant_load.matches_solo st.Tenant_server.completions

(* ---------- requests and the single-queue admission modes ---------- *)

let test_request_validation () =
  Alcotest.check_raises "no inputs"
    (Invalid_argument "Request: at least one input required") (fun () ->
      ignore (Request.make ~id:0 ~program:(Lazy.force fib_compiled) ~inputs:[] ()));
  let r = (fib_item ~id:7 ~width:3 6.).Admission.request in
  Alcotest.(check int) "width" 3 (Request.width r);
  Alcotest.(check (float 0.)) "lane input row 2" 8.
    (Tensor.get (List.hd (Request.lane_inputs r ~row:2)) [||])

let test_shortest_first_order () =
  let adm =
    Admission.create ~config:{ (Admission.fifo ()) with Admission.mode = Shortest_first } ()
  in
  List.iter
    (fun (id, cost) -> ignore (Admission.offer adm (fib_item ~id cost)))
    [ (0, 9.); (1, 2.); (2, 2.); (3, 1.); (4, 0.5) ];
  let pop fits =
    match Admission.pop adm ~fits with Some it -> it.Admission.request.Request.id | None -> -1
  in
  (* A non-fitting item is skipped, never popped; [List.init] pops in order. *)
  let first = pop (fun it -> it.Admission.request.Request.id <> 4) in
  Alcotest.(check (list int)) "cost order, ties by arrival" [ 3; 4; 1; 2; 0 ]
    (first :: List.init 4 (fun _ -> pop always));
  Alcotest.(check int) "drained" (-1) (pop always)

let test_queue_reject_new () =
  let adm = Admission.create ~config:(Admission.fifo ~depth:2 ()) () in
  let offer id = Admission.offer adm (fib_item ~id 3.) in
  Alcotest.(check bool) "first" true (offer 0 = `Admitted);
  Alcotest.(check bool) "second" true (offer 1 = `Admitted);
  Alcotest.(check bool) "newcomer refused" true (offer 2 = `Rejected Admission.Queue_full);
  Alcotest.(check (list int)) "depth held, oldest kept" [ 0; 1 ] (item_ids adm)

(* ---------- determinism: every completion equals its solo run ---------- *)

let arb_policy = QCheck.oneofl policies

let prop_alone_matches_solo =
  QCheck.Test.make ~name:"alone equals solo run" ~count:4
    (QCheck.triple arb_policy (QCheck.int_range 0 60) (QCheck.int_range 1 2))
    (fun ((_, mode, refill), member, n_iter) ->
      let st = serve (e5_config ~mode ~refill ()) [ nuts_item ~id:0 ~member ~n_iter () ] in
      List.length st.Tenant_server.completions = 1 && all_solo st)

(* A saturated trace: more work than lanes, mixed widths and trajectory
   counts, distinct members, arrivals a few microseconds apart. *)
let arb_trace =
  QCheck.(
    list_of_size (Gen.int_range 6 10)
      (triple (int_range 1 2) (int_range 1 2) (int_range 0 4)))

let trace_items spec =
  List.mapi
    (fun id (width, n_iter, gap) ->
      nuts_item ~id ~member:(id * 3) ~width ~n_iter ~arrival:(float_of_int gap *. us) ())
    spec

let prop_saturated_all_policies =
  QCheck.Test.make ~name:"saturated server, all policies" ~count:2 arb_trace
    (fun spec ->
      let items = trace_items spec in
      List.for_all
        (fun (_, mode, refill) ->
          let st = serve (e5_config ~mode ~refill ()) items in
          List.length st.Tenant_server.completions = List.length items && all_solo st)
        policies)

let prop_arrival_order_invariance =
  QCheck.Test.make ~name:"arrival order invariance" ~count:2
    (QCheck.triple arb_trace arb_policy (QCheck.pair QCheck.int QCheck.bool))
    (fun (spec, (_, mode, refill), (seed, narrow)) ->
      let items = trace_items spec in
      (* The same requests, their arrival times permuted, on a device of
         a different width. *)
      let arrival (it : Admission.item) = it.Admission.request.Request.arrival in
      let permuted =
        List.map2
          (fun (it : Admission.item) a ->
            { it with Admission.request = { it.Admission.request with Request.arrival = a } })
          items
          (QCheck.Gen.shuffle_l (List.map arrival items) (Random.State.make [| seed |]))
        |> List.stable_sort (fun a b -> compare (arrival a) (arrival b))
      in
      results (serve (e5_config ()) items)
      = results (serve (e5_config ~lanes:(if narrow then 2 else 4) ~mode ~refill ()) permuted))

(* ---------- the serving loop ---------- *)

let test_server_full_queue () =
  (* 1 lane, a queue of depth 2, 6 simultaneous arrivals: the first two
     are queued (one then takes the lane), the other four are refused. *)
  let st = serve (e5_config ~lanes:1 ~depth:2 ()) (List.init 6 (fun id -> fib_item ~id 10.)) in
  Alcotest.(check (list int)) "first two served" [ 0; 1 ]
    (List.map completion_id st.Tenant_server.completions);
  Alcotest.(check (list (pair int string)))
    "the rest refused as queue-full"
    (List.map (fun id -> (id, "queue-full")) [ 2; 3; 4; 5 ])
    (refusals st)

let test_server_idles_between_arrivals () =
  (* Arrival gaps far longer than a request's service: the clock jumps
     to each arrival, and each request starts the moment it arrives. *)
  let items = List.init 3 (fun id -> fib_item ~id ~arrival:(float_of_int id *. 1e4 *. us) 4.) in
  let st = serve (e5_config ~lanes:2 ()) items in
  Alcotest.(check int) "all served" 3 (List.length st.Tenant_server.completions);
  Alcotest.(check bool) "clock reached the last arrival" true
    (st.Tenant_server.makespan >= 2e4 *. us);
  List.iter
    (fun c ->
      Alcotest.(check (float 0.)) "no queueing delay"
        c.Tenant_server.c_item.Admission.request.Request.arrival c.Tenant_server.c_started)
    st.Tenant_server.completions

let test_server_rejects_too_wide () =
  let st = serve (e5_config ~lanes:2 ()) [ fib_item ~id:0 ~width:3 5.; fib_item ~id:1 5. ] in
  Alcotest.(check (list (pair int string)))
    "wide refused as too-wide" [ (0, "too-wide") ]
    (refusals st);
  Alcotest.(check (list int)) "narrow served" [ 1 ]
    (List.map completion_id st.Tenant_server.completions)

let test_server_latency_accounting () =
  let prof = Obs_prof.create () in
  let st =
    serve
      (e5_config ~lanes:2 ~sink:(Obs_prof.sink prof) ())
      (List.init 5 (fun id -> fib_item ~id 8.))
  in
  List.iter
    (fun c ->
      let arrival = c.Tenant_server.c_item.Admission.request.Request.arrival in
      Alcotest.(check bool) "arrival <= started" true (arrival <= c.Tenant_server.c_started);
      Alcotest.(check bool) "started < finished" true
        (c.Tenant_server.c_started < c.Tenant_server.c_finished))
    st.Tenant_server.completions;
  let occ = Obs_prof.mean_occupancy prof in
  Alcotest.(check bool) "occupancy sampled" true (Obs_prof.supersteps prof > 0);
  Alcotest.(check bool) "occupancy in (0, 1]" true (occ > 0. && occ <= 1.)

let test_server_closed_loop () =
  (* A one-client closed loop issues each follow-up on completion: the
     chain of 4 requests serializes, and each reproduces its solo run. *)
  let issued = ref 1 in
  let on_complete _ =
    if !issued >= 4 then None
    else begin
      let id = !issued in
      incr issued;
      Some (fib_item ~id (6. +. float_of_int id))
    end
  in
  let st = serve ~on_complete (e5_config ~lanes:2 ()) [ fib_item ~id:0 6. ] in
  Alcotest.(check (list int)) "chain served in order" [ 0; 1; 2; 3 ]
    (List.map completion_id st.Tenant_server.completions);
  Alcotest.(check bool) "every link bitwise vs solo" true (all_solo st);
  for id = 1 to 3 do
    let c = by_id st id in
    Alcotest.(check bool)
      (Printf.sprintf "follow-up %d arrives (clamped) after its cause finished" id)
      true
      (c.Tenant_server.c_item.Admission.request.Request.arrival
      >= (by_id st (id - 1)).Tenant_server.c_finished)
  done

let test_server_charges_engine () =
  let st = serve (e5_config ~lanes:2 ()) (List.init 4 (fun id -> fib_item ~id 6.)) in
  let c = st.Tenant_server.counters in
  Alcotest.(check int) "every lane load charged" 4 c.Engine.Counters.lane_refills;
  Alcotest.(check int) "every retire charged" 4 c.Engine.Counters.lane_retires;
  Alcotest.(check bool) "the clock is simulated time" true (st.Tenant_server.makespan > 0.)

let test_synchronous_waits_for_the_batch () =
  (* Two lanes: a long and a short request start together, a third waits.
     Continuous refill starts it as soon as the short one retires;
     synchronous refill holds it until the long one has retired too. *)
  let items = [ fib_item ~id:0 14.; fib_item ~id:1 2.; fib_item ~id:2 2. ] in
  let continuous = serve (e5_config ~lanes:2 ()) items in
  let synchronous = serve (e5_config ~lanes:2 ~refill:Tenant_server.Synchronous ()) items in
  Alcotest.(check bool) "continuous refills mid-batch" true
    ((by_id continuous 2).Tenant_server.c_started < (by_id continuous 0).Tenant_server.c_finished);
  Alcotest.(check bool) "synchronous never refills while a flight is live" true
    ((by_id synchronous 2).Tenant_server.c_started
    >= (by_id synchronous 0).Tenant_server.c_finished);
  Alcotest.(check bool) "both bitwise vs solo" true (all_solo continuous && all_solo synchronous)

let test_closed_loop_once_under_kill () =
  (* Follow-ups fire when completions leave the rollback window, so a
     kill that replays retired work never fires them twice. *)
  let fired = ref [] in
  let issued = ref 4 in
  let on_complete c =
    fired := completion_id c :: !fired;
    if !issued >= 8 then None
    else begin
      let id = !issued in
      incr issued;
      Some (fib_item ~id (8. +. float_of_int (id mod 3)))
    end
  in
  let config =
    {
      (e5_config ~lanes:2 ()) with
      Tenant_server.checkpoint_interval = 3;
      faults = [ { Fault.superstep = 12; device = 0; kind = Fault.Device_kill } ];
    }
  in
  let check name ~restores config =
    fired := [];
    issued := 4;
    let st = serve ~on_complete config (List.init 4 (fun id -> fib_item ~id 9.)) in
    Alcotest.(check int) (name ^ ": restores") restores st.Tenant_server.restores;
    Alcotest.(check (list int)) (name ^ ": fired once per completion") [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      (List.sort compare !fired);
    Alcotest.(check int) (name ^ ": all eight completed") 8
      (List.length st.Tenant_server.completions);
    Alcotest.(check bool) (name ^ ": bitwise vs solo") true (all_solo st)
  in
  check "kill at round 12" ~restores:1 config;
  (* A kill planned past the end keeps every completion in the window
     until the work runs out; the follow-ups must still be served. *)
  check "kill never reached" ~restores:0
    {
      config with
      Tenant_server.checkpoint_interval = 0;
      faults = [ { Fault.superstep = 1_000_000; device = 0; kind = Fault.Device_kill } ];
    }

(* An input the program declares no shape for takes the row shape of the
   first admitted request. Later requests must match it exactly: one
   with another element count, and one with the same count in another
   shape, are refused at ingest and the run finishes. *)
let test_undeclared_shapes_fixed_at_first_admission () =
  let program =
    let open Lang in
    Autobatch.compile
      (program ~main:"f"
         [ func "f" ~params:[ "x"; "n" ] [ return_ [ var "x"; var "n" ] ] ])
  in
  let req ~id x = item ~id ~member:id ~program [ Tensor.stack_rows [ x ]; Tensor.of_list [ 1. ] ] in
  let grid = Tensor.init [| 2; 3 |] (fun i -> float_of_int ((3 * i.(0)) + i.(1))) in
  let items =
    [
      req ~id:0 grid;
      req ~id:1 (Tensor.reshape grid [| 3; 2 |]);
      req ~id:2 (Tensor.zeros [| 5 |]);
      req ~id:3 (Tensor.map (fun v -> v +. 1.) grid);
    ]
  in
  let st = serve (e5_config ~lanes:2 ()) items in
  Alcotest.(check (list (pair int string)))
    "disagreeing rows refused as invalid-input"
    [ (1, "invalid-input"); (2, "invalid-input") ]
    (refusals st);
  Alcotest.(check (list int)) "the agreeing ones served" [ 0; 3 ]
    (List.sort compare (List.map completion_id st.Tenant_server.completions));
  Alcotest.(check bool) "bitwise vs solo" true (all_solo st)

(* ---------- the load harness under --seed ---------- *)

let test_load_deterministic_under_seed () =
  let run () =
    Tenant_load.run ~seed:0xBEEFL ~n_requests:250 ~n_tenants:8 ~n_programs:4
      ~mesh_size:2 ~lanes_per_shard:4 ()
  in
  let a = Obs_json.to_string (Tenant_load.to_json (run ())) in
  let b = Obs_json.to_string (Tenant_load.to_json (run ())) in
  Alcotest.(check bool) "same seed, byte-identical readout" true (a = b);
  let c =
    Obs_json.to_string
      (Tenant_load.to_json
         (Tenant_load.run ~seed:0xFACEL ~n_requests:250 ~n_tenants:8
            ~n_programs:4 ~mesh_size:2 ~lanes_per_shard:4 ()))
  in
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

let test_load_verifies_bitwise () =
  let r =
    Tenant_load.run ~seed:0x7E47L ~n_requests:200 ~n_tenants:6 ~n_programs:3
      ~mesh_size:2 ~lanes_per_shard:4 ~baseline:false ()
  in
  Alcotest.(check int) "no mismatches" 0 r.Tenant_load.mismatches;
  Alcotest.(check bool) "completions verified" true (r.Tenant_load.verified > 0)

(* ---------- suites ---------- *)

let suites =
  [
    ( "tenant-bucket",
      [
        t "refill and deny" `Quick test_bucket_refill_and_deny;
        t "quota exhaustion" `Quick test_quota_exhaustion;
      ] );
    ( "tenant-cache",
      [
        t "digest is structural" `Quick test_digest_structural;
        t "digest values are pinned" `Quick test_digest_values_pinned;
        t "hit returns the same artifact" `Quick test_cache_hit_and_identity;
        t "LRU eviction" `Quick test_cache_lru_eviction;
      ] );
    ( "tenant-admission",
      [
        t "weighted-fair shares" `Quick test_wfq_shares;
        t "pop skips non-fitting head" `Quick test_pop_skips_nonfitting_head;
        t "fifo baseline is SLO-blind" `Quick test_fifo_is_slo_blind;
        t "ladder climbs and descends with hysteresis" `Quick
          test_ladder_climb_and_hysteresis;
        t "ladder refusals by class" `Quick test_ladder_refusals_by_class;
        QCheck_alcotest.to_alcotest prop_shed_victim;
        QCheck_alcotest.to_alcotest prop_admission_deterministic;
        QCheck_alcotest.to_alcotest prop_admission_counters;
      ] );
    ("tenant-pool", [ t "decide" `Quick test_pool_decide ]);
    ( "tenant-server",
      [
        t "undeclared shapes fixed at first admission" `Quick
          test_undeclared_shapes_fixed_at_first_admission;
        t "synchronous waits for the whole batch" `Quick test_synchronous_waits_for_the_batch;
        t "closed loop fires once under a kill" `Quick test_closed_loop_once_under_kill;
        t "preemption is bitwise invisible" `Quick test_server_preemption_bitwise;
        t "device kill recovers bitwise" `Quick test_server_kill_recovers_bitwise;
        t "kill replay is deterministic" `Quick test_server_kill_replay_deterministic;
        t "malformed inputs rejected at ingest" `Quick test_server_rejects_malformed_inputs;
      ] );
    ( "tenant-load",
      [
        t "deterministic under --seed" `Quick test_load_deterministic_under_seed;
        t "completions verify against solo" `Quick test_load_verifies_bitwise;
      ] );
      (* Suite names kept from the retired request server's tests, whose
       behaviour these now check on the one serving runtime. *)
    ( "serve-queue",
      [
        t "request validation" `Quick test_request_validation;
        t "shortest-first order" `Quick test_shortest_first_order;
        t "reject-new shed" `Quick test_queue_reject_new;
      ] );
    ( "serve-determinism",
      [
        QCheck_alcotest.to_alcotest prop_alone_matches_solo;
        QCheck_alcotest.to_alcotest ~speed_level:`Slow prop_saturated_all_policies;
        QCheck_alcotest.to_alcotest ~speed_level:`Slow prop_arrival_order_invariance;
      ] );
    ( "serve-server",
      [
        t "full queue sheds" `Quick test_server_full_queue;
        t "idles between arrivals" `Quick test_server_idles_between_arrivals;
        t "rejects wider than device" `Quick test_server_rejects_too_wide;
        t "latency accounting" `Quick test_server_latency_accounting;
        t "closed loop follow-ups" `Quick test_server_closed_loop;
        t "charges engine refills and retires" `Quick test_server_charges_engine;
      ] );
  ]
