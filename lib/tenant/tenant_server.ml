type refill = Continuous | Synchronous

type config = {
  lanes_per_shard : int;
  mesh : Mesh.t;
  mode : Engine.mode;
  policy : Sched_policy.t;
  admission : Admission.config;
  pool : Pool.config;
  preempt : bool;
  refill : refill;
  checkpoint_interval : int;
  faults : Fault.event list;
  keep_outputs : bool;
  max_rounds : int;
  metrics : Obs_metrics.t option;
  sink : Obs_sink.t option;
  slo : Obs_slo.t option;
  slo_drive : bool;
}

let default_config ~mesh =
  {
    lanes_per_shard = 8;
    mesh;
    mode = Engine.Hybrid;
    policy = Sched_policy.Earliest;
    admission = Admission.default;
    pool = Pool.default;
    preempt = true;
    refill = Continuous;
    checkpoint_interval = 32;
    faults = [];
    keep_outputs = true;
    max_rounds = 10_000_000;
    metrics = None;
    sink = None;
    slo = None;
    slo_drive = false;
  }

type completion = {
  c_item : Admission.item;
  c_outputs : Tensor.t list option;
  c_started : float;
  c_finished : float;
  c_shard : int;
  c_preempted : int;
  c_marks : (string * float * float) list;
}

type stats = {
  completions : completion list;
  throttled : Admission.item list;
  rejected : (Admission.item * Admission.reason) list;
  shed : Admission.item list;
  rounds : int;
  makespan : float;
  preemptions : int;
  resumes : int;
  migrations : int;
  migration_bytes : float;
  binds : int;
  rebinds : int;
  grows : int;
  shrinks : int;
  checkpoints : int;
  restores : int;
  wasted_rounds : int;
  peak_active : int;
  counters : Engine.Counters.t;
}

type source = {
  mutable ahead : Admission.item option;  (* one-slot lookahead *)
  next : unit -> Admission.item option;
}

let source_of_fun next = { ahead = None; next }

let source_of_list items =
  let rest = ref items in
  source_of_fun (fun () ->
      match !rest with
      | [] -> None
      | it :: tl ->
        rest := tl;
        Some it)

let src_peek s =
  match s.ahead with
  | Some _ as it -> it
  | None ->
    s.ahead <- s.next ();
    s.ahead

let src_pop s =
  match src_peek s with
  | None -> None
  | Some _ as it ->
    s.ahead <- None;
    it

(* ---------- runtime state ---------- *)

type flight = {
  f_item : Admission.item;
  f_lanes : int array;
  f_started : float;
  f_preempted : int;
  f_marks : (string * float * float) list;  (* newest first; immutable *)
}

type parked = {
  p_item : Admission.item;
  p_states : Pc_vm.Lanes.lane_state array;
  p_started : float;
  p_preempted : int;
  p_from : int;
  p_at : float;
  p_seq : int;
  p_marks : (string * float * float) list;
}

type ckpt = {
  k_image : Pc_vm.Lanes.image;
  k_engine : Engine.snapshot;
  k_flight : flight list;
  k_draining : bool;
}

type binding = {
  b_digest : int64;
  b_program : Autobatch.compiled;
  b_lanes : Pc_vm.Lanes.t;
  mutable b_flight : flight list;  (* admission order *)
  mutable b_draining : bool;
  mutable b_ckpt : ckpt;
  mutable b_since : int;           (* rounds since the last checkpoint *)
  mutable b_stepped : int;         (* supersteps since the last checkpoint *)
  mutable b_admitted_since : Admission.item list;  (* newest first *)
  mutable b_done_since : completion list;          (* newest first *)
  mutable b_force_ckpt : bool;
}

type shard = {
  s_id : int;
  s_engine : Engine.t;
  mutable s_b : binding option;
}

let bytes_of outputs =
  List.fold_left (fun acc x -> acc +. (8. *. float_of_int (Tensor.numel x))) 0. outputs

(* A request's inputs agree with its program: one tensor per program
   input, each row shaped as the program declares (inputs without a
   declared shape take whatever the first write gives them). *)
let inputs_fit (r : Request.t) =
  let p = r.Request.program.Autobatch.stack in
  List.compare_lengths p.Stack_ir.inputs r.Request.inputs = 0
  && List.for_all2
       (fun v x ->
         match Ir_util.Smap.find_opt v p.Stack_ir.shapes with
         | Some elem -> Shape.equal elem (Vm_util.elem_shape_of_batched x)
         | None -> true)
       p.Stack_ir.inputs r.Request.inputs

let run ?config ?on_complete src =
  let cfg =
    match config with Some c -> c | None -> default_config ~mesh:(Mesh.gpu_pod ~n:4 ())
  in
  if cfg.lanes_per_shard <= 0 then
    invalid_arg "Tenant_server.run: lanes_per_shard must be positive";
  let n_shards = Mesh.size cfg.mesh in
  let z = cfg.lanes_per_shard in
  let emit ev = match cfg.sink with Some s -> s ev | None -> () in
  let shards =
    Array.init n_shards (fun i ->
        let engine = Engine.create ~device:(Mesh.device cfg.mesh i) ~mode:cfg.mode () in
        (match cfg.sink with
        | Some s -> Engine.set_sink engine (Obs_sink.tag_shard i s)
        | None -> ());
        { s_id = i; s_engine = engine; s_b = None })
  in
  let fair = cfg.admission.Admission.mode = Admission.Fair in
  let kills = List.filter (fun e -> e.Fault.kind = Fault.Device_kill) cfg.faults in
  let injector = Fault.injector kills in

  let now = ref 0. in
  (* Ladder transitions surface as first-class events, stamped with the
     simulated clock and the cause ("occupancy" or "slo-floor") — rung
     changes stop being opaque. *)
  let adm =
    Admission.create ~config:cfg.admission
      ~on_transition:(fun ~old_level:_ ~new_level ~occupancy ~cause ->
        emit
          (Obs_sink.Ladder
             {
               level = Admission.level_name new_level;
               occupancy;
               cause;
               at = !now;
             }))
      ()
  in
  (* Span ids are a server-global sequence, assigned at emission time
     only — a rolled-back round never consumes ids, so replays stay
     deterministic. *)
  let span_seq = ref 0 in
  let next_span () =
    let s = !span_seq in
    incr span_seq;
    s
  in
  (* Server-lifecycle instants (pool scaling, checkpoint, restore) live
     on the shared ops trace, outside any request's tree. *)
  let ops_span name =
    match cfg.sink with
    | None -> ()
    | Some sink ->
      let span = next_span () in
      sink
        (Obs_sink.Span
           {
             trace = Obs_span.ops_trace;
             span;
             parent = Obs_span.no_parent;
             track = Obs_span.ops_track;
             name;
             t0 = !now;
             t1 = !now;
           })
  in
  (* One span tree per completed request, emitted exactly once — at the
     moment the completion leaves the rollback window (flush), not at
     retire, which a device kill can replay. *)
  let emit_request_spans (c : completion) =
    match cfg.sink with
    | None -> ()
    | Some sink ->
      let r = c.c_item.Admission.request in
      let trace = r.Request.ctx.Obs_span.trace in
      let track = c.c_item.Admission.tenant.Tenant.id in
      let sp ~parent ~name ~t0 ~t1 =
        let span = next_span () in
        sink (Obs_sink.Span { trace; span; parent; track; name; t0; t1 });
        span
      in
      let root =
        sp ~parent:r.Request.ctx.Obs_span.parent ~name:"request"
          ~t0:r.Request.arrival ~t1:c.c_finished
      in
      ignore
        (sp ~parent:root ~name:"queue" ~t0:r.Request.arrival ~t1:c.c_started);
      let service =
        sp ~parent:root ~name:"service" ~t0:c.c_started ~t1:c.c_finished
      in
      List.iter
        (fun (name, t0, t1) -> ignore (sp ~parent:service ~name ~t0 ~t1))
        c.c_marks
  in
  let round = ref 0 in
  let parked = ref ([] : parked list) in
  let seq = ref 0 in
  let completions = ref ([] : completion list) in  (* newest first *)
  let throttled = ref [] and rejected = ref [] and shed = ref [] in
  let preemptions = ref 0 and resumes = ref 0 in
  let migrations = ref 0 and migration_bytes = ref 0. in
  let binds = ref 0 and rebinds = ref 0 and grows = ref 0 and shrinks = ref 0 in
  let checkpoints = ref 0 and restores = ref 0 and wasted = ref 0 in
  let peak_active = ref 0 in
  let target = ref (Stdlib.max cfg.pool.Pool.min_shards 1) in
  let since_scale = ref cfg.pool.Pool.cooldown in
  let max_target = Stdlib.min n_shards cfg.pool.Pool.max_shards in
  if !target > max_target then target := max_target;

  let count_bindings pred =
    Array.fold_left
      (fun acc s -> match s.s_b with Some b when pred b -> acc + 1 | _ -> acc)
      0 shards
  in
  let active_count () = count_bindings (fun b -> not b.b_draining) in
  let draining_count () = count_bindings (fun b -> b.b_draining) in
  let live_lanes () =
    Array.fold_left
      (fun acc s ->
        match s.s_b with
        | Some b when not b.b_draining -> acc + Pc_vm.Lanes.live_count b.b_lanes
        | _ -> acc)
      0 shards
  in
  let flights_exist () =
    Array.exists (fun s -> match s.s_b with Some b -> b.b_flight <> [] | None -> false) shards
  in

  (* ---------- checkpoints and recovery ---------- *)
  let ckpt_bytes b =
    let total = ref 64. in
    for lane = 0 to z - 1 do
      if Pc_vm.Lanes.occupied b.b_lanes ~lane then
        total := !total +. Pc_vm.Lanes.lane_bytes b.b_lanes ~lane
    done;
    !total
  in
  let capture_ckpt s b =
    {
      k_image = Pc_vm.Lanes.capture b.b_lanes;
      k_engine = Engine.snapshot s.s_engine;
      k_flight = List.map (fun f -> { f with f_lanes = Array.copy f.f_lanes }) b.b_flight;
      k_draining = b.b_draining;
    }
  in
  (* Closed-loop follow-ups from [on_complete], in arrival order; ingest
     merges them with the source. *)
  let followups = ref ([] : Admission.item list) in
  let arrival (it : Admission.item) = it.Admission.request.Request.arrival in
  let follow_up (c : completion) =
    match on_complete with
    | None -> ()
    | Some f -> (
      match f c with
      | None -> ()
      | Some (it : Admission.item) ->
        let r = it.Admission.request in
        let it =
          if arrival it >= !now then it
          else { it with Admission.request = { r with Request.arrival = !now } }
        in
        let rec insert = function
          | x :: rest when arrival x <= arrival it -> x :: insert rest
          | l -> it :: l
        in
        followups := insert !followups)
  in
  (* Completions leave the rollback window only here: once flushed they
     are final, the tenants' completion counters move with them, and
     [on_complete] sees each exactly once, oldest first. *)
  let flush_done b =
    List.iter
      (fun c ->
        c.c_item.Admission.tenant.Tenant.completed <-
          c.c_item.Admission.tenant.Tenant.completed + 1;
        emit_request_spans c)
      b.b_done_since;
    if Option.is_some on_complete then List.iter follow_up (List.rev b.b_done_since);
    completions := b.b_done_since @ !completions;
    b.b_done_since <- []
  in
  let do_checkpoint s b =
    flush_done b;
    b.b_ckpt <- capture_ckpt s b;
    b.b_since <- 0;
    b.b_stepped <- 0;
    b.b_admitted_since <- [];
    b.b_force_ckpt <- false;
    incr checkpoints;
    ops_span "checkpoint";
    (* Only a sink reads the size: without one, skip the lane walk. *)
    match cfg.sink with
    | Some sink ->
      sink (Obs_sink.Checkpoint { step = !round; bytes = int_of_float (ckpt_bytes b) })
    | None -> ()
  in
  let restore_shard s b =
    (* Work admitted after the checkpoint goes back to the queue head in
       deterministic order; its unflushed completions are discarded (the
       re-execution recreates them bitwise). *)
    let requeue = Admission.requeue_order b.b_admitted_since in
    List.iter (Admission.push_front adm) (List.rev requeue);
    b.b_admitted_since <- [];
    b.b_done_since <- [];
    Pc_vm.Lanes.restore b.b_lanes b.b_ckpt.k_image;
    Engine.restore s.s_engine b.b_ckpt.k_engine;
    b.b_flight <-
      List.map (fun f -> { f with f_lanes = Array.copy f.f_lanes }) b.b_ckpt.k_flight;
    b.b_draining <- b.b_ckpt.k_draining;
    (* The checkpoint predates every superstep stepped since, including
       one stepped in the round it was taken. *)
    wasted := !wasted + b.b_stepped;
    b.b_since <- 0;
    b.b_stepped <- 0;
    b.b_force_ckpt <- false;
    incr restores;
    ops_span "restore";
    emit (Obs_sink.Restore { step = !round })
  in

  (* ---------- binding ---------- *)
  let bind s digest (program : Autobatch.compiled) =
    let vm_config =
      {
        Pc_vm.default_config with
        Pc_vm.sched = cfg.policy;
        engine = Some s.s_engine;
        sink = Option.map (Obs_sink.tag_shard s.s_id) cfg.sink;
      }
    in
    let lanes =
      Pc_vm.Lanes.create ~config:vm_config program.Autobatch.registry
        program.Autobatch.stack ~z
    in
    let b =
      {
        b_digest = digest;
        b_program = program;
        b_lanes = lanes;
        b_flight = [];
        b_draining = false;
        b_ckpt =
          {
            k_image = Pc_vm.Lanes.capture lanes;
            k_engine = Engine.snapshot s.s_engine;
            k_flight = [];
            k_draining = false;
          };
        b_since = 0;
        b_stepped = 0;
        b_admitted_since = [];
        b_done_since = [];
        b_force_ckpt = false;
      }
    in
    s.s_b <- Some b;
    b
  in
  let unbind s b =
    flush_done b;
    s.s_b <- None
  in

  (* ---------- arrivals ---------- *)
  (* The next arrival (the source's head, or an earlier follow-up) and
     its removal. *)
  let next_arrival () =
    match (!followups, src_peek src) with
    | f :: _, Some it when arrival f < arrival it -> Some f
    | f :: _, None -> Some f
    | _, head -> head
  in
  let take it =
    match !followups with
    | f :: rest when f == it -> followups := rest
    | _ -> ignore (src_pop src)
  in
  (* Row shapes per program digest, fixed by the first request of that
     digest admitted to the queue. An input the program declares no
     shape for takes its storage shape from the first lane load, so a
     later request that disagrees must be refused here: at a lane it
     would abort the round, or be silently reinterpreted. *)
  let row_shapes : (int64, Shape.t list) Hashtbl.t = Hashtbl.create 16 in
  let shapes_of (it : Admission.item) =
    List.map Vm_util.elem_shape_of_batched it.Admission.request.Request.inputs
  in
  let rows_agree (it : Admission.item) =
    match Hashtbl.find_opt row_shapes it.Admission.digest with
    | None -> true
    | Some fixed -> List.for_all2 Shape.equal fixed (shapes_of it)
  in
  let fix_rows (it : Admission.item) =
    if not (Hashtbl.mem row_shapes it.Admission.digest) then
      Hashtbl.replace row_shapes it.Admission.digest (shapes_of it)
  in
  let ingest () =
    let continue = ref true in
    while !continue do
      match next_arrival () with
      | Some it when arrival it <= !now ->
        take it;
        let r = it.Admission.request in
        if not (inputs_fit r && rows_agree it) then begin
          (* Malformed: refused here, before [Lanes.load] could raise
             mid-round and abort the whole run. *)
          rejected := (it, Admission.Invalid_input) :: !rejected;
          emit (Obs_sink.Request_rejected { id = r.Request.id; at = !now })
        end
        else if Request.width r > z then begin
          (* Wider than a whole shard: unservable by construction. *)
          rejected := (it, Admission.Too_wide) :: !rejected;
          emit (Obs_sink.Request_rejected { id = r.Request.id; at = !now })
        end
        else if
          not
            (Tenant.admit it.Admission.tenant ~now:r.Request.arrival
               ~cost:r.Request.cost_hint)
        then begin
          throttled := it :: !throttled;
          emit (Obs_sink.Request_rejected { id = r.Request.id; at = !now })
        end
        else begin
          let slo_bad (victim : Admission.item) =
            match cfg.slo with
            | Some slo ->
              Obs_slo.observe slo
                ~cls:(Tenant.slo_name (Admission.item_slo victim))
                ~now:!now ~ok:false
            | None -> ()
          in
          match Admission.offer adm it with
          | `Admitted ->
            fix_rows it;
            emit (Obs_sink.Request_enqueued { id = r.Request.id; at = !now })
          | `Shed victim ->
            shed := victim :: !shed;
            slo_bad victim;
            emit
              (Obs_sink.Request_shed
                 { id = victim.Admission.request.Request.id; at = !now });
            if victim.Admission.request.Request.id <> r.Request.id then begin
              fix_rows it;
              emit (Obs_sink.Request_enqueued { id = r.Request.id; at = !now })
            end
          | `Rejected reason ->
            rejected := (it, reason) :: !rejected;
            slo_bad it;
            emit (Obs_sink.Request_rejected { id = r.Request.id; at = !now })
        end
      | _ -> continue := false
    done
  in

  (* ---------- retire ---------- *)
  (* A kill fires in its round after the retire phase, so one planned
     for this very round can still roll back what retires now. *)
  let kill_pending s =
    List.exists
      (fun e -> e.Fault.superstep >= !round && e.Fault.device mod n_shards = s.s_id)
      kills
  in
  let retire_shard s b =
    let finished, rest =
      List.partition
        (fun f ->
          Array.for_all (fun lane -> Pc_vm.Lanes.finished b.b_lanes ~lane) f.f_lanes)
        b.b_flight
    in
    b.b_flight <- rest;
    List.iter
      (fun f ->
        let per_lane =
          Array.map
            (fun lane ->
              let outs = Pc_vm.Lanes.retire b.b_lanes ~lane in
              Engine.charge_retire s.s_engine ~bytes:(bytes_of outs);
              outs)
            f.f_lanes
        in
        let outputs =
          let n_outputs = List.length per_lane.(0) in
          List.init n_outputs (fun j ->
              Tensor.stack_rows
                (Array.to_list (Array.map (fun outs -> List.nth outs j) per_lane)))
        in
        let r = f.f_item.Admission.request in
        let c =
          {
            c_item = f.f_item;
            c_outputs = (if cfg.keep_outputs then Some outputs else None);
            c_started = f.f_started;
            c_finished = !now;
            c_shard = s.s_id;
            c_preempted = f.f_preempted;
            c_marks = List.rev f.f_marks;
          }
        in
        b.b_done_since <- c :: b.b_done_since;
        (* The burn-rate monitor is fed at retire (like the completion
           event): a restore replays retired-but-unflushed work, so rates
           can briefly double-count — acceptable for a rate monitor,
           where the span trees above stay exactly-once. *)
        (match cfg.slo with
        | Some slo ->
          Obs_slo.observe_latency slo
            ~cls:(Tenant.slo_name (Admission.item_slo f.f_item))
            ~now:!now
            (!now -. r.Request.arrival)
        | None -> ());
        emit
          (Obs_sink.Request_completed
             {
               id = r.Request.id;
               queued = r.Request.arrival;
               started = f.f_started;
               finished = !now;
             }))
      finished;
    (* A closed loop must not wait for the next checkpoint to see its
       completions: once no planned kill can still reach this shard,
       nothing can roll them back, so they leave the window now. *)
    if Option.is_some on_complete && finished <> [] && not (kill_pending s) then
      flush_done b
  in

  (* ---------- need accounting (queued + parked, by digest) ---------- *)
  (* Backlog pressure per digest. In [Fair] mode an item counts its SLO
     class's dispatch weight — the admission policy's priorities steer
     shard placement too, so a latency-heavy digest outbids a best-effort
     flood for the next free shard. The [Fifo] baseline stays SLO-blind
     everywhere: every item counts 1. *)
  let item_score (it : Admission.item) =
    if fair then cfg.admission.Admission.weights.(Admission.item_rank it) else 1
  in
  let need_table () =
    let tbl : (int64, int * float * Autobatch.compiled) Hashtbl.t =
      Hashtbl.create 16
    in
    let note (it : Admission.item) =
      let arrival = it.Admission.request.Request.arrival in
      let w = item_score it in
      match Hashtbl.find_opt tbl it.Admission.digest with
      | Some (n, a0, p) ->
        Hashtbl.replace tbl it.Admission.digest (n + w, Float.min a0 arrival, p)
      | None ->
        Hashtbl.replace tbl it.Admission.digest
          (w, arrival, it.Admission.request.Request.program)
    in
    Admission.iter adm note;
    List.iter (fun p -> note p.p_item) !parked;
    tbl
  in
  let need_count tbl digest =
    match Hashtbl.find_opt tbl digest with Some (n, _, _) -> n | None -> 0
  in
  (* Digests with pending work and no free lane anywhere serving them,
     most loaded first (ties: earliest arrival, then digest). *)
  let starving tbl =
    let served_free digest =
      Array.fold_left
        (fun acc s ->
          match s.s_b with
          | Some b when (not b.b_draining) && b.b_digest = digest ->
            acc + Pc_vm.Lanes.free_count b.b_lanes
          | _ -> acc)
        0 shards
    in
    Hashtbl.fold
      (fun digest (n, a0, p) acc ->
        if served_free digest = 0 then (digest, n, a0, p) :: acc else acc)
      tbl []
    |> List.sort (fun (d1, n1, a1, _) (d2, n2, a2, _) ->
           match compare n2 n1 with
           | 0 -> ( match compare a1 a2 with 0 -> Int64.compare d1 d2 | c -> c)
           | c -> c)
  in

  (* ---------- admission to lanes ---------- *)
  (* [width] free lanes of a binding, by the one shared lane-selection
     path; callers have checked that enough are free. *)
  let choose_free b ~width =
    let free = Array.init z (fun lane -> not (Pc_vm.Lanes.occupied b.b_lanes ~lane)) in
    match Sched_plan.choose_lanes ~free ~width with
    | Some lanes -> lanes
    | None -> invalid_arg "Tenant_server: lanes chosen on a full shard"
  in
  let add_flight b f = b.b_flight <- b.b_flight @ [ f ] in
  let start_flight s b (it : Admission.item) ~started ~preempted =
    let r = it.Admission.request in
    let lanes = choose_free b ~width:(Request.width r) in
    Array.iteri
      (fun i lane ->
        let inputs = Request.lane_inputs r ~row:i in
        Pc_vm.Lanes.load b.b_lanes ~lane ~member:(r.Request.member + i) ~inputs;
        Engine.charge_refill s.s_engine ~bytes:(bytes_of inputs))
      lanes;
    add_flight b
      { f_item = it; f_lanes = lanes; f_started = started; f_preempted = preempted; f_marks = [] }
  in
  let refill_shard s b =
    (* [Synchronous]: the fixed-batch regime refills a shard only once
       its last flight has retired. *)
    let continue = ref (cfg.refill = Continuous || b.b_flight = []) in
    while !continue do
      let free = Pc_vm.Lanes.free_count b.b_lanes in
      if free = 0 then continue := false
      else
        match
          Admission.pop adm ~fits:(fun it ->
              it.Admission.digest = b.b_digest
              && Request.width it.Admission.request <= free)
        with
        | Some it ->
          start_flight s b it ~started:!now ~preempted:0;
          b.b_admitted_since <- it :: b.b_admitted_since
        | None -> continue := false
    done
  in
  let refill () =
    Array.iter
      (fun s ->
        match s.s_b with
        | Some b when not b.b_draining -> refill_shard s b
        | _ -> ())
      shards
  in

  (* ---------- moving lanes: park, resume, drain ---------- *)
  (* Export a flight's lanes and free them. *)
  let export_flight b f =
    let states = Array.map (fun lane -> Pc_vm.Lanes.export_lane b.b_lanes ~lane) f.f_lanes in
    Array.iter (fun lane -> Pc_vm.Lanes.evict b.b_lanes ~lane) f.f_lanes;
    b.b_flight <- List.filter (fun g -> g != f) b.b_flight;
    states
  in
  (* Import exported lane states into free lanes of shard [s]'s binding,
     each reported as a migration from shard [src]; returns the lanes and
     the bytes moved. *)
  let import_states s b states ~src =
    let lanes = choose_free b ~width:(Array.length states) in
    let bytes = ref 0. in
    Array.iteri
      (fun j lane ->
        let st = states.(j) in
        Pc_vm.Lanes.import_lane b.b_lanes ~lane st;
        let sb = Pc_vm.Lanes.lane_state_bytes st in
        bytes := !bytes +. sb;
        emit
          (Obs_sink.Migration
             {
               src_shard = src;
               dst_shard = s.s_id;
               member = st.Pc_vm.Lanes.ls_member;
               bytes = sb;
               step = !round;
             }))
      lanes;
    (lanes, !bytes)
  in
  (* The first serving binding of [digest] with [width] free lanes. *)
  let room ~digest ~width =
    let rec scan i =
      if i >= n_shards then None
      else
        match shards.(i).s_b with
        | Some b
          when (not b.b_draining)
               && b.b_digest = digest
               && Pc_vm.Lanes.free_count b.b_lanes >= width ->
          Some (shards.(i), b)
        | _ -> scan (i + 1)
    in
    scan 0
  in

  (* ---------- preemption ---------- *)
  let park s b f =
    let states = export_flight b f in
    let bytes =
      Array.fold_left
        (fun acc st -> acc +. Pc_vm.Lanes.lane_state_bytes st)
        0. states
    in
    Engine.charge_transfer s.s_engine ~name:"preempt-park" ~bytes ~seconds:0.;
    b.b_force_ckpt <- true;
    incr seq;
    parked :=
      {
        p_item = f.f_item;
        p_states = states;
        p_started = f.f_started;
        p_preempted = f.f_preempted + 1;
        p_from = s.s_id;
        p_at = !now;
        p_seq = !seq;
        p_marks = f.f_marks;
      }
      :: !parked;
    incr preemptions
  in
  (* Victims for a waiting latency-bound head: strictly weaker flights
     on a same-digest shard, weakest class first, most recent start
     first (least progress lost). *)
  let preemption_plan (it : Admission.item) =
    let width = Request.width it.Admission.request in
    let it_rank = Admission.item_rank it in
    let rec scan i =
      if i >= n_shards then None
      else
        match shards.(i).s_b with
        | Some b when (not b.b_draining) && b.b_digest = it.Admission.digest ->
          let free = Pc_vm.Lanes.free_count b.b_lanes in
          if free >= width then Some (shards.(i), b, [])
          else begin
            let candidates =
              List.filter (fun f -> Admission.item_rank f.f_item > it_rank) b.b_flight
              |> List.sort (fun a bb ->
                     match
                       compare (Admission.item_rank bb.f_item) (Admission.item_rank a.f_item)
                     with
                     | 0 -> (
                       match compare bb.f_started a.f_started with
                       | 0 ->
                         compare bb.f_item.Admission.request.Request.id
                           a.f_item.Admission.request.Request.id
                       | c -> c)
                     | c -> c)
            in
            let rec take freed acc = function
              | _ when freed >= width -> Some (List.rev acc)
              | [] -> None
              | f :: tl -> take (freed + Array.length f.f_lanes) (f :: acc) tl
            in
            match take free [] candidates with
            | Some victims -> Some (shards.(i), b, victims)
            | None -> scan (i + 1)
          end
        | _ -> scan (i + 1)
    in
    scan 0
  in
  let preempt_pass () =
    if cfg.preempt && fair then begin
      let continue = ref true in
      while !continue do
        match Admission.peek_strongest_waiting adm with
        | Some it when Admission.item_rank it = Tenant.rank Tenant.Latency_bound -> (
          match preemption_plan it with
          | Some (s, b, victims) ->
            List.iter (fun f -> park s b f) victims;
            let popped =
              Admission.pop adm ~fits:(fun c ->
                  c.Admission.request.Request.id = it.Admission.request.Request.id)
            in
            (match popped with
            | Some it' ->
              start_flight s b it' ~started:!now ~preempted:0;
              b.b_admitted_since <- it' :: b.b_admitted_since;
              b.b_force_ckpt <- true
            | None -> assert false)
          | None -> continue := false)
        | _ -> continue := false
      done
    end
  in

  (* ---------- resume parked work ---------- *)
  let resume_pass () =
    let order =
      List.sort
        (fun a b ->
          match compare (Admission.item_rank a.p_item) (Admission.item_rank b.p_item) with
          | 0 -> (
            match compare a.p_at b.p_at with 0 -> compare a.p_seq b.p_seq | c -> c)
          | c -> c)
        !parked
    in
    List.iter
      (fun p ->
        match room ~digest:p.p_item.Admission.digest ~width:(Array.length p.p_states) with
        | None -> ()
        | Some (s, b) ->
          let lanes, bytes = import_states s b p.p_states ~src:p.p_from in
          let seconds =
            if p.p_from = s.s_id then 0. else Collectives.p2p_time cfg.mesh ~bytes
          in
          Engine.charge_transfer s.s_engine ~name:"preempt-resume" ~bytes ~seconds;
          (* The park→resume interval becomes a "preempted" mark on the
             request's service span; a cross-shard resume adds a
             "migrate" instant. *)
          let marks =
            let preempted = ("preempted", p.p_at, !now) :: p.p_marks in
            if p.p_from = s.s_id then preempted else ("migrate", !now, !now) :: preempted
          in
          add_flight b
            {
              f_item = p.p_item;
              f_lanes = lanes;
              f_started = p.p_started;
              f_preempted = p.p_preempted;
              f_marks = marks;
            };
          b.b_force_ckpt <- true;
          parked := List.filter (fun q -> q != p) !parked;
          incr resumes)
      order
  in

  (* ---------- pool control ---------- *)
  let pool_control () =
    let signals =
      {
        Pool.backlog = Admission.length adm + List.length !parked;
        active = active_count ();
        draining = draining_count ();
        lanes_per_shard = z;
        live_lanes = live_lanes ();
      }
    in
    (match Pool.decide cfg.pool ~rounds_since_action:!since_scale signals with
    | Pool.Grow ->
      if !target < max_target then begin
        incr target;
        incr grows;
        ops_span "pool-grow";
        since_scale := 0
      end
    | Pool.Shrink ->
      if !target > Stdlib.max cfg.pool.Pool.min_shards 1 then begin
        decr target;
        (* Drain the active shard with the least live work; ties to the
           highest id so shard 0 is the last to go. *)
        let victim = ref None in
        Array.iter
          (fun s ->
            match s.s_b with
            | Some b when not b.b_draining ->
              let live = Pc_vm.Lanes.live_count b.b_lanes in
              (match !victim with
              | Some (_, best) when best < live -> ()
              | _ -> victim := Some (s, live))
            | _ -> ())
          shards;
        (match !victim with
        | Some (s, _) ->
          (match s.s_b with
          | Some b ->
            b.b_draining <- true;
            b.b_force_ckpt <- true
          | None -> ());
          incr shrinks;
          ops_span "pool-shrink";
          since_scale := 0
        | None -> ())
      end
    | Pool.Hold -> ());
    incr since_scale
  in

  (* ---------- drain migration and unbind ---------- *)
  let drain_pass () =
    Array.iter
      (fun s ->
        match s.s_b with
        | Some b when b.b_draining ->
          if b.b_flight = [] then unbind s b
          else
            List.iter
              (fun f ->
                match room ~digest:b.b_digest ~width:(Array.length f.f_lanes) with
                | None -> ()
                | Some (t, tb) ->
                  let states = export_flight b f in
                  let lanes, bytes = import_states t tb states ~src:s.s_id in
                  Array.iter
                    (fun st ->
                      incr migrations;
                      migration_bytes :=
                        !migration_bytes +. Pc_vm.Lanes.lane_state_bytes st)
                    states;
                  Engine.charge_transfer t.s_engine ~name:"drain-migrate" ~bytes
                    ~seconds:(Collectives.p2p_time cfg.mesh ~bytes);
                  add_flight tb
                    { f with f_lanes = lanes; f_marks = ("migrate", !now, !now) :: f.f_marks };
                  b.b_force_ckpt <- true;
                  tb.b_force_ckpt <- true)
              b.b_flight;
          (match s.s_b with
          | Some b when b.b_draining && b.b_flight = [] -> unbind s b
          | _ -> ())
        | _ -> ())
      shards
  in

  (* ---------- rebind and demand binding ---------- *)
  let bind_pass () =
    (* Built on first use, at most once: neither loop below changes the
       queue or the parked set, so one table serves the whole pass — and
       a round with no empty binding and no idle capacity builds none. *)
    let tbl = lazy (need_table ()) in
    (* Rebind: an empty binding turns toward starving work when its own
       digest has no backlog, or strictly less than the most starving
       digest's (strictness prevents two equal backlogs from trading the
       shard back and forth). *)
    Array.iter
      (fun s ->
        match s.s_b with
        | Some b when (not b.b_draining) && b.b_flight = [] -> (
          let tbl = Lazy.force tbl in
          let own = need_count tbl b.b_digest in
          match starving tbl with
          | (digest, n, _, program) :: _
            when digest <> b.b_digest && (own = 0 || n > own) ->
            unbind s b;
            ignore (bind s digest program);
            incr rebinds
          | _ -> ())
        | _ -> ())
      shards;
    (* Demand binding: idle shards activate up to the controller's
       target, toward the most starving digest. *)
    let continue = ref true in
    while !continue do
      if active_count () >= !target then continue := false
      else begin
        match starving (Lazy.force tbl) with
        | (digest, _, _, program) :: _ -> (
          let idle =
            Array.fold_left
              (fun acc s ->
                match (acc, s.s_b) with None, None -> Some s | _ -> acc)
              None shards
          in
          match idle with
          | Some s ->
            ignore (bind s digest program);
            incr binds
          | None -> continue := false)
        | [] -> continue := false
      end
    done
  in

  (* ---------- checkpoint cadence ---------- *)
  let checkpoint_pass () =
    Array.iter
      (fun s ->
        match s.s_b with
        | Some b ->
          if
            b.b_force_ckpt
            || (cfg.checkpoint_interval > 0 && b.b_since >= cfg.checkpoint_interval)
          then do_checkpoint s b
        | None -> ())
      shards
  in

  (* ---------- the round loop ---------- *)
  let finished = ref false in
  while not !finished do
    incr round;
    if !round > cfg.max_rounds then
      failwith
        (Printf.sprintf
           "Tenant_server.run: max_rounds exceeded (no progress?): queued %d, \
            parked %d, %s"
           (Admission.length adm) (List.length !parked)
           (String.concat "; "
              (Array.to_list
                 (Array.map
                    (fun s ->
                      match s.s_b with
                      | None -> Printf.sprintf "shard %d idle" s.s_id
                      | Some b ->
                        Printf.sprintf
                          "shard %d digest %Lx flights %d live %d%s" s.s_id
                          b.b_digest (List.length b.b_flight)
                          (Pc_vm.Lanes.live_count b.b_lanes)
                          (if b.b_draining then " draining" else ""))
                    shards))));
    let e0 = Array.map (fun s -> Engine.elapsed s.s_engine) shards in
    ingest ();
    Array.iter
      (fun s -> match s.s_b with Some b -> retire_shard s b | None -> ())
      shards;
    pool_control ();
    drain_pass ();
    bind_pass ();
    refill ();
    preempt_pass ();
    resume_pass ();
    Array.iter
      (fun s -> match s.s_b with Some b -> b.b_since <- b.b_since + 1 | None -> ())
      shards;
    checkpoint_pass ();
    (* One superstep per live shard; shards run in parallel in simulated
       time, so the clock advances by the slowest shard's round. *)
    Array.iter
      (fun s ->
        match s.s_b with
        | Some b when Pc_vm.Lanes.live_count b.b_lanes > 0 ->
          if Pc_vm.Lanes.step b.b_lanes then b.b_stepped <- b.b_stepped + 1
        | _ -> ())
      shards;
    (try Fault.tick injector
     with Fault.Injected ev ->
       let s = shards.(ev.Fault.device mod n_shards) in
       (match s.s_b with Some b -> restore_shard s b | None -> ()));
    let delta =
      Array.fold_left
        (fun acc s ->
          let d = Engine.elapsed s.s_engine -. e0.(s.s_id) in
          Float.max acc d)
        0. shards
    in
    now := !now +. delta;
    (* Poll the burn-rate monitor once per round: alert *edges* become
       sink events, and with [slo_drive] a firing alert pins the
       admission ladder at Shed_best_effort until it resolves — the
       ladder's own transition event then records cause "slo-floor". *)
    (match cfg.slo with
    | Some slo ->
      let alerts = Obs_slo.poll slo ~now:!now in
      List.iter (fun a -> emit (Obs_slo.alert_to_event a)) alerts;
      if cfg.slo_drive && fair && alerts <> [] then
        Admission.set_floor adm
          (if Obs_slo.any_firing slo then Admission.Shed_best_effort
           else Admission.Normal)
    | None -> ());
    peak_active := Stdlib.max !peak_active (active_count ());
    let idle =
      (not (flights_exist ())) && Admission.length adm = 0 && !parked = []
    in
    (match (idle, next_arrival ()) with
    | true, Some it ->
      let a = arrival it in
      if a > !now then now := a
    | true, None ->
      (* Idle with nothing due. A closed loop may still owe follow-ups
         for completions a planned kill kept in the rollback window:
         checkpoint their shards, which makes them final, and carry on
         if that brought new arrivals. *)
      if Option.is_some on_complete then
        Array.iter
          (fun s ->
            match s.s_b with
            | Some b when b.b_done_since <> [] -> do_checkpoint s b
            | _ -> ())
          shards;
      if !followups = [] then finished := true
    | false, _ -> ())
  done;

  (* ---------- final accounting ---------- *)
  Array.iter (fun s -> match s.s_b with Some b -> flush_done b | None -> ()) shards;
  let completions = List.rev !completions in
  let counters =
    Array.fold_left
      (fun acc s -> Engine.Counters.add acc (Engine.snapshot s.s_engine).Engine.at)
      Engine.Counters.zero shards
  in
  (match cfg.metrics with
  | Some m ->
    let hist name = Obs_metrics.histogram m name in
    let by_class name slo = hist (name ^ Tenant.slo_name slo) in
    List.iter
      (fun c ->
        let slo = Admission.item_slo c.c_item in
        let arrival = c.c_item.Admission.request.Request.arrival in
        Obs_metrics.observe (by_class "latency_total_" slo) (c.c_finished -. arrival);
        Obs_metrics.observe (by_class "latency_queue_" slo) (c.c_started -. arrival);
        Obs_metrics.observe (by_class "latency_service_" slo)
          (c.c_finished -. c.c_started))
      completions;
    let cnt name v = Obs_metrics.incr ~by:v (Obs_metrics.counter m name) in
    cnt "tenant_completed" (List.length completions);
    cnt "tenant_throttled" (List.length !throttled);
    cnt "tenant_rejected" (List.length !rejected);
    cnt "tenant_shed" (List.length !shed);
    cnt "tenant_preemptions" !preemptions;
    cnt "tenant_resumes" !resumes;
    cnt "pool_migrations" !migrations;
    cnt "pool_binds" !binds;
    cnt "pool_rebinds" !rebinds;
    cnt "pool_grows" !grows;
    cnt "pool_shrinks" !shrinks;
    cnt "recovery_checkpoints" !checkpoints;
    cnt "recovery_restores" !restores
  | None -> ());
  {
    completions;
    throttled = List.rev !throttled;
    rejected = List.rev !rejected;
    shed = List.rev !shed;
    rounds = !round;
    makespan = !now;
    preemptions = !preemptions;
    resumes = !resumes;
    migrations = !migrations;
    migration_bytes = !migration_bytes;
    binds = !binds;
    rebinds = !rebinds;
    grows = !grows;
    shrinks = !shrinks;
    checkpoints = !checkpoints;
    restores = !restores;
    wasted_rounds = !wasted;
    peak_active = !peak_active;
    counters;
  }
