type refill = Continuous | Synchronous

type config = {
  lanes_per_shard : int;
  mesh : Mesh.t;
  policy : Sched_policy.t;
  admission : Admission.config;
  pool : Pool.config;
  preempt : bool;
  refill : refill;
  checkpoint_interval : int;
  faults : Fault.event list;
  keep_outputs : bool;
  sink : Obs_sink.t option;
}

let default_config ~mesh =
  {
    lanes_per_shard = 8;
    mesh;
    policy = Sched_policy.Earliest;
    admission = Admission.default;
    pool = Pool.default;
    preempt = true;
    refill = Continuous;
    checkpoint_interval = 32;
    faults = [];
    keep_outputs = true;
    sink = None;
  }

(* The safety valve: a run still going after this many rounds is stuck. *)
let max_rounds = 10_000_000

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

(* A lane pool a shard built for one digest, kept with the image it had
   when empty: rebinding to the digest restores that image instead of
   building the pool again. *)
type retained = { r_digest : int64; r_lanes : Pc_vm.Lanes.t; r_empty : Pc_vm.Lanes.image }

(* How many pools a shard keeps, most recently bound first. A pool built
   for a digest that missed a full set recently is kept in place of the
   least recently bound; any other pool built past the bound serves its
   binding and is dropped. *)
let max_retained = 8

type shard = {
  s_id : int;
  s_engine : Engine.t;
  mutable s_b : binding option;
  mutable s_pools : retained list;
  s_door : Doorkeeper.t;  (* digests that missed the full set recently *)
  mutable s_built : int;  (* pools built, kept or not *)
}

(* A request's inputs agree with its program: one tensor per program
   input, each row shaped as the program declares. *)
let inputs_fit (r : Request.t) =
  let p = r.Request.program.Autobatch.stack in
  List.compare_lengths p.Stack_ir.inputs r.Request.inputs = 0
  && List.for_all2
       (fun v x ->
         match Ir_util.Smap.find_opt v p.Stack_ir.shapes with
         | Some elem -> Shape.equal elem (Vm_util.elem_shape_of_batched x)
         | None -> false)
       p.Stack_ir.inputs r.Request.inputs

(* ---------- server state ---------- *)

type census = {
  arriving : int; queued : int; parked : int; in_flight : int; unflushed : int;
  completed : int; throttled : int; rejected : int; shed : int;
}

module Arrivals = Map.Make (Float)

(* One digest's share of the backlog (queued plus parked items): its
   need (the items' summed scores), its items' arrivals as a multiset,
   and a program carrying the digest, to build a pool from. *)
type tally = {
  mutable need : int;
  mutable arrivals : int Arrivals.t;
  program : Autobatch.compiled;
}

(* Everything a round reads or writes. The phases below are functions of
   it, run in [step_round]'s order. *)
type t = {
  cfg : config;
  on_complete : (completion -> Admission.item option) option;
  src : source;
  shards : shard array;
  kills : Fault.event list;
  injector : Fault.injector;
  adm : Admission.t;
  max_target : int;
  mutable now : float;
  mutable round : int;
  mutable over : bool;
  mutable parked : parked list;
  backlog : (int64, tally) Hashtbl.t;  (* by digest; queued + parked *)
  mutable seq : int;  (* park order: the resume tie-break *)
  mutable followups : Admission.item list;  (* arrival order *)
  mutable span_seq : int;
  mutable target : int;  (* active shards the pool controller asks for *)
  mutable since_scale : int;
  (* The tallies [finish] turns into {!stats}; lists newest first. *)
  mutable completions : completion list;
  mutable throttled : Admission.item list;
  mutable rejected : (Admission.item * Admission.reason) list;
  mutable shed : Admission.item list;
  mutable preemptions : int; mutable resumes : int;
  mutable migrations : int; mutable migration_bytes : float;
  mutable binds : int; mutable rebinds : int; mutable grows : int; mutable shrinks : int;
  mutable checkpoints : int; mutable restores : int; mutable wasted : int;
  mutable peak_active : int;
}

(* Span ids are a server-global sequence, assigned at emission time
   only — a rolled-back round never consumes ids, so replays stay
   deterministic. *)
let next_span t =
  let s = t.span_seq in
  t.span_seq <- s + 1;
  s

(* Server-lifecycle instants (pool scaling, checkpoint, restore) live
   on the shared ops trace, outside any request's tree. *)
let ops_span t name =
  match t.cfg.sink with
  | None -> ()
  | Some sink ->
    let span = next_span t in
    sink
      (Obs_sink.Span
         { trace = Obs_span.ops_trace; span; parent = Obs_span.no_parent;
           track = Obs_span.ops_track; name; t0 = t.now; t1 = t.now })

(* One span tree per completed request, emitted exactly once — at the
   moment the completion leaves the rollback window (flush), not at
   retire, which a device kill can replay. *)
let emit_request_spans t (c : completion) =
  match t.cfg.sink with
  | None -> ()
  | Some sink ->
    let r = c.c_item.Admission.request in
    let trace = r.Request.id in
    let track = c.c_item.Admission.tenant.Tenant.id in
    let sp ~parent ~name ~t0 ~t1 =
      let span = next_span t in
      sink (Obs_sink.Span { trace; span; parent; track; name; t0; t1 });
      span
    in
    let root =
      sp ~parent:Obs_span.no_parent ~name:"request"
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

let iter_bindings t f =
  Array.iter (fun s -> match s.s_b with Some b -> f s b | None -> ()) t.shards

let sum_bindings t f =
  Array.fold_left (fun acc s -> match s.s_b with Some b -> acc + f b | None -> acc) 0 t.shards

let active_count t = sum_bindings t (fun b -> if b.b_draining then 0 else 1)
let draining_count t = sum_bindings t (fun b -> if b.b_draining then 1 else 0)

let live_lanes t =
  sum_bindings t (fun b -> if b.b_draining then 0 else Pc_vm.Lanes.live_count b.b_lanes)

(* ---------- the backlog: queued and parked work, by digest ---------- *)

(* Backlog pressure per digest. In [Fair] mode an item counts its SLO
   class's dispatch weight — the admission policy's priorities steer
   shard placement too, so a latency-heavy digest outbids a best-effort
   flood for the next free shard. The [Fifo] baseline stays SLO-blind
   everywhere: every item counts 1. *)
let fair t = t.cfg.admission.Admission.mode = Admission.Fair

let item_score t (it : Admission.item) = if fair t then Admission.weight it else 1

let arrival (it : Admission.item) = it.Admission.request.Request.arrival

(* The tallies move with the items: each is added where an item enters
   the queue or the parked set and removed where it leaves, so the
   binding pass reads them without walking the backlog. *)
let backlog_add t (it : Admission.item) =
  let w = item_score t it and a = arrival it in
  match Hashtbl.find_opt t.backlog it.Admission.digest with
  | Some tl ->
    tl.need <- tl.need + w;
    tl.arrivals <-
      Arrivals.update a (function Some n -> Some (n + 1) | None -> Some 1) tl.arrivals
  | None ->
    Hashtbl.replace t.backlog it.Admission.digest
      { need = w; arrivals = Arrivals.singleton a 1;
        program = it.Admission.request.Request.program }

let earliest tl = fst (Arrivals.min_binding tl.arrivals)

let backlog_remove t (it : Admission.item) =
  let tl = Hashtbl.find t.backlog it.Admission.digest in
  tl.need <- tl.need - item_score t it;
  tl.arrivals <-
    Arrivals.update (arrival it)
      (function Some n when n > 1 -> Some (n - 1) | _ -> None)
      tl.arrivals;
  if Arrivals.is_empty tl.arrivals then Hashtbl.remove t.backlog it.Admission.digest

(* The admission queue's exits and re-entries, kept in the tallies. *)
let dequeue t ~fits =
  let popped = Admission.pop t.adm ~fits in
  Option.iter (backlog_remove t) popped;
  popped

let requeue_front t it =
  Admission.push_front t.adm it;
  backlog_add t it

(* ---------- checkpoints and recovery ---------- *)

let ckpt_bytes (img : Pc_vm.Lanes.image) =
  Array.fold_left
    (fun total -> function
      | Some st -> total +. Pc_vm.Lanes.lane_state_bytes st
      | None -> total)
    64. img.Pc_vm.Lanes.li_lanes

let capture_ckpt s b =
  {
    k_image = Pc_vm.Lanes.capture b.b_lanes;
    k_engine = Engine.snapshot s.s_engine;
    k_flight = List.map (fun f -> { f with f_lanes = Array.copy f.f_lanes }) b.b_flight;
    k_draining = b.b_draining;
  }

(* A closed-loop follow-up from [on_complete] joins [followups] in
   arrival order, its arrival clamped to the clock; ingest merges them
   with the source. *)
let follow_up t on_complete (c : completion) =
  match on_complete c with
  | None -> ()
  | Some (it : Admission.item) ->
    let r = it.Admission.request in
    let it =
      if arrival it >= t.now then it
      else { it with Admission.request = { r with Request.arrival = t.now } }
    in
    let rec insert = function
      | x :: rest when arrival x <= arrival it -> x :: insert rest
      | l -> it :: l
    in
    t.followups <- insert t.followups

(* Completions leave the rollback window only here: once flushed they
   are final, the tenants' completion counters move with them, and
   [on_complete] sees each exactly once, oldest first. *)
let flush_done t b =
  List.iter
    (fun c ->
      c.c_item.Admission.tenant.Tenant.completed <-
        c.c_item.Admission.tenant.Tenant.completed + 1;
      emit_request_spans t c)
    b.b_done_since;
  (match t.on_complete with
  | Some f -> List.iter (follow_up t f) (List.rev b.b_done_since)
  | None -> ());
  t.completions <- b.b_done_since @ t.completions;
  b.b_done_since <- []

let do_checkpoint t s b =
  flush_done t b;
  b.b_ckpt <- capture_ckpt s b;
  b.b_since <- 0;
  b.b_stepped <- 0;
  b.b_admitted_since <- [];
  b.b_force_ckpt <- false;
  t.checkpoints <- t.checkpoints + 1;
  ops_span t "checkpoint";
  (* Only a sink reads the size: without one, skip the lane walk. *)
  match t.cfg.sink with
  | Some sink ->
    sink
      (Obs_sink.Checkpoint
         { step = t.round; bytes = int_of_float (ckpt_bytes b.b_ckpt.k_image) })
  | None -> ()

let restore_shard t s b =
  (* Work admitted after the checkpoint goes back to the queue head in
     deterministic order; its unflushed completions are discarded (the
     re-execution recreates them bitwise). *)
  let requeue = Admission.requeue_order b.b_admitted_since in
  List.iter (requeue_front t) (List.rev requeue);
  b.b_admitted_since <- [];
  b.b_done_since <- [];
  Pc_vm.Lanes.restore b.b_lanes b.b_ckpt.k_image;
  let before = Engine.elapsed s.s_engine in
  Engine.restore s.s_engine b.b_ckpt.k_engine;
  b.b_flight <-
    List.map (fun f -> { f with f_lanes = Array.copy f.f_lanes }) b.b_ckpt.k_flight;
  b.b_draining <- b.b_ckpt.k_draining;
  (* The checkpoint predates every superstep stepped since, including
     one stepped in the round it was taken. *)
  t.wasted <- t.wasted + b.b_stepped;
  b.b_since <- 0;
  b.b_stepped <- 0;
  b.b_force_ckpt <- false;
  t.restores <- t.restores + 1;
  ops_span t "restore";
  match t.cfg.sink with
  | Some sink ->
    sink
      (Obs_sink.Restore { step = t.round; rolled_back = before -. Engine.elapsed s.s_engine })
  | None -> ()

(* ---------- binding ---------- *)

(* Shard [s]'s empty pool for [digest]: a retained one restored to its
   empty image and moved to the front, or a new one built from [program]
   (any program carrying the digest), kept in front below
   [max_retained] or when the doorkeeper admits the digest, displacing
   the least recently bound. *)
let empty_pool t s digest (program : Autobatch.compiled) =
  match List.find_opt (fun r -> r.r_digest = digest) s.s_pools with
  | Some r ->
    Pc_vm.Lanes.restore r.r_lanes r.r_empty;
    s.s_pools <- r :: List.filter (fun q -> q != r) s.s_pools;
    r
  | None ->
    let vm_config =
      {
        Pc_vm.default_config with
        Pc_vm.sched = t.cfg.policy;
        engine = Some s.s_engine;
        sink = Option.map (Obs_sink.tag_shard s.s_id) t.cfg.sink;
      }
    in
    let keep =
      List.compare_length_with s.s_pools max_retained < 0 || Doorkeeper.admit s.s_door digest
    in
    (* A kept pool binds from the program's own template, which every
       later bind of the digest reuses. A pool that serves one binding
       builds a template of its own: forcing the program's would keep a
       one-off's template alive as long as anything holds the program
       (its completions do). *)
    let lanes =
      if keep then
        Pc_vm.Lanes.bind ~config:vm_config program.Autobatch.registry
          (Autobatch.template program) ~z:t.cfg.lanes_per_shard
      else
        Pc_vm.Lanes.create ~config:vm_config program.Autobatch.registry
          program.Autobatch.stack ~z:t.cfg.lanes_per_shard
    in
    let r = { r_digest = digest; r_lanes = lanes; r_empty = Pc_vm.Lanes.capture lanes } in
    s.s_built <- s.s_built + 1;
    if keep then s.s_pools <- r :: List.filteri (fun i _ -> i < max_retained - 1) s.s_pools;
    r

let bind t s digest program =
  let r = empty_pool t s digest program in
  let ckpt =
    { k_image = r.r_empty; k_engine = Engine.snapshot s.s_engine; k_flight = [];
      k_draining = false }
  in
  s.s_b <-
    Some
      { b_digest = digest; b_lanes = r.r_lanes; b_flight = []; b_draining = false;
        b_ckpt = ckpt; b_since = 0; b_stepped = 0; b_admitted_since = [];
        b_done_since = []; b_force_ckpt = false }

let unbind t s b =
  flush_done t b;
  s.s_b <- None

(* ---------- arrivals ---------- *)

(* The next arrival (the source's head, or an earlier follow-up) and
   its removal. *)
let next_arrival t =
  match (t.followups, src_peek t.src) with
  | f :: _, Some it when arrival f < arrival it -> Some f
  | f :: _, None -> Some f
  | _, head -> head

let take t it =
  match t.followups with
  | f :: rest when f == it -> t.followups <- rest
  | _ -> ignore (src_pop t.src)

let cls (it : Admission.item) = Tenant.slo_name (Admission.item_slo it)

let emit_rejected t (it : Admission.item) ~reason =
  match t.cfg.sink with
  | Some sink ->
    sink
      (Obs_sink.Request_rejected
         { id = it.Admission.request.Request.id; cls = cls it; reason; at = t.now })
  | None -> ()

let reject t it reason =
  t.rejected <- (it, reason) :: t.rejected;
  emit_rejected t it ~reason:(Admission.reason_name reason)

let enqueued t (it : Admission.item) =
  match t.cfg.sink with
  | Some sink ->
    sink (Obs_sink.Request_enqueued { id = it.Admission.request.Request.id; at = t.now })
  | None -> ()

let ingest t =
  let continue = ref true in
  while !continue do
    match next_arrival t with
    | Some it when arrival it <= t.now ->
      take t it;
      let r = it.Admission.request in
      (* Malformed requests are refused here, before [Lanes.load] could
         raise mid-round and abort the whole run; one wider than a whole
         shard is unservable by construction. *)
      if not (inputs_fit r) then reject t it Admission.Invalid_input
      else if Request.width r > t.cfg.lanes_per_shard then reject t it Admission.Too_wide
      else if
        not
          (Tenant.admit it.Admission.tenant ~now:r.Request.arrival
             ~cost:r.Request.cost_hint)
      then begin
        t.throttled <- it :: t.throttled;
        emit_rejected t it ~reason:"throttled"
      end
      else begin
        match Admission.offer t.adm it with
        | `Admitted ->
          backlog_add t it;
          enqueued t it
        | `Shed victim ->
          t.shed <- victim :: t.shed;
          (match t.cfg.sink with
          | Some sink ->
            sink
              (Obs_sink.Request_shed
                 { id = victim.Admission.request.Request.id; cls = cls victim;
                   at = t.now })
          | None -> ());
          if victim.Admission.request.Request.id <> r.Request.id then begin
            (* The victim left the queue to make room for the offer. *)
            backlog_remove t victim;
            backlog_add t it;
            enqueued t it
          end
        | `Rejected reason -> reject t it reason
      end
    | _ -> continue := false
  done

(* ---------- retire ---------- *)

(* A kill fires in its round after the retire phase, so one planned for
   this very round can still roll back what retires now. *)
let kill_pending t s =
  List.exists
    (fun e ->
      e.Fault.superstep >= t.round && e.Fault.device mod Array.length t.shards = s.s_id)
    t.kills

(* Whether every lane of [lanes.(i..)] has halted, and whether some
   flight has: plain recursions, so the per-round scan allocates nothing. *)
let rec lanes_finished pool lanes i =
  i = Array.length lanes
  || (Pc_vm.Lanes.finished pool ~lane:lanes.(i) && lanes_finished pool lanes (i + 1))

let rec some_finished pool = function
  | [] -> false
  | f :: rest -> lanes_finished pool f.f_lanes 0 || some_finished pool rest

let retire_finished t s b =
  let finished, rest =
    List.partition (fun f -> lanes_finished b.b_lanes f.f_lanes 0) b.b_flight
  in
  b.b_flight <- rest;
  List.iter
    (fun f ->
      let per_lane =
        Array.map
          (fun lane ->
            let outs = Pc_vm.Lanes.retire b.b_lanes ~lane in
            Engine.charge_retire s.s_engine ~bytes:(Vm_util.tensors_bytes outs);
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
          c_outputs = (if t.cfg.keep_outputs then Some outputs else None);
          c_started = f.f_started;
          c_finished = t.now;
          c_shard = s.s_id;
          c_preempted = f.f_preempted;
          c_marks = List.rev f.f_marks;
        }
      in
      b.b_done_since <- c :: b.b_done_since;
      (* Built only for a listener: without a sink a completion costs no
         event record. *)
      match t.cfg.sink with
      | Some sink ->
        sink
          (Obs_sink.Request_completed
             { id = r.Request.id; cls = cls f.f_item; queued = r.Request.arrival;
               started = f.f_started; finished = t.now })
      | None -> ())
    finished;
  (* A closed loop must not wait for the next checkpoint to see its
     completions: once no planned kill can still reach this shard,
     nothing can roll them back, so they leave the window now. *)
  if Option.is_some t.on_complete && not (kill_pending t s) then
    flush_done t b

(* Most rounds retire nothing: scan the flights first, and partition
   them only when one has finished. *)
let retire_shard t s b =
  if some_finished b.b_lanes b.b_flight then retire_finished t s b

(* Digests with pending work and no free lane anywhere serving them,
   most loaded first (ties: earliest arrival, then digest). *)
let starving t =
  let served_free digest =
    Array.fold_left
      (fun acc s ->
        match s.s_b with
        | Some b when (not b.b_draining) && b.b_digest = digest ->
          acc + Pc_vm.Lanes.free_count b.b_lanes
        | _ -> acc)
      0 t.shards
  in
  Hashtbl.fold
    (fun digest tl acc ->
      if served_free digest = 0 then
        (digest, tl.need, earliest tl, tl.program) :: acc
      else acc)
    t.backlog []
  |> List.sort (fun (d1, n1, a1, _) (d2, n2, a2, _) ->
         match compare n2 n1 with
         | 0 -> ( match compare a1 a2 with 0 -> Int64.compare d1 d2 | c -> c)
         | c -> c)

(* ---------- admission to lanes ---------- *)

(* [width] free lanes of a binding, by the one shared lane-selection
   path; callers have checked that enough are free. *)
let choose_free t b ~width =
  let free =
    Array.init t.cfg.lanes_per_shard (fun lane -> not (Pc_vm.Lanes.occupied b.b_lanes ~lane))
  in
  match Sched_plan.choose_lanes ~free ~width with
  | Some lanes -> lanes
  | None -> invalid_arg "Tenant_server: lanes chosen on a full shard"

let add_flight b f = b.b_flight <- b.b_flight @ [ f ]

(* Load a request into free lanes of [s]'s binding [b], as admitted
   since [b]'s last checkpoint. *)
let start_flight t s b (it : Admission.item) =
  let r = it.Admission.request in
  let lanes = choose_free t b ~width:(Request.width r) in
  Array.iteri
    (fun i lane ->
      let inputs = Request.lane_inputs r ~row:i in
      Pc_vm.Lanes.load b.b_lanes ~lane ~member:(r.Request.member + i) ~inputs;
      Engine.charge_refill s.s_engine ~bytes:(Vm_util.tensors_bytes inputs))
    lanes;
  add_flight b
    { f_item = it; f_lanes = lanes; f_started = t.now; f_preempted = 0; f_marks = [] };
  b.b_admitted_since <- it :: b.b_admitted_since

let refill_shard t s b =
  (* [Synchronous]: the fixed-batch regime refills a shard only once its
     last flight has retired. *)
  let continue = ref (t.cfg.refill = Continuous || b.b_flight = []) in
  while !continue do
    let free = Pc_vm.Lanes.free_count b.b_lanes in
    if free = 0 then continue := false
    else
      match
        dequeue t ~fits:(fun it ->
            it.Admission.digest = b.b_digest
            && Request.width it.Admission.request <= free)
      with
      | Some it -> start_flight t s b it
      | None -> continue := false
  done

let refill t = iter_bindings t (fun s b -> if not b.b_draining then refill_shard t s b)

(* ---------- moving lanes: park, resume, drain ---------- *)

(* Export a flight's lanes and free them. *)
let export_flight b f =
  let states = Array.map (fun lane -> Pc_vm.Lanes.export_lane b.b_lanes ~lane) f.f_lanes in
  Array.iter (fun lane -> Pc_vm.Lanes.evict b.b_lanes ~lane) f.f_lanes;
  b.b_flight <- List.filter (fun g -> g != f) b.b_flight;
  states

(* Import lane states exported from shard [src] into free lanes of
   shard [s]'s binding; returns the lanes and the bytes moved. A lane
   that lands on another shard is a migration: counted and reported
   here, whether a drain or a resume moved it. *)
let import_states t s b states ~src =
  let lanes = choose_free t b ~width:(Array.length states) in
  let bytes = ref 0. in
  Array.iteri
    (fun j lane ->
      let st = states.(j) in
      Pc_vm.Lanes.import_lane b.b_lanes ~lane st;
      let sb = Pc_vm.Lanes.lane_state_bytes st in
      bytes := !bytes +. sb;
      if src <> s.s_id then begin
        t.migrations <- t.migrations + 1;
        t.migration_bytes <- t.migration_bytes +. sb;
        match t.cfg.sink with
        | Some sink ->
          sink
            (Obs_sink.Migration
               { src_shard = src; dst_shard = s.s_id; member = st.Pc_vm.Lanes.ls_member;
                 bytes = sb; step = t.round })
        | None -> ()
      end)
    lanes;
  (lanes, !bytes)

(* Land exported lane states on shard [s]'s binding [b]: import them,
   charge the transfer as [name] (point-to-point unless they never left
   shard [src]), add [f] on the landing lanes, and force a checkpoint so
   the new home is authoritative. *)
let land_flight t (s, b) ~name ~src states f =
  let lanes, bytes = import_states t s b states ~src in
  let seconds = if src = s.s_id then 0. else Collectives.p2p_time t.cfg.mesh ~bytes in
  Engine.charge_transfer s.s_engine ~name ~bytes ~seconds;
  add_flight b { f with f_lanes = lanes };
  b.b_force_ckpt <- true

(* The first serving binding of [digest] with [width] free lanes. *)
let room t ~digest ~width =
  let rec scan i =
    if i >= Array.length t.shards then None
    else
      match t.shards.(i).s_b with
      | Some b
        when (not b.b_draining)
             && b.b_digest = digest
             && Pc_vm.Lanes.free_count b.b_lanes >= width ->
        Some (t.shards.(i), b)
      | _ -> scan (i + 1)
  in
  scan 0

(* ---------- preemption ---------- *)

let park t s b f =
  let states = export_flight b f in
  let bytes = Array.fold_left (fun acc st -> acc +. Pc_vm.Lanes.lane_state_bytes st) 0. states in
  Engine.charge_transfer s.s_engine ~name:"preempt-park" ~bytes ~seconds:0.;
  b.b_force_ckpt <- true;
  t.seq <- t.seq + 1;
  t.parked <-
    { p_item = f.f_item; p_states = states; p_started = f.f_started;
      p_preempted = f.f_preempted + 1; p_from = s.s_id; p_at = t.now; p_seq = t.seq;
      p_marks = f.f_marks }
    :: t.parked;
  backlog_add t f.f_item;
  t.preemptions <- t.preemptions + 1

(* Where a waiting latency-bound head starts: the first serving shard
   that has room for it, or, before that one, strictly weaker flights
   to park — weakest class first, most recent start first (least
   progress lost). *)
let preemption_plan t (it : Admission.item) =
  let digest = it.Admission.digest in
  let width = Request.width it.Admission.request in
  let it_rank = Admission.item_rank it in
  let victims b =
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
    take (Pc_vm.Lanes.free_count b.b_lanes) [] candidates
  in
  let fits = room t ~digest ~width in
  let stop = match fits with Some (s, _) -> s.s_id | None -> Array.length t.shards in
  let rec scan i =
    if i >= stop then Option.map (fun (s, b) -> (s, b, [])) fits
    else
      match t.shards.(i).s_b with
      | Some b when (not b.b_draining) && b.b_digest = digest -> (
        match victims b with
        | Some v -> Some (t.shards.(i), b, v)
        | None -> scan (i + 1))
      | _ -> scan (i + 1)
  in
  scan 0

let preempt_pass t =
  if t.cfg.preempt && fair t then begin
    let continue = ref true in
    while !continue do
      match Admission.peek_strongest_waiting t.adm with
      | Some it when Admission.item_rank it = Tenant.rank Tenant.Latency_bound -> (
        match preemption_plan t it with
        | Some (s, b, victims) ->
          List.iter (fun f -> park t s b f) victims;
          let popped =
            dequeue t ~fits:(fun c ->
                c.Admission.request.Request.id = it.Admission.request.Request.id)
          in
          (match popped with
          | Some it' ->
            start_flight t s b it';
            b.b_force_ckpt <- true
          | None -> assert false)
        | None -> continue := false)
      | _ -> continue := false
    done
  end

(* ---------- resume parked work ---------- *)

let resume_pass t =
  let order =
    List.sort
      (fun a b ->
        match compare (Admission.item_rank a.p_item) (Admission.item_rank b.p_item) with
        | 0 -> (
          match compare a.p_at b.p_at with 0 -> compare a.p_seq b.p_seq | c -> c)
        | c -> c)
      t.parked
  in
  List.iter
    (fun p ->
      match room t ~digest:p.p_item.Admission.digest ~width:(Array.length p.p_states) with
      | None -> ()
      | Some ((s, _) as dst) ->
        (* The park→resume interval becomes a "preempted" mark on the
           request's service span; a cross-shard resume adds a "migrate"
           instant. *)
        let marks =
          let preempted = ("preempted", p.p_at, t.now) :: p.p_marks in
          if p.p_from = s.s_id then preempted else ("migrate", t.now, t.now) :: preempted
        in
        land_flight t dst ~name:"preempt-resume" ~src:p.p_from p.p_states
          { f_item = p.p_item; f_lanes = [||]; f_started = p.p_started;
            f_preempted = p.p_preempted; f_marks = marks };
        t.parked <- List.filter (fun q -> q != p) t.parked;
        backlog_remove t p.p_item;
        t.resumes <- t.resumes + 1)
    order

(* ---------- pool control ---------- *)

let pool_control t =
  let signals =
    {
      Pool.backlog = Admission.length t.adm + List.length t.parked;
      active = active_count t;
      draining = draining_count t;
      lanes_per_shard = t.cfg.lanes_per_shard;
      live_lanes = live_lanes t;
    }
  in
  (match Pool.decide t.cfg.pool ~rounds_since_action:t.since_scale signals with
  | Pool.Grow ->
    if t.target < t.max_target then begin
      t.target <- t.target + 1;
      t.grows <- t.grows + 1;
      ops_span t "pool-grow";
      t.since_scale <- 0
    end
  | Pool.Shrink ->
    if t.target > Stdlib.max t.cfg.pool.Pool.min_shards 1 then begin
      t.target <- t.target - 1;
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
            | _ -> victim := Some (b, live))
          | _ -> ())
        t.shards;
      match !victim with
      | Some (b, _) ->
        b.b_draining <- true;
        b.b_force_ckpt <- true;
        t.shrinks <- t.shrinks + 1;
        ops_span t "pool-shrink";
        t.since_scale <- 0
      | None -> ()
    end
  | Pool.Hold -> ());
  t.since_scale <- t.since_scale + 1

(* ---------- drain migration and unbind ---------- *)

let drain_pass t =
  iter_bindings t (fun s b ->
      if b.b_draining then begin
        List.iter
          (fun f ->
            match room t ~digest:b.b_digest ~width:(Array.length f.f_lanes) with
            | None -> ()
            | Some dst ->
              let states = export_flight b f in
              land_flight t dst ~name:"drain-migrate" ~src:s.s_id states
                { f with f_marks = ("migrate", t.now, t.now) :: f.f_marks };
              b.b_force_ckpt <- true)
          b.b_flight;
        if b.b_flight = [] then unbind t s b
      end)

(* ---------- rebind and demand binding ---------- *)

let bind_pass t =
  (* Rebind: an empty binding turns toward starving work when its own
     digest has no backlog, or strictly less than the most starving
     digest's (strictness prevents two equal backlogs from trading the
     shard back and forth). *)
  iter_bindings t (fun s b ->
      if (not b.b_draining) && b.b_flight = [] then begin
        let own =
          match Hashtbl.find_opt t.backlog b.b_digest with Some tl -> tl.need | None -> 0
        in
        match starving t with
        | (digest, n, _, program) :: _
          when digest <> b.b_digest && (own = 0 || n > own) ->
          unbind t s b;
          bind t s digest program;
          t.rebinds <- t.rebinds + 1
        | _ -> ()
      end);
  (* Demand binding: idle shards activate up to the controller's target,
     toward the most starving digest. *)
  let continue = ref true in
  while !continue do
    if active_count t >= t.target then continue := false
    else begin
      match starving t with
      | (digest, _, _, program) :: _ -> (
        match Array.find_opt (fun s -> Option.is_none s.s_b) t.shards with
        | Some s ->
          bind t s digest program;
          t.binds <- t.binds + 1
        | None -> continue := false)
      | [] -> continue := false
    end
  done

(* ---------- checkpoint cadence ---------- *)

let checkpoint_pass t =
  iter_bindings t (fun s b ->
      b.b_since <- b.b_since + 1;
      if
        b.b_force_ckpt
        || (t.cfg.checkpoint_interval > 0 && b.b_since >= t.cfg.checkpoint_interval)
      then do_checkpoint t s b)

(* ---------- the shard step, the fault tick, the tail ---------- *)

(* One superstep per live shard. *)
let step_shards t =
  iter_bindings t (fun _ b ->
      if Pc_vm.Lanes.live_count b.b_lanes > 0 && Pc_vm.Lanes.step b.b_lanes then
        b.b_stepped <- b.b_stepped + 1)

let fault_tick t =
  try Fault.tick t.injector
  with Fault.Injected ev ->
    let s = t.shards.(ev.Fault.device mod Array.length t.shards) in
    (match s.s_b with Some b -> restore_shard t s b | None -> ())

(* Advance the clock past the round, report the round's end, and jump
   an idle server to its next arrival; [true] once nothing is left to
   serve. *)
let tail t ~e0 =
  (* Shards run in parallel in simulated time, so the clock advances by
     the slowest shard's round. *)
  t.now <-
    t.now
    +. Array.fold_left
         (fun acc s -> Float.max acc (Engine.elapsed s.s_engine -. e0.(s.s_id)))
         0. t.shards;
  (match t.cfg.sink with
  | Some sink -> sink (Obs_sink.Round { round = t.round; at = t.now })
  | None -> ());
  t.peak_active <- Stdlib.max t.peak_active (active_count t);
  let idle =
    sum_bindings t (fun b -> List.length b.b_flight) = 0
    && Admission.length t.adm = 0 && t.parked = []
  in
  match (idle, next_arrival t) with
  | true, Some it ->
    let a = arrival it in
    if a > t.now then t.now <- a;
    false
  | true, None ->
    (* Idle with nothing due. A closed loop may still owe follow-ups for
       completions a planned kill kept in the rollback window: checkpoint
       their shards, which makes them final, and carry on if that brought
       new arrivals. *)
    if Option.is_some t.on_complete then
      iter_bindings t (fun s b -> if b.b_done_since <> [] then do_checkpoint t s b);
    t.followups = []
  | false, _ -> false

(* ---------- the steppable server ---------- *)

let create ?config ?on_complete src =
  let cfg =
    match config with Some c -> c | None -> default_config ~mesh:(Mesh.gpu_pod ~n:4 ())
  in
  if cfg.lanes_per_shard <= 0 then
    invalid_arg "Tenant_server.create: lanes_per_shard must be positive";
  let n_shards = Mesh.size cfg.mesh in
  let shards =
    Array.init n_shards (fun i ->
        let engine = Engine.create ~device:(Mesh.device cfg.mesh i) ~mode:Engine.Hybrid () in
        (match cfg.sink with
        | Some s -> Engine.set_sink engine (Obs_sink.tag_shard i s)
        | None -> ());
        { s_id = i; s_engine = engine; s_b = None; s_pools = [];
          s_door = Doorkeeper.create ~capacity:max_retained; s_built = 0 })
  in
  let kills = List.filter (fun e -> e.Fault.kind = Fault.Device_kill) cfg.faults in
  (* Ladder transitions surface as first-class events, stamped with the
     server's clock — rung changes stop being opaque. They fire inside admission calls, so the
     callback reaches the clock through the state built below. *)
  let self = ref None in
  let adm =
    Admission.create ~config:cfg.admission
      ~on_transition:(fun ~new_level ~occupancy ->
        match !self with
        | Some { cfg = { sink = Some sink; _ }; now; _ } ->
          sink
            (Obs_sink.Ladder { level = Admission.level_name new_level; occupancy; at = now })
        | Some _ | None -> ())
      ()
  in
  let max_target = Stdlib.min n_shards cfg.pool.Pool.max_shards in
  let t =
    {
      cfg;
      on_complete;
      src;
      shards;
      kills;
      injector = Fault.injector kills;
      adm;
      max_target;
      now = 0.; round = 0; over = false;
      parked = []; backlog = Hashtbl.create 16; seq = 0; followups = []; span_seq = 0;
      target = Stdlib.min (Stdlib.max cfg.pool.Pool.min_shards 1) max_target;
      since_scale = cfg.pool.Pool.cooldown;
      completions = []; throttled = []; rejected = []; shed = [];
      preemptions = 0; resumes = 0; migrations = 0; migration_bytes = 0.;
      binds = 0; rebinds = 0; grows = 0; shrinks = 0;
      checkpoints = 0; restores = 0; wasted = 0; peak_active = 0;
    }
  in
  self := Some t;
  t

let stuck t =
  let shard s =
    match s.s_b with
    | None -> Printf.sprintf "shard %d idle" s.s_id
    | Some b ->
      Printf.sprintf "shard %d digest %Lx flights %d live %d%s" s.s_id b.b_digest
        (List.length b.b_flight) (Pc_vm.Lanes.live_count b.b_lanes)
        (if b.b_draining then " draining" else "")
  in
  Printf.sprintf
    "Tenant_server.step_round: max_rounds exceeded (no progress?): queued %d, parked %d, %s"
    (Admission.length t.adm) (List.length t.parked)
    (String.concat "; " (Array.to_list (Array.map shard t.shards)))

let step_round t =
  if t.over then false
  else begin
    t.round <- t.round + 1;
    if t.round > max_rounds then failwith (stuck t);
    let e0 = Array.map (fun s -> Engine.elapsed s.s_engine) t.shards in
    ingest t;
    iter_bindings t (retire_shard t);
    pool_control t;
    drain_pass t;
    bind_pass t;
    refill t;
    preempt_pass t;
    resume_pass t;
    checkpoint_pass t;
    step_shards t;
    fault_tick t;
    t.over <- tail t ~e0;
    true
  end

let finish t : stats =
  iter_bindings t (fun _ b -> flush_done t b);
  {
    completions = List.rev t.completions;
    throttled = List.rev t.throttled;
    rejected = List.rev t.rejected;
    shed = List.rev t.shed;
    rounds = t.round;
    makespan = t.now;
    preemptions = t.preemptions; resumes = t.resumes;
    migrations = t.migrations; migration_bytes = t.migration_bytes;
    binds = t.binds; rebinds = t.rebinds; grows = t.grows; shrinks = t.shrinks;
    checkpoints = t.checkpoints; restores = t.restores; wasted_rounds = t.wasted;
    peak_active = t.peak_active;
    counters =
      Array.fold_left
        (fun acc s -> Engine.Counters.add acc (Engine.snapshot s.s_engine).Engine.at)
        Engine.Counters.zero t.shards;
  }

let run ?config ?on_complete src =
  let t = create ?config ?on_complete src in
  while step_round t do () done;
  finish t

let census t : census =
  {
    arriving = (if Option.is_some t.src.ahead then 1 else 0) + List.length t.followups;
    queued = Admission.length t.adm;
    parked = List.length t.parked;
    in_flight = sum_bindings t (fun b -> List.length b.b_flight);
    unflushed = sum_bindings t (fun b -> List.length b.b_done_since);
    completed = List.length t.completions;
    throttled = List.length t.throttled;
    rejected = List.length t.rejected;
    shed = List.length t.shed;
  }

let retained_pools t = Array.map (fun s -> List.length s.s_pools) t.shards
let pools_built t = Array.map (fun s -> s.s_built) t.shards

let backlog t =
  Hashtbl.fold
    (fun digest tl acc -> (digest, tl.need, earliest tl) :: acc)
    t.backlog []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b)

let waiting t =
  let queued = ref [] in
  Admission.iter t.adm (fun it -> queued := it :: !queued);
  List.rev_append !queued (List.map (fun p -> p.p_item) t.parked)
