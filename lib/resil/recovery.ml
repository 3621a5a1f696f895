type stats = {
  supersteps : int;
  useful_supersteps : int;
  wasted_supersteps : int;
  checkpoints : int;
  checkpoint_bytes : int;
  restores : int;
  faults_injected : int;
  link_retries : int;
}

(* Young's first-order optimal checkpoint interval: with checkpoint cost
   delta and mean time between failures M (both in the same unit —
   supersteps here), T_opt = sqrt(2 delta M). *)
let young_interval ~checkpoint_cost ~mtbf =
  if checkpoint_cost <= 0. || mtbf <= 0. then
    invalid_arg "Recovery.young_interval: cost and MTBF must be positive";
  sqrt (2. *. checkpoint_cost *. mtbf)

(* Mutable tallies threaded through one recovered run. *)
type tally = {
  mutable t_checkpoints : int;
  mutable t_bytes : int;
  mutable t_restores : int;
  mutable t_wasted : int;
  mutable t_link_retries : int;
}

let tally () =
  { t_checkpoints = 0; t_bytes = 0; t_restores = 0; t_wasted = 0; t_link_retries = 0 }

let finish tl inj ~useful =
  {
    supersteps = useful + tl.t_wasted;
    useful_supersteps = useful;
    wasted_supersteps = tl.t_wasted;
    checkpoints = tl.t_checkpoints;
    checkpoint_bytes = tl.t_bytes;
    restores = tl.t_restores;
    faults_injected = Fault.injected inj;
    link_retries = tl.t_link_retries;
  }

let check_interval interval =
  if interval < 0 then invalid_arg "Recovery: checkpoint interval must be >= 0"

(* Install the kernel-poison seam on an engine for the duration of [f].
   The sink is cleared afterwards so the caller's engine is left clean. *)
let with_engine_sink engine inj f =
  match engine with
  | None -> f ()
  | Some e ->
    Engine.set_sink e (Fault.sink inj);
    Fun.protect ~finally:(fun () -> Engine.clear_sink e) f

(* Compose the user's sink (first, so tracing observes the superstep the
   fault aborts) with the injector's. *)
let fault_sink user inj =
  match user with
  | None -> Fault.sink inj
  | Some u -> Obs_sink.fanout [ u; Fault.sink inj ]

(* Checkpoint/restore lifecycle events go to the user's sink only. *)
let notify user ev = match user with None -> () | Some s -> s ev

(* ---- Program-counter VM ----------------------------------------------- *)

let run_pc ?(config = Pc_vm.default_config) ?(interval = 0) ?(plan = []) reg program
    ~batch =
  check_interval interval;
  let inj = Fault.injector plan in
  let user_sink = config.Pc_vm.sink in
  let config = { config with Pc_vm.sink = Some (fault_sink user_sink inj) } in
  let z = Vm_util.batch_size ~who:"Recovery" batch in
  let lanes = Pc_vm.Lanes.create ~config reg program ~z in
  for lane = 0 to z - 1 do
    Pc_vm.Lanes.load lanes ~lane ~member:(config.Pc_vm.member_base + lane)
      ~inputs:(List.map (fun t -> Tensor.slice_row t lane) batch)
  done;
  let tl = tally () in
  let capture () =
    let blob =
      Snapshot.encode_pc
        {
          Snapshot.ck_vm = Pc_vm.Lanes.capture lanes;
          ck_engine = Option.map Engine.snapshot config.Pc_vm.engine;
        }
    in
    tl.t_checkpoints <- tl.t_checkpoints + 1;
    tl.t_bytes <- tl.t_bytes + String.length blob;
    notify user_sink
      (Obs_sink.Checkpoint
         { step = Pc_vm.Lanes.steps lanes; bytes = String.length blob });
    blob
  in
  (* Every restore decodes the stored blob — a genuine serialization round
     trip per recovery, not a shortcut through the in-memory image. *)
  let restore blob =
    let ck = Snapshot.decode_pc blob in
    Pc_vm.Lanes.restore lanes ck.Snapshot.ck_vm;
    let rolled_back =
      match (config.Pc_vm.engine, ck.Snapshot.ck_engine) with
      | Some e, Some s ->
        let before = Engine.elapsed e in
        Engine.restore e s;
        before -. Engine.elapsed e
      | _ -> 0.
    in
    notify user_sink (Obs_sink.Restore { step = Pc_vm.Lanes.steps lanes; rolled_back })
  in
  let latest = ref (capture ()) in
  with_engine_sink config.Pc_vm.engine inj (fun () ->
      let rec loop () =
        match Pc_vm.Lanes.step lanes with
        | true ->
          if interval > 0 && Pc_vm.Lanes.steps lanes mod interval = 0 then
            latest := capture ();
          loop ()
        | false -> ()
        | exception Fault.Injected _ ->
          (* The faulted superstep never completed: completed work is
             [steps - 1] supersteps, of which everything past the last
             checkpoint must be re-executed. *)
          let completed = max 0 (Pc_vm.Lanes.steps lanes - 1) in
          restore !latest;
          tl.t_restores <- tl.t_restores + 1;
          tl.t_wasted <- tl.t_wasted + max 0 (completed - Pc_vm.Lanes.steps lanes);
          loop ()
      in
      loop ());
  (Pc_vm.Lanes.outputs lanes, finish tl inj ~useful:(Pc_vm.Lanes.steps lanes))

(* ---- Sharded execution ------------------------------------------------ *)

type sharded_result = {
  sh_outputs : Tensor.t list;
  sh_rounds : int;
  sh_stats : stats;
}

let run_sharded ?(sched = Sched_policy.Earliest) ?(shards = 2) ?(interval = 0) ?(plan = [])
    reg program ~batch =
  check_interval interval;
  if shards <= 0 then invalid_arg "Recovery.run_sharded: need at least one shard";
  let inj = Fault.injector plan in
  (* The static partition of {!Sched_vm}: one pool per shard, every member
     loaded up front, all pools stepped once per round. *)
  let run =
    Sched_vm.create
      ~config:
        {
          Sched_vm.default_config with
          policy = sched;
          plan = Sched_plan.off;
          mesh = Mesh.gpu_pod ~n:shards ();
        }
      reg program ~batch
  in
  let lanes = Sched_vm.pools run in
  let tl = tally () in
  let capture () =
    let blob = Snapshot.encode_shards (Array.map Pc_vm.Lanes.capture lanes) in
    tl.t_checkpoints <- tl.t_checkpoints + 1;
    tl.t_bytes <- tl.t_bytes + String.length blob;
    blob
  in
  let latest = ref (capture ()) in
  (* A device fault rewinds only the victim shard — its neighbours keep
     their progress, the definition of localized recovery. *)
  let restore_shard d =
    let images = Snapshot.decode_shards !latest in
    let completed = Pc_vm.Lanes.steps lanes.(d) in
    Pc_vm.Lanes.restore lanes.(d) images.(d);
    tl.t_restores <- tl.t_restores + 1;
    tl.t_wasted <- tl.t_wasted + max 0 (completed - Pc_vm.Lanes.steps lanes.(d))
  in
  let rounds = ref 0 in
  let running = ref true in
  while !running do
    match Fault.tick inj with
    | () ->
      List.iter
        (fun (_ : Fault.event) ->
          (* A dropped link forces the round's collective to retry: one
             wasted superstep across the mesh, no state lost. *)
          tl.t_link_retries <- tl.t_link_retries + 1;
          tl.t_wasted <- tl.t_wasted + 1)
        (Fault.drops_now inj);
      if Sched_vm.step run then begin
        incr rounds;
        if interval > 0 && !rounds mod interval = 0 then latest := capture ()
      end
      else running := false
    | exception Fault.Injected e -> restore_shard (e.Fault.device mod Array.length lanes)
  done;
  let r = Sched_vm.finish run in
  {
    sh_outputs = r.Sched_vm.outputs;
    sh_rounds = r.Sched_vm.supersteps;
    sh_stats = finish tl inj ~useful:r.Sched_vm.vm_steps;
  }
