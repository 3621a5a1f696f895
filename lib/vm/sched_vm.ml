type config = {
  policy : Sched_policy.t;
  plan : Sched_plan.config;
  lanes : int;
  mesh : Mesh.t;
  mode : Engine.mode option;
  collective : Collectives.algorithm;
  max_steps : int;
  sink : Obs_sink.t option;
}

let default_config =
  {
    policy = Sched_policy.Earliest;
    plan = Sched_plan.default;
    lanes = 8;
    mesh = Mesh.gpu_pod ~n:1 ();
    mode = None;
    collective = Collectives.Ring;
    max_steps = 100_000_000;
    sink = None;
  }

type result = {
  outputs : Tensor.t list;
  counters : Engine.Counters.t;
  supersteps : int;
  vm_steps : int;
  refills : int;
  migrations : int;
  steals : int;
  migration_bytes : float;
  shard_times : float array;
  compute_time : float;
  collective_time : float;
  sim_time : float;
}

type t = {
  config : config;
  batch : Tensor.t list;
  engines : Engine.t option array;
  pools : Pc_vm.Lanes.t array;
  queue : int Queue.t;  (* members waiting for a refill *)
  outputs : Tensor.t list option array;  (* retired members' rows *)
  mutable rounds : int;
  mutable refills : int;
  mutable migrations : int;
  mutable steals : int;
  mutable migration_bytes : float;
}

(* Per planning round every device contributes its lane view to an
   all-reduce (the "any member still live?" convergence flag, plus the
   live/free counts the planner reads). *)
let sync_bytes = 8.

let batch_size batch =
  match batch with
  | [] -> invalid_arg "Sched_vm: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Sched_vm: inputs must carry a leading batch dimension";
    let n = (Tensor.shape first).(0) in
    if n = 0 then invalid_arg "Sched_vm: empty batch";
    List.iter
      (fun t ->
        if Tensor.rank t = 0 || (Tensor.shape t).(0) <> n then
          invalid_arg "Sched_vm: inputs disagree on the batch dimension")
      batch;
    n

let bytes_of ts =
  List.fold_left (fun acc x -> acc +. (8. *. float_of_int (Tensor.numel x))) 0. ts

let static t = not t.config.plan.Sched_plan.refill

let member_inputs t m = List.map (fun x -> Tensor.slice_row x m) t.batch

let create ?(config = default_config) reg (p : Stack_ir.program) ~batch =
  let n = batch_size batch in
  let k = Mesh.size config.mesh in
  (* The static partition gives each device a pool exactly as wide as its
     slice of the batch; the refilling plans give every device [lanes]. *)
  let parts =
    if config.plan.Sched_plan.refill then begin
      if config.lanes <= 0 then
        invalid_arg "Sched_vm: need at least one lane per shard";
      Array.make k { Sched_plan.offset = 0; length = config.lanes }
    end
    else Sched_plan.partition ~z:n ~shards:k
  in
  let engine i mode = Engine.create ~device:(Mesh.device config.mesh i) ~mode () in
  let engines = Array.mapi (fun i _ -> Option.map (engine i) config.mode) parts in
  (* Every pool runs on the calling domain, stepped shard 0 first: a
     migration schedule must be a deterministic function of the lane state
     for the bitwise gate (and the seeded-schedule fuzzer) to mean
     anything, and the measurement is the per-device simulated clock, not
     host wall time. *)
  let pools =
    Array.mapi
      (fun i (part : Sched_plan.partition) ->
        let sink = Option.map (Obs_sink.tag_shard i) config.sink in
        (match (engines.(i), sink) with
        | Some engine, Some sink -> Engine.set_sink engine sink
        | _ -> ());
        let pool_config =
          {
            Pc_vm.default_config with
            sched = config.policy;
            engine = engines.(i);
            max_steps = config.max_steps;
            sink;
          }
        in
        Pc_vm.Lanes.create ~config:pool_config reg p ~z:part.length)
      parts
  in
  let t =
    {
      config;
      batch;
      engines;
      pools;
      queue = Queue.create ();
      outputs = Array.make n None;
      rounds = 0;
      refills = 0;
      migrations = 0;
      steals = 0;
      migration_bytes = 0.;
    }
  in
  if static t then
    (* Every member loads before round 1, as [Pc_vm.run] loads: lane [i]
       of a device runs member [offset + i], and nothing is charged. *)
    Array.iteri
      (fun s (part : Sched_plan.partition) ->
        for lane = 0 to part.length - 1 do
          let m = part.offset + lane in
          Pc_vm.Lanes.load pools.(s) ~lane ~member:m ~inputs:(member_inputs t m)
        done)
      parts
  else
    for m = 0 to n - 1 do
      Queue.add m t.queue
    done;
  t

let pools t = t.pools

let drained t =
  Queue.is_empty t.queue
  && Array.for_all
       (fun pool -> Pc_vm.Lanes.free_count pool = Pc_vm.Lanes.z pool)
       t.pools

(* One scheduled block per pool — the SPMD superstep. *)
let step_pools t =
  Array.fold_left (fun acc pool -> Pc_vm.Lanes.step pool || acc) false t.pools

let apply_move t move =
  let { Sched_plan.m_src_shard; m_src_lane; m_dst_shard; m_dst_lane } = move in
  let state = Pc_vm.Lanes.export_lane t.pools.(m_src_shard) ~lane:m_src_lane in
  Pc_vm.Lanes.evict t.pools.(m_src_shard) ~lane:m_src_lane;
  Pc_vm.Lanes.import_lane t.pools.(m_dst_shard) ~lane:m_dst_lane state;
  let bytes = Pc_vm.Lanes.lane_state_bytes state in
  t.migrations <- t.migrations + 1;
  t.migration_bytes <- t.migration_bytes +. bytes;
  if m_src_shard = m_dst_shard then
    Option.iter
      (fun e -> Engine.charge_transfer e ~name:"defrag-move" ~bytes ~seconds:0.)
      t.engines.(m_src_shard)
  else begin
    t.steals <- t.steals + 1;
    let seconds = Collectives.p2p_time t.config.mesh ~bytes in
    Option.iter
      (fun e -> Engine.charge_transfer e ~name:"steal-transfer" ~bytes ~seconds)
      t.engines.(m_dst_shard)
  end;
  Option.iter
    (fun sink ->
      sink
        (Obs_sink.Migration
           {
             src_shard = m_src_shard;
             dst_shard = m_dst_shard;
             member = state.Pc_vm.Lanes.ls_member;
             bytes;
             step = t.rounds;
           }))
    t.config.sink

(* A planned round: retire, plan against the post-retire occupancy, refill
   and migrate, then step every pool. *)
let planned_round t =
  t.rounds <- t.rounds + 1;
  let activity = ref false in
  Array.iteri
    (fun s pool ->
      List.iter
        (fun lane ->
          let m = Pc_vm.Lanes.member pool ~lane in
          let outs = Pc_vm.Lanes.retire pool ~lane in
          Option.iter
            (fun e -> Engine.charge_retire e ~bytes:(bytes_of outs))
            t.engines.(s);
          t.outputs.(m) <- Some outs;
          activity := true)
        (Pc_vm.Lanes.finished_lanes pool))
    t.pools;
  let views =
    Array.map
      (fun pool ->
        let free = ref [] and live = ref [] in
        for lane = Pc_vm.Lanes.z pool - 1 downto 0 do
          if Pc_vm.Lanes.live pool ~lane then live := lane :: !live
          else if not (Pc_vm.Lanes.occupied pool ~lane) then free := lane :: !free
        done;
        { Sched_plan.free = !free; live = !live })
      t.pools
  in
  let plan =
    Sched_plan.plan t.config.plan ~pending:(Queue.length t.queue) ~views
  in
  List.iter
    (fun { Sched_plan.r_shard; r_lane } ->
      match Queue.take_opt t.queue with
      | None -> ()
      | Some m ->
        let inputs = member_inputs t m in
        Pc_vm.Lanes.load t.pools.(r_shard) ~lane:r_lane ~member:m ~inputs;
        Option.iter
          (fun e -> Engine.charge_refill e ~bytes:(bytes_of inputs))
          t.engines.(r_shard);
        t.refills <- t.refills + 1;
        activity := true)
    plan.Sched_plan.refills;
  List.iter
    (fun move ->
      apply_move t move;
      activity := true)
    plan.Sched_plan.moves;
  if step_pools t then activity := true;
  if not !activity then
    (* Unreachable by construction (finished lanes retire, free lanes
       refill while members are pending), kept as a loud failure over a
       silent spin. *)
    invalid_arg "Sched_vm: no progress — lane pool wedged"

let step t =
  if static t then begin
    let stepped = step_pools t in
    if stepped then t.rounds <- t.rounds + 1;
    stepped
  end
  else if drained t then false
  else begin
    planned_round t;
    true
  end

let finish t =
  (* Output [j] is [join] over every part's output [j]: the pools' full
     tensors in device order, or the retired members' rows in member
     order. *)
  let joined join parts =
    List.mapi
      (fun j _ -> join (List.map (fun outs -> List.nth outs j) parts))
      (List.hd parts)
  in
  let outputs =
    if static t then
      joined Tensor.concat_rows (Array.to_list (Array.map Pc_vm.Lanes.outputs t.pools))
    else joined Tensor.stack_rows (Array.to_list (Array.map Option.get t.outputs))
  in
  let counters =
    Array.fold_left
      (fun acc e ->
        match e with
        | Some e -> Engine.Counters.add acc (Engine.snapshot e).Engine.at
        | None -> acc)
      Engine.Counters.zero t.engines
  in
  let shard_times =
    Array.map (function Some e -> Engine.elapsed e | None -> 0.) t.engines
  in
  let compute_time = Array.fold_left Float.max 0. shard_times in
  let output_bytes = bytes_of outputs in
  let all_reduce_total =
    float_of_int t.rounds
    *. Collectives.all_reduce_time t.config.mesh t.config.collective
         ~bytes:sync_bytes
  in
  let all_gather_total =
    Collectives.all_gather_time t.config.mesh t.config.collective
      ~bytes:output_bytes
  in
  let collective_time = all_reduce_total +. all_gather_total in
  (* The collective phases on the mesh timeline, after every device's
     compute: the aggregated sync flags, then the final output gather. *)
  (match t.config.sink with
  | Some sink when collective_time > 0. ->
    let span name bytes t0 t1 = sink (Obs_sink.Collective { name; bytes; t0; t1 }) in
    let synced = compute_time +. all_reduce_total in
    span "all-reduce" (sync_bytes *. float_of_int t.rounds) compute_time synced;
    span "all-gather" output_bytes synced (compute_time +. collective_time)
  | _ -> ());
  {
    outputs;
    counters;
    supersteps = t.rounds;
    vm_steps =
      Array.fold_left (fun acc pool -> acc + Pc_vm.Lanes.steps pool) 0 t.pools;
    refills = t.refills;
    migrations = t.migrations;
    steals = t.steals;
    migration_bytes = t.migration_bytes;
    shard_times;
    compute_time;
    collective_time;
    sim_time = compute_time +. collective_time;
  }

let run ?config reg p ~batch =
  let t = create ?config reg p ~batch in
  while step t do
    ()
  done;
  finish t
