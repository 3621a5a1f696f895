type partition = { offset : int; length : int }

let partition ~z ~shards =
  if z <= 0 then invalid_arg "Shard_vm.partition: batch must be positive";
  if shards <= 0 then invalid_arg "Shard_vm.partition: need at least one shard";
  let k = min shards z in
  let base = z / k and rem = z mod k in
  Array.init k (fun i ->
      let length = base + if i < rem then 1 else 0 in
      let offset = (i * base) + min i rem in
      { offset; length })

type config = {
  mesh : Mesh.t;
  mode : Engine.mode option;
  collective : Collectives.algorithm;
  sched : Sched_policy.t;
  max_steps : int;
  sink : Obs_sink.t option;
}

let default_config =
  {
    mesh = Mesh.gpu_pod ~n:1 ();
    mode = None;
    collective = Collectives.Ring;
    sched = Sched_policy.Earliest;
    max_steps = 100_000_000;
    sink = None;
  }

type result = {
  outputs : Tensor.t list;
  counters : Engine.Counters.t;
  shard_times : float array;
  compute_time : float;
  collective_time : float;
  sim_time : float;
  supersteps : int;
}

(* The per-superstep convergence payload: every device contributes one
   "any member still live?" flag to an all-reduce. *)
let sync_bytes = 8.

let batch_size batch =
  match batch with
  | [] -> invalid_arg "Shard_vm: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Shard_vm: inputs must carry a leading batch dimension";
    (Tensor.shape first).(0)

let run ?(config = default_config) reg program ~batch =
  let z = batch_size batch in
  let parts = partition ~z ~shards:(Mesh.size config.mesh) in
  let sub_batch { offset; length } =
    let rows = Array.init length (fun i -> offset + i) in
    List.map (fun t -> Tensor.take_rows t rows) batch
  in
  (* One domain per shard; each runs an ordinary single-device VM over its
     sub-batch with its own engine, with lane identities offset so RNG
     streams match the unsharded run. *)
  let run_shard i part =
    let engine =
      Option.map
        (fun mode -> Engine.create ~device:(Mesh.device config.mesh i) ~mode ())
        config.mode
    in
    let inputs = sub_batch part in
    (* Step/Occupancy events from shard [i] reach the user's sink re-tagged
       with the shard index; the sink fires from the shard's domain, so it
       must be domain-safe (a [Trace.sink] or [Obs_prof.sink] is). The same
       tagged sink is installed on the shard's private engine so its
       [Launched] spans are observable too — on the shard's own domain,
       which is how the profiler pairs them with this shard's steps. *)
    let sink = Option.map (Obs_sink.tag_shard i) config.sink in
    (match (engine, sink) with
    | Some engine, Some sink -> Engine.set_sink engine sink
    | _ -> ());
    (* The shard's superstep count, read off its own Step events (after
       the user's sink, so a step it aborts is not counted). *)
    let steps = ref 0 in
    let count = function Obs_sink.Step _ -> incr steps | _ -> () in
    let sink =
      Some (match sink with None -> count | Some s -> Obs_sink.fanout [ s; count ])
    in
    fun () ->
      let outputs =
        match program with
        | `Pc p ->
          let config =
            {
              Pc_vm.default_config with
              sched = config.sched;
              max_steps = config.max_steps;
              engine;
              member_base = part.offset;
              sink;
            }
          in
          Pc_vm.run ~config reg p ~batch:inputs
        | `Local p ->
          let config =
            {
              Local_vm.default_config with
              sched = config.sched;
              max_steps = config.max_steps;
              engine;
              member_base = part.offset;
              sink;
            }
          in
          Local_vm.run ~config reg p ~batch:inputs
      in
      let snapshot =
        match engine with
        | Some e -> Engine.snapshot e
        | None -> { Engine.at = Engine.Counters.zero; ops = [] }
      in
      (outputs, snapshot, !steps)
  in
  (* Shard 0 runs on the calling domain while the tail shards run on
     spawned ones; all thunks capture their (copied) sub-batches before
     any shard starts executing. *)
  let thunks = Array.mapi run_shard parts in
  let tail =
    Array.to_list (Array.sub thunks 1 (Array.length thunks - 1))
    |> List.map Domain.spawn
  in
  let head =
    match thunks.(0) () with
    | r -> r
    | exception e ->
      (* Don't leak the spawned domains if the inline shard fails. *)
      List.iter (fun d -> try ignore (Domain.join d) with _ -> ()) tail;
      raise e
  in
  let shards = head :: List.map Domain.join tail in
  (* Deterministic merge: shard order is batch order, so concatenation
     reassembles exactly the unsharded layout. *)
  let outputs =
    match shards with
    | [] -> assert false
    | (first, _, _) :: _ ->
      List.mapi
        (fun i _ -> Tensor.concat_rows (List.map (fun (o, _, _) -> List.nth o i) shards))
        first
  in
  let counters =
    List.fold_left
      (fun acc (_, s, _) -> Engine.Counters.add acc s.Engine.at)
      Engine.Counters.zero shards
  in
  let shard_times =
    Array.of_list
      (List.map (fun (_, s, _) -> s.Engine.at.Engine.Counters.elapsed_seconds) shards)
  in
  let compute_time = Array.fold_left Float.max 0. shard_times in
  (* SPMD supersteps: every device steps its VM loop in lockstep until all
     shards drain, agreeing on termination by an all-reduced flag each
     superstep; the final outputs are all-gathered. *)
  let supersteps = List.fold_left (fun acc (_, _, n) -> max acc n) 0 shards in
  let output_bytes =
    List.fold_left
      (fun acc t -> acc +. (8. *. float_of_int (Tensor.numel t)))
      0. outputs
  in
  let all_reduce_total =
    float_of_int supersteps
    *. Collectives.all_reduce_time config.mesh config.collective ~bytes:sync_bytes
  in
  let all_gather_total =
    Collectives.all_gather_time config.mesh config.collective ~bytes:output_bytes
  in
  let collective_time = all_reduce_total +. all_gather_total in
  (* The collective phases as spans on the mesh timeline: compute first
     (per-shard engines run [0, compute_time]), then the aggregated sync
     flags, then the final output gather. *)
  (match config.sink with
  | None -> ()
  | Some sink ->
    sink
      (Obs_sink.Collective
         {
           name = "all-reduce";
           bytes = sync_bytes *. float_of_int supersteps;
           t0 = compute_time;
           t1 = compute_time +. all_reduce_total;
         });
    sink
      (Obs_sink.Collective
         {
           name = "all-gather";
           bytes = output_bytes;
           t0 = compute_time +. all_reduce_total;
           t1 = compute_time +. collective_time;
         }));
  {
    outputs;
    counters;
    shard_times;
    compute_time;
    collective_time;
    sim_time = compute_time +. collective_time;
    supersteps;
  }
