type point = {
  vm : string;
  interval : int;
  rate : float;
  faults : int;
  restores : int;
  link_retries : int;
  checkpoints : int;
  ckpt_bytes : int;
  useful : int;
  wasted : int;
  overhead_pct : float;
  recovered_pct : float;
  identical : bool;
}

type stats = {
  z : int;
  ckpt_bandwidth : float;
  delta_steps : float;
  young : (float * float) list;
  points : point list;
}

(* The workload: batched recursive Fibonacci — all control flow, deep
   per-lane stacks, divergent lane lifetimes. The hardest case for
   snapshot fidelity and the easiest to check bitwise. *)
let fib_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

let digest fill =
  let buf = Buffer.create 1024 in
  fill buf;
  Codec.fnv1a64 (Buffer.contents buf)

let w_tensors buf ts =
  List.iter
    (fun t ->
      Codec.w_int_array buf (Tensor.shape t);
      Codec.w_float_array buf (Tensor.data t))
    ts

type runner = {
  name : string;
  kinds : Fault.kind list;
  devices : int;
  exec : interval:int -> plan:Fault.event list -> Int64.t * Recovery.stats;
}

let run ?(z = 32) ?(intervals = [ 1; 8; 64; 0 ]) ?(rates = [ 0.; 0.02; 0.1 ])
    ?(vms = [ "pc"; "shard"; "server" ]) ?(shards = 4)
    ?(server_lanes = 4) ?(n_requests = 12) ?(ckpt_bandwidth = 262144.)
    ?(seed = 24389) () =
  List.iter
    (fun i -> if i < 0 then invalid_arg "Resilience.run: negative interval")
    intervals;
  if ckpt_bandwidth <= 0. then
    invalid_arg "Resilience.run: checkpoint bandwidth must be positive";
  let compiled = Autobatch.compile ~input_shapes:[ Shape.scalar ] fib_program in
  let reg = compiled.Autobatch.registry in
  let stack = compiled.Autobatch.stack in
  let batch = [ Tensor.init [| z |] (fun i -> float_of_int (4 + (i.(0) mod 8))) ] in
  let pc_runner =
    {
      name = "pc";
      kinds = [ Fault.Device_kill; Fault.Kernel_poison ];
      devices = 1;
      exec =
        (fun ~interval ~plan ->
          let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
          let config = { Pc_vm.default_config with Pc_vm.engine = Some engine } in
          let outs, st = Recovery.run_pc ~config ~interval ~plan reg stack ~batch in
          ( digest (fun buf ->
                w_tensors buf outs;
                Codec.w_float buf (Engine.elapsed engine)),
            st ));
    }
  in
  let shard_runner =
    {
      name = "shard";
      kinds = [ Fault.Device_kill; Fault.Link_drop ];
      devices = shards;
      exec =
        (fun ~interval ~plan ->
          let r = Recovery.run_sharded ~shards ~interval ~plan reg stack ~batch in
          (digest (fun buf -> w_tensors buf r.Recovery.sh_outputs), r.Recovery.sh_stats));
    }
  in
  (* The serving runtime recovers on its own: [config.faults] kills its
     one shard on the round clock and it restores from its last
     checkpoint, taken every [interval] rounds. Completion times move
     with the kill (the fleet's clock never rewinds); what must not move
     is which requests complete and their outputs, bit for bit. *)
  let tenant = Tenant.make ~id:0 ~name:"resil" () in
  let items =
    List.init n_requests (fun i ->
        {
          Admission.tenant;
          request =
            Request.make ~id:i ~member:i
              ~arrival:(float_of_int i *. 3e-6)
              ~program:compiled
              ~inputs:[ Tensor.init [| 1 |] (fun _ -> float_of_int (4 + (i mod 8))) ]
              ();
          digest = 0L;
        })
  in
  let server_runner =
    {
      name = "server";
      kinds = [ Fault.Device_kill ];
      devices = 1;
      exec =
        (fun ~interval ~plan ->
          (* Supersteps are read off the shard's [Step] events: their
             [step] field is the lane pool's counter, which a restore
             rewinds, so the last one is the useful work and the rest
             was re-executed. *)
          let bytes = ref 0 and steps = ref 0 and useful = ref 0 in
          let sink = function
            | Obs_sink.Checkpoint { bytes = b; _ } -> bytes := !bytes + b
            | Obs_sink.Step { step; _ } ->
              incr steps;
              useful := step
            | _ -> ()
          in
          let config =
            {
              (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
              Tenant_server.lanes_per_shard = server_lanes;
              admission = Admission.fifo ();
              preempt = false;
              checkpoint_interval = interval;
              faults = plan;
              sink = Some sink;
            }
          in
          let s = Tenant_server.run ~config (Tenant_server.source_of_list items) in
          let id c = c.Tenant_server.c_item.Admission.request.Request.id in
          let by_id = List.sort (fun a b -> compare (id a) (id b)) s.Tenant_server.completions in
          let fired = List.filter (fun e -> e.Fault.superstep <= s.Tenant_server.rounds) plan in
          ( digest (fun buf ->
                List.iter
                  (fun c ->
                    Codec.w_int buf (id c);
                    w_tensors buf (Option.get c.Tenant_server.c_outputs))
                  by_id),
            {
              Recovery.supersteps = !steps;
              useful_supersteps = !useful;
              wasted_supersteps = !steps - !useful;
              checkpoints = s.Tenant_server.checkpoints;
              checkpoint_bytes = !bytes;
              restores = s.Tenant_server.restores;
              faults_injected = List.length fired;
              link_retries = 0;
            } ));
    }
  in
  let runners =
    List.filter_map
      (fun name ->
        match name with
        | "pc" -> Some pc_runner
        | "shard" -> Some shard_runner
        | "server" -> Some server_runner
        | other -> invalid_arg (Printf.sprintf "Resilience.run: unknown vm %S" other))
      vms
  in
  let delta_steps = ref Float.nan in
  let points =
    List.concat_map
      (fun r ->
        (* Fault-free reference: digest to compare against, horizon for
           fault plans, and (first runner) the per-checkpoint cost. *)
        let ref_digest, ref_stats = r.exec ~interval:0 ~plan:[] in
        if Float.is_nan !delta_steps then
          delta_steps :=
            float_of_int ref_stats.Recovery.checkpoint_bytes /. ckpt_bandwidth;
        let horizon = ref_stats.Recovery.useful_supersteps + 1 in
        List.concat_map
          (fun interval ->
            List.map
              (fun rate ->
                let plan =
                  if rate = 0. then []
                  else
                    Fault.schedule
                      ~seed:(seed + (String.length r.name * 7919))
                      ~rate ~horizon ~devices:r.devices ~kinds:r.kinds ()
                in
                let d, st = r.exec ~interval ~plan in
                let useful = st.Recovery.useful_supersteps in
                {
                  vm = r.name;
                  interval;
                  rate;
                  faults = st.Recovery.faults_injected;
                  restores = st.Recovery.restores;
                  link_retries = st.Recovery.link_retries;
                  checkpoints = st.Recovery.checkpoints;
                  ckpt_bytes = st.Recovery.checkpoint_bytes;
                  useful;
                  wasted = st.Recovery.wasted_supersteps;
                  overhead_pct =
                    (if useful = 0 then 0.
                     else
                       100.
                       *. (float_of_int st.Recovery.checkpoint_bytes
                          /. ckpt_bandwidth)
                       /. float_of_int useful);
                  recovered_pct =
                    (let total = useful + st.Recovery.wasted_supersteps in
                     if total = 0 then 100.
                     else 100. *. float_of_int useful /. float_of_int total);
                  identical = Int64.equal d ref_digest;
                })
              rates)
          intervals)
      runners
  in
  let young =
    List.filter_map
      (fun rate ->
        if rate <= 0. then None
        else
          Some
            ( rate,
              Recovery.young_interval ~checkpoint_cost:!delta_steps
                ~mtbf:(1. /. rate) ))
      rates
  in
  { z; ckpt_bandwidth; delta_steps = !delta_steps; young; points }

let interval_name i = if i = 0 then "inf" else string_of_int i

let to_csv stats =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "vm,interval,rate,faults,restores,link_retries,checkpoints,ckpt_bytes,useful,wasted,overhead_pct,recovered_pct,identical\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.3f,%d,%d,%d,%d,%d,%d,%d,%.4f,%.2f,%b\n" p.vm
           (interval_name p.interval)
           p.rate p.faults p.restores p.link_retries p.checkpoints p.ckpt_bytes
           p.useful p.wasted p.overhead_pct p.recovered_pct p.identical))
    stats.points;
  List.iter
    (fun (rate, t_opt) ->
      Buffer.add_string buf
        (Printf.sprintf "# young: rate=%.3f mtbf=%.1f t_opt=%.1f\n" rate (1. /. rate)
           t_opt))
    stats.young;
  Buffer.add_string buf
    (Printf.sprintf "# z=%d ckpt_bandwidth=%.0f delta_steps=%.4f\n" stats.z
       stats.ckpt_bandwidth stats.delta_steps);
  Buffer.contents buf

let to_json stats =
  Obs_json.Obj
    [
      ("z", Obs_json.Int stats.z);
      ("ckpt_bandwidth", Obs_json.Float stats.ckpt_bandwidth);
      ("delta_steps", Obs_json.Float stats.delta_steps);
      ( "young",
        Obs_json.List
          (List.map
             (fun (rate, t_opt) ->
               Obs_json.Obj
                 [
                   ("rate", Obs_json.Float rate);
                   ("mtbf", Obs_json.Float (1. /. rate));
                   ("t_opt", Obs_json.Float t_opt);
                 ])
             stats.young) );
      ( "points",
        Obs_json.List
          (List.map
             (fun p ->
               Obs_json.Obj
                 [
                   ("vm", Obs_json.Str p.vm);
                   ("interval", Obs_json.Str (interval_name p.interval));
                   ("rate", Obs_json.Float p.rate);
                   ("faults", Obs_json.Int p.faults);
                   ("restores", Obs_json.Int p.restores);
                   ("link_retries", Obs_json.Int p.link_retries);
                   ("checkpoints", Obs_json.Int p.checkpoints);
                   ("ckpt_bytes", Obs_json.Int p.ckpt_bytes);
                   ("useful", Obs_json.Int p.useful);
                   ("wasted", Obs_json.Int p.wasted);
                   ("overhead_pct", Obs_json.Float p.overhead_pct);
                   ("recovered_pct", Obs_json.Float p.recovered_pct);
                   ("identical", Obs_json.Bool p.identical);
                 ])
             stats.points) );
    ]

let print stats =
  Printf.printf
    "Resilience: fib workload, z=%d; checkpoint cost modelled at %.0f bytes per \
     superstep (delta = %.3f supersteps per checkpoint)\n"
    stats.z stats.ckpt_bandwidth stats.delta_steps;
  Table.print_stdout
    ~header:
      [
        "vm"; "ckpt-int"; "rate"; "faults"; "restores"; "ckpts"; "bytes"; "useful";
        "wasted"; "ovh%"; "recov%"; "bitwise";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             p.vm;
             interval_name p.interval;
             Printf.sprintf "%.2f" p.rate;
             string_of_int p.faults;
             string_of_int p.restores;
             string_of_int p.checkpoints;
             string_of_int p.ckpt_bytes;
             string_of_int p.useful;
             string_of_int p.wasted;
             Printf.sprintf "%.2f" p.overhead_pct;
             Printf.sprintf "%.1f" p.recovered_pct;
             (if p.identical then "yes" else "NO");
           ])
         stats.points);
  match stats.young with
  | [] -> ()
  | young ->
    Printf.printf
      "Young's optimal interval (T = sqrt(2 * delta * MTBF), supersteps):\n";
    Table.print_stdout
      ~header:[ "fault rate"; "MTBF"; "T_opt" ]
      ~rows:
        (List.map
           (fun (rate, t_opt) ->
             [
               Printf.sprintf "%.3f" rate;
               Printf.sprintf "%.1f" (1. /. rate);
               Printf.sprintf "%.1f" t_opt;
             ])
           young)
