(* The scheduling-policy sweep harness behind `bench sched` and the
   `--compare-policies` CLI flag: profiled per-policy runs, defragmenting
   Sched_vm arms, and the runtime × policy × plan bitwise matrix. *)

let policy_name = Sched_policy.to_string

(* One profiled program-counter run: profiler + fused-GPU engine wired
   exactly as Profile.run does it, so views are comparable across
   harnesses. *)
let profiled_pc ?label ~policy (compiled : Autobatch.compiled) ~batch =
  let prof = Obs_prof.create () in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let sink = Obs_prof.sink prof in
  Engine.set_sink engine sink;
  let config =
    {
      Pc_vm.default_config with
      sched = policy;
      engine = Some engine;
      sink = Some sink;
    }
  in
  let outputs = Autobatch.run_pc ~config compiled ~batch in
  let label = Option.value ~default:(policy_name policy) label in
  ( outputs,
    Profile.view_of_prof ~label ~policy:(policy_name policy)
      ~sim_seconds:(Engine.elapsed engine) prof )

let defrag_view ?label ?(policy = Sched_policy.Earliest)
    ?(plan = Sched_plan.default) ~shards ~lanes
    (compiled : Autobatch.compiled) ~batch () =
  let prof = Obs_prof.create () in
  let config =
    {
      Sched_vm.default_config with
      policy;
      plan;
      lanes;
      mesh = Mesh.gpu_pod ~n:shards ();
      mode = Some Engine.Fused;
      sink = Some (Obs_prof.sink prof);
    }
  in
  let r =
    Sched_vm.run ~config compiled.Autobatch.registry compiled.Autobatch.stack
      ~batch
  in
  let label =
    Option.value
      ~default:(Printf.sprintf "%s+defrag" (policy_name policy))
      label
  in
  ( r,
    Profile.view_of_prof ~label ~policy:(policy_name policy)
      ~sim_seconds:r.Sched_vm.sim_time prof )

(* ------------------------------------------------------------------ *)
(* The bitwise matrix *)

type check = {
  c_runtime : string;
  c_policy : string;
  c_plan : string;
  c_ok : bool;
}

let failures checks = List.filter (fun c -> not c.c_ok) checks

let default_plans =
  [ ("no-migration", Sched_plan.no_migration); ("aggressive", Sched_plan.aggressive) ]

let equal_outputs a b =
  List.length a = List.length b && List.for_all2 Tensor.equal a b

(* Serve each batch member as its own width-1 request (member = id) and
   reassemble completions in id order — the serving-runtime leg of the
   differential: one tenant on one shard of [lanes] lanes. *)
let run_server ~policy (compiled : Autobatch.compiled) ~lanes ~batch =
  let n = Vm_util.batch_size ~who:"Sched_sweep" batch in
  let tenant = Tenant.make ~id:0 ~name:"sched" () in
  let items =
    List.init n (fun id ->
        {
          Admission.tenant;
          request =
            Request.make ~id ~member:id ~program:compiled
              ~inputs:(List.map (fun t -> Tensor.take_rows t [| id |]) batch)
              ();
          digest = 0L;  (* one program: any fixed digest names it *)
        })
  in
  let config =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
      Tenant_server.lanes_per_shard = lanes;
      policy;
      admission = Admission.fifo ~depth:n ();
      preempt = false;
      checkpoint_interval = 0;
    }
  in
  let stats = Tenant_server.run ~config (Tenant_server.source_of_list items) in
  let id c = c.Tenant_server.c_item.Admission.request.Request.id in
  let by_id =
    List.sort (fun a b -> compare (id a) (id b)) stats.Tenant_server.completions
    |> List.map (fun c -> Option.get c.Tenant_server.c_outputs)
  in
  if List.length by_id <> n then invalid_arg "Sched_sweep: server lost requests";
  match by_id with
  | [] -> []
  | first :: _ ->
    List.mapi (fun j _ -> Tensor.concat_rows (List.map (fun outs -> List.nth outs j) by_id)) first

let bitwise_matrix ?(policies = Sched_policy.all) ?(plans = default_plans)
    ?(lanes = 4) ?(shards = 2)
    (compiled : Autobatch.compiled) ~batch =
  let baseline = Autobatch.run_pc compiled ~batch in
  let checks = ref [] in
  let check ~runtime ~policy ?(plan = "-") outputs =
    checks :=
      {
        c_runtime = runtime;
        c_policy = policy_name policy;
        c_plan = plan;
        c_ok = equal_outputs baseline outputs;
      }
      :: !checks
  in
  List.iter
    (fun policy ->
      check ~runtime:"pc" ~policy
        (Autobatch.run_pc
           ~config:{ Pc_vm.default_config with sched = policy }
           compiled ~batch);
      check ~runtime:"local" ~policy
        (Autobatch.run_local
           ~config:{ Local_vm.default_config with sched = policy }
           compiled ~batch);
      check ~runtime:"shard" ~policy
        (Autobatch.run_sharded
           ~config:
             {
               Sched_vm.default_config with
               policy;
               plan = Sched_plan.off;
               mesh = Mesh.gpu_pod ~n:shards ();
             }
           compiled ~batch)
          .Sched_vm.outputs;
      check ~runtime:"server" ~policy (run_server ~policy compiled ~lanes ~batch);
      List.iter
        (fun (plan_name, plan) ->
          let r =
            Sched_vm.run
              ~config:
                {
                  Sched_vm.default_config with
                  policy;
                  plan;
                  lanes;
                  mesh = Mesh.gpu_pod ~n:shards ();
                }
              compiled.Autobatch.registry compiled.Autobatch.stack ~batch
          in
          check ~runtime:"sched" ~policy ~plan:plan_name r.Sched_vm.outputs)
        plans)
    policies;
  List.rev !checks
