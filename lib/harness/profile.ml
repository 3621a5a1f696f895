(* The `experiments profile` harness: run batched NUTS on a built-in
   target under the program-counter VM with the divergence profiler
   attached, and render hot-block tables, utilization accounting, and a
   folded-stacks flamegraph. *)

type result = {
  model_name : string;
  batch : int;
  n_iter : int;
  policy : Sched_policy.t;
  sim_seconds : float;
  wall : Obs_wall.sample;
  snapshot : Engine.snapshot;
  stack : Stack_ir.program;
  cfg : Cfg.program;
  fuse_report : Fuse.report option;
  prof : Obs_prof.t;
}

let known_models = Zoo.known
let resolve_model ~dim ~seed name = Zoo.resolve ~dim ~seed name

(* Canonical call stack per merged block, root-first, for the flamegraph.
   The stack program only remembers each block's source function
   ([Stack_ir.origin]); we rebuild a call path from the CFG callgraph by
   BFS from the entry, which yields the (a) shortest chain of direct
   calls reaching that function. Recursive programs simply reach the
   function once — the flamegraph shows self-time per function frame, not
   dynamic recursion depth, which is the right view for a merged-PC
   runtime where all recursion depths execute the same blocks. The leaf
   frame is ["fn#k"], the function-local block index, so sibling blocks
   of one function stay separate flame cells. *)
let flame_frames (stack : Stack_ir.program) (cfg : Cfg.program) =
  let cg = Callgraph.build cfg in
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  Hashtbl.replace parent cfg.Cfg.entry None;
  Queue.add cfg.Cfg.entry q;
  while not (Queue.is_empty q) do
    let f = Queue.pop q in
    Ir_util.Sset.iter
      (fun g ->
        if not (Hashtbl.mem parent g) then begin
          Hashtbl.replace parent g (Some f);
          Queue.add g q
        end)
      (Callgraph.callees cg f)
  done;
  let rec path f acc =
    match Hashtbl.find_opt parent f with
    | Some (Some p) -> path p (f :: acc)
    | Some None | None -> f :: acc
  in
  Array.map
    (fun (fn, local) ->
      Array.of_list (path fn [] @ [ Printf.sprintf "%s#%d" fn local ]))
    stack.Stack_ir.origin

(* Per-primitive and stack-traffic counts, derived rather than counted:
   every op of a block runs over the superstep's active set and is issued
   over its [width] lanes, so a primitive's lane totals are its static
   per-block op count weighted by the profiler's per-block lane sums. *)
type block_ops = { prims : string list; pushes : int; pops : int }
type op_table = block_ops array

let no_ops = { prims = []; pushes = 0; pops = 0 }

let pc_ops (stack : Stack_ir.program) =
  Array.map
    (fun (b : Stack_ir.block) ->
      List.fold_left
        (fun acc -> function
          | Stack_ir.Sprim { prim; _ } -> { acc with prims = prim :: acc.prims }
          | Stack_ir.Spush _ -> { acc with pushes = acc.pushes + 1 }
          | Stack_ir.Spop _ -> { acc with pops = acc.pops + 1 }
          | Stack_ir.Sconst _ | Stack_ir.Smov _ -> acc)
        no_ops b.Stack_ir.ops)
    stack.Stack_ir.blocks

(* Functions laid end to end in [funcs] order: the numbering of
   [Cfg.block_base], which is what Local_vm reports. *)
let local_ops (cfg : Cfg.program) =
  Array.concat
    (List.map
       (fun (_, (f : Cfg.func)) ->
         Array.map
           (fun (b : Cfg.block) ->
             let prim = function Cfg.Prim_op { prim; _ } -> Some prim | _ -> None in
             { no_ops with prims = List.filter_map prim b.Cfg.ops })
           f.Cfg.blocks)
       cfg.Cfg.funcs)

type lanes = { calls : int; useful : int; issued : int }
type derived = { prims : (string * lanes) list; pushes : int; pops : int }

let no_lanes = { calls = 0; useful = 0; issued = 0 }

let derive (ops : op_table) prof =
  let prims = Hashtbl.create 16 and pushes = ref 0 and pops = ref 0 in
  List.iter
    (fun (r : Obs_prof.block_row) ->
      if r.block >= 0 && r.block < Array.length ops then begin
        let b = ops.(r.block) in
        pushes := !pushes + (b.pushes * r.steps);
        pops := !pops + (b.pops * r.steps);
        List.iter
          (fun p ->
            let l = Option.value ~default:no_lanes (Hashtbl.find_opt prims p) in
            Hashtbl.replace prims p
              {
                calls = l.calls + r.steps;
                useful = l.useful + r.active_lanes;
                issued = l.issued + r.issued_lanes;
              })
          b.prims
      end)
    (Obs_prof.block_rows prof);
  {
    prims = List.sort compare (Hashtbl.fold (fun p l acc -> (p, l) :: acc) prims []);
    pushes = !pushes;
    pops = !pops;
  }

let prim (d : derived) name = Option.value ~default:no_lanes (List.assoc_opt name d.prims)

let lane_utilization l =
  if l.issued = 0 then 1. else float_of_int l.useful /. float_of_int l.issued

let run ?(dim = 10) ?(batch = 64) ?(n_iter = 2) ?(seed = 0x5EEDL) ?trace ?fuse
    ?(policy = Sched_policy.Earliest) ~model:model_name () =
  let model = resolve_model ~dim ~seed model_name in
  let reg, _key = Nuts_dsl.setup ~seed ~model () in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let prog = Nuts_dsl.program () in
  let compiled =
    Autobatch.compile ~registry:reg ?fuse
      ~input_shapes:(Nuts_dsl.input_shapes ~model)
      prog
  in
  let frames = flame_frames compiled.Autobatch.stack compiled.Autobatch.cfg in
  let prof = Obs_prof.create ~frames () in
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  (* The profiler (and optional trace) sink is installed both as the VM
     sink — Step/Occupancy — and as the engine sink — Launched spans —
     the same double wiring Figure5's tracing uses. *)
  let sinks =
    Obs_prof.sink prof
    ::
    (match trace with
    | None -> []
    | Some tr ->
      let track =
        Obs_trace.track tr (Printf.sprintf "profile/%s/z%d" model_name batch)
      in
      [ Obs_trace.sink tr ~track ~clock:(fun () -> Engine.elapsed engine) ])
  in
  let sink = match sinks with [ s ] -> s | sinks -> Obs_sink.fanout sinks in
  Engine.set_sink engine sink;
  let config =
    {
      Pc_vm.default_config with
      sched = policy;
      engine = Some engine;
      sink = Some sink;
    }
  in
  let _, wall =
    Obs_wall.time (fun () ->
        Autobatch.run_pc ~config compiled
          ~batch:(Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch ()))
  in
  {
    model_name;
    batch;
    n_iter;
    policy;
    sim_seconds = Engine.elapsed engine;
    wall;
    snapshot = Engine.snapshot engine;
    stack = compiled.Autobatch.stack;
    cfg = compiled.Autobatch.cfg;
    fuse_report = compiled.Autobatch.fuse;
    prof;
  }

let folded r = Obs_prof.folded r.prof

let origin_label (stack : Stack_ir.program) block =
  if block >= 0 && block < Array.length stack.Stack_ir.origin then
    let f, l = stack.Stack_ir.origin.(block) in
    Printf.sprintf "%s.%d" f l
  else "-"

let pct part whole = if whole = 0. then 0. else 100. *. part /. whole

let print ?(top = 12) r =
  let p = r.prof in
  Printf.printf
    "divergence profile: %s under NUTS, batch %d, %d trajectories, %s policy\n"
    r.model_name r.batch r.n_iter
    (Sched_policy.to_string r.policy);
  let attributed = Obs_prof.attributed p in
  Printf.printf
    "simulated time %.6fs; attributed %.6fs (blocks+kernels; residual \
     %.2e)\n"
    r.sim_seconds attributed
    (Float.abs (r.sim_seconds -. attributed));
  Printf.printf "host cost: %s\n" (Obs_wall.summary r.wall);
  Printf.printf
    "lane utilization %.3f (time-weighted %.3f): divergence waste %.3f, \
     drain waste %.3f over %d supersteps\n\n"
    (Obs_prof.utilization p)
    (Obs_prof.effective_utilization p)
    (Obs_prof.divergence_waste p)
    (Obs_prof.idle_waste p)
    (Obs_prof.supersteps p);
  let rows = Obs_prof.block_rows p in
  let shown = List.filteri (fun i _ -> i < top) rows in
  let cum = ref 0. in
  Table.print_stdout
    ~header:
      [ "block"; "origin"; "execs"; "act/z"; "util%"; "self-s"; "total%"; "cum%" ]
    ~rows:
      (List.map
         (fun (b : Obs_prof.block_row) ->
           cum := !cum +. b.charged;
           [
             string_of_int b.block;
             origin_label r.stack b.block;
             string_of_int b.execs;
             (if b.steps = 0 then "-"
              else
                Printf.sprintf "%.1f"
                  (float_of_int b.active_lanes /. float_of_int b.steps));
             (if b.total_lanes = 0 then "-"
              else
                Printf.sprintf "%.1f"
                  (100. *. float_of_int b.active_lanes
                  /. float_of_int b.total_lanes));
             Printf.sprintf "%.6f" b.charged;
             Printf.sprintf "%.1f" (pct b.charged r.sim_seconds);
             Printf.sprintf "%.1f" (pct !cum r.sim_seconds);
           ])
         shown);
  if List.length rows > top then
    Printf.printf "(%d more blocks below the top %d)\n"
      (List.length rows - top)
      top;
  (match Obs_prof.kernel_rows p with
  | [] -> ()
  | kernels ->
    print_newline ();
    Table.print_stdout
      ~header:[ "kernel"; "launches"; "self-s"; "total%" ]
      ~rows:
        (List.map
           (fun (k : Obs_prof.kernel_row) ->
             [
               k.kernel;
               string_of_int k.launches;
               Printf.sprintf "%.6f" k.charged;
               Printf.sprintf "%.1f" (pct k.charged r.sim_seconds);
             ])
           kernels));
  (match Obs_prof.collective_rows p with
  | [] -> ()
  | colls ->
    print_newline ();
    Table.print_stdout
      ~header:[ "collective"; "count"; "seconds"; "bytes" ]
      ~rows:
        (List.map
           (fun (c : Obs_prof.collective_row) ->
             [
               c.collective;
               string_of_int c.count;
               Printf.sprintf "%.6f" c.charged;
               Printf.sprintf "%.0f" c.bytes;
             ])
           colls))

let to_json r =
  Obs_json.Obj
    ([
       ("model", Obs_json.Str r.model_name);
       ("batch", Obs_json.Int r.batch);
       ("n_iter", Obs_json.Int r.n_iter);
       ("policy", Obs_json.Str (Sched_policy.to_string r.policy));
       ("sim_seconds", Obs_json.Float r.sim_seconds);
       ("wall", Obs_wall.to_json r.wall);
       ("engine", Engine.Counters.to_json r.snapshot.Engine.at);
       ( "op_counts",
         Obs_json.Obj
           (List.map
              (fun (fn, counts) ->
                ( fn,
                  Obs_json.List
                    (Array.to_list
                       (Array.map (fun c -> Obs_json.Int c) counts)) ))
              (Optimize.block_op_counts r.cfg)) );
       ("profile", Obs_prof.to_json r.prof);
     ]
    @
    match r.fuse_report with
    | None -> []
    | Some fr -> [ ("fuse", Fuse.to_json fr) ])

(* ------------------------------------------------------------------ *)
(* The compare readout: one row per run, deltas against the first
   (baseline) row. Shared by `experiments ... --compare-policies` and
   the `bench sched` gate, so the scoreboard and the gate agree on what
   "x× better utilization" means. *)

type view = {
  v_label : string;
  v_policy : string;
  v_sim_seconds : float;
  v_wall_s : float;
      (* host wall-clock; nondeterministic, so it stays out of
         [view_to_json] (committed bench baselines diff that output) *)
  v_utilization : float;
  v_effective : float;
  v_divergence_waste : float;
  v_idle_waste : float;
  v_supersteps : int;
  v_migrations : int;
  v_steals : int;
  v_migration_bytes : float;
}

let view_of_prof ?(label = "") ?(wall_s = 0.) ~policy ~sim_seconds prof =
  {
    v_label = label;
    v_policy = policy;
    v_sim_seconds = sim_seconds;
    v_wall_s = wall_s;
    v_utilization = Obs_prof.utilization prof;
    v_effective = Obs_prof.effective_utilization prof;
    v_divergence_waste = Obs_prof.divergence_waste prof;
    v_idle_waste = Obs_prof.idle_waste prof;
    v_supersteps = Obs_prof.supersteps prof;
    v_migrations = Obs_prof.migrations prof;
    v_steals = Obs_prof.steals prof;
    v_migration_bytes = Obs_prof.migration_bytes prof;
  }

let view ?(label = "") r =
  view_of_prof ~label ~wall_s:r.wall.Obs_wall.wall_s
    ~policy:(Sched_policy.to_string r.policy)
    ~sim_seconds:r.sim_seconds r.prof

let ratio num den = if den = 0. then 0. else num /. den

let print_compare views =
  match views with
  | [] -> ()
  | baseline :: _ ->
    Table.print_stdout
      ~header:
        [
          "run"; "policy"; "sim-s"; "speedup"; "util"; "eff-util"; "eff x";
          "div-waste"; "idle"; "migr"; "steals"; "wall";
        ]
      ~rows:
        (List.map
           (fun v ->
             [
               v.v_label;
               v.v_policy;
               Printf.sprintf "%.6f" v.v_sim_seconds;
               Printf.sprintf "%.2f" (ratio baseline.v_sim_seconds v.v_sim_seconds);
               Printf.sprintf "%.3f" v.v_utilization;
               Printf.sprintf "%.3f" v.v_effective;
               Printf.sprintf "%.2f" (ratio v.v_effective baseline.v_effective);
               Printf.sprintf "%.3f" v.v_divergence_waste;
               Printf.sprintf "%.3f" v.v_idle_waste;
               string_of_int v.v_migrations;
               string_of_int v.v_steals;
               Obs_wall.span_of_seconds v.v_wall_s;
             ])
           views)

let view_to_json v =
  Obs_json.Obj
    [
      ("label", Obs_json.Str v.v_label);
      ("policy", Obs_json.Str v.v_policy);
      ("sim_seconds", Obs_json.Float v.v_sim_seconds);
      ("utilization", Obs_json.Float v.v_utilization);
      ("effective_utilization", Obs_json.Float v.v_effective);
      ("divergence_waste", Obs_json.Float v.v_divergence_waste);
      ("idle_waste", Obs_json.Float v.v_idle_waste);
      ("supersteps", Obs_json.Int v.v_supersteps);
      ("migrations", Obs_json.Int v.v_migrations);
      ("steals", Obs_json.Int v.v_steals);
      ("migration_bytes", Obs_json.Float v.v_migration_bytes);
    ]

let compare_to_json views =
  Obs_json.Obj
    [
      ("runs", Obs_json.List (List.map view_to_json views));
      ( "baseline",
        match views with
        | [] -> Obs_json.Null
        | v :: _ -> Obs_json.Str v.v_label );
    ]
