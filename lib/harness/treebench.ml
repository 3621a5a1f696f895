(* Decision-tree inference: pure control flow, no arithmetic to hide
   behind. A random binary tree of threshold tests elaborates through
   the handler DSL's [Eff.branch] into nested IR [If] statements; a
   batch of random inputs then takes a different path through the tree
   in every lane — the divergence-stress benchmark for the batching
   runtimes, gated bitwise against direct host evaluation. *)

type tree =
  | Leaf of float
  | Node of { feature : int; threshold : float; lo : tree; hi : tree }

let rec depth = function
  | Leaf _ -> 0
  | Node { lo; hi; _ } -> 1 + Stdlib.max (depth lo) (depth hi)

let rec leaves = function
  | Leaf _ -> 1
  | Node { lo; hi; _ } -> leaves lo + leaves hi

(* A random full tree: features and thresholds from the stream, leaf
   values distinct so path mix-ups cannot cancel. *)
let random_tree ?(seed = 0x73EEL) ~depth:d ~n_features () =
  if d < 1 then invalid_arg "Treebench.random_tree: depth must be positive";
  if n_features < 1 then
    invalid_arg "Treebench.random_tree: need at least one feature";
  let stream = Splitmix.Stream.create seed in
  let next_leaf = ref 0 in
  let rec build lvl =
    if lvl = 0 then begin
      incr next_leaf;
      Leaf (float_of_int !next_leaf +. (0.5 *. Splitmix.Stream.uniform stream))
    end
    else
      let feature = Splitmix.Stream.int_below stream n_features in
      let threshold = 2. *. (Splitmix.Stream.uniform stream -. 0.5) in
      let lo = build (lvl - 1) in
      let hi = build (lvl - 1) in
      Node { feature; threshold; lo; hi }
  in
  build d

let rec eval tree x =
  match tree with
  | Leaf v -> v
  | Node { feature; threshold; lo; hi } ->
    if x.(feature) < threshold then eval lo x else eval hi x

(* ---------- elaboration ---------- *)

(* (x : [n_features]) -> (value, __lp): every internal node becomes an
   [Eff.branch] — an IR If whose arms assign a shared fresh variable. *)
let elaborated ?(seed = 0x73EEL) ~n_features tree =
  Eff.run ~seed ~fn_name:"tree" ~mode:`Bind ~score:`None (fun () ->
      let open Lang in
      let open Lang.Infix in
      let x = Eff.param ~shape:[| n_features |] "x" in
      let rec go = function
        | Leaf v -> flt v
        | Node { feature; threshold; lo; hi } ->
          Eff.branch
            (prim "index" [ x; flt (float_of_int feature) ] < flt threshold)
            (fun () -> go lo)
            (fun () -> go hi)
      in
      [ go tree ])

(* ---------- the benchmark ---------- *)

type result = {
  depth : int;
  n_features : int;
  z : int;
  supersteps : int;  (** lane-pool basic blocks to drain the batch *)
  distinct_leaves : int;  (** paths actually taken by the batch *)
  bitwise : (string * bool) list;  (** pc/local/shard/lanes vs host *)
}

let run ?(seed = 0x73EEL) ?(depth = 6) ?(n_features = 8) ?(z = 64) () =
  let tree = random_tree ~seed ~depth ~n_features () in
  let el = elaborated ~seed ~n_features tree in
  let compiled =
    Autobatch.compile ~registry:el.Eff.el_registry
      ~input_shapes:(Eff.input_shapes el) el.Eff.el_program
  in
  let stream = Splitmix.Stream.create (Int64.add seed 9L) in
  let inputs =
    Array.init z (fun _ ->
        Array.init n_features (fun _ ->
            2. *. (Splitmix.Stream.uniform stream -. 0.5)))
  in
  let expected = Tensor.init [| z |] (fun i -> eval tree inputs.(i.(0))) in
  let distinct = Hashtbl.create 16 in
  Array.iter (fun x -> Hashtbl.replace distinct (eval tree x) ()) inputs;
  let batch =
    [ Tensor.init [| z; n_features |] (fun i -> inputs.(i.(0)).(i.(1))) ]
  in
  let value outs = List.hd outs in
  let check outs = Tensor.equal (value outs) expected in
  let pc = Autobatch.run_pc compiled ~batch in
  let local = Autobatch.run_local compiled ~batch in
  let shard =
    (Autobatch.run_sharded
       ~config:
         {
           Sched_vm.default_config with
           plan = Sched_plan.off;
           mesh = Mesh.gpu_pod ~n:2 ();
         }
       compiled ~batch)
      .Sched_vm.outputs
  in
  (* The lane pool exposes the superstep count: how many basic blocks
     the scheduler needed to drain all the divergent paths. *)
  let lanes =
    Pc_vm.Lanes.create el.Eff.el_registry compiled.Autobatch.stack ~z
  in
  Array.iteri
    (fun lane x ->
      Pc_vm.Lanes.load lanes ~lane ~member:lane
        ~inputs:[ Tensor.create [| n_features |] (Array.copy x) ])
    inputs;
  while Pc_vm.Lanes.step lanes do () done;
  let lane_vals =
    Tensor.init [| z |] (fun i ->
        Tensor.item (value (Pc_vm.Lanes.retire lanes ~lane:i.(0))))
  in
  {
    depth;
    n_features;
    z;
    supersteps = Pc_vm.Lanes.steps lanes;
    distinct_leaves = Hashtbl.length distinct;
    bitwise =
      [
        ("pc", check pc);
        ("local", check local);
        ("shard", check shard);
        ("lanes", Tensor.equal lane_vals expected);
      ];
  }

let passes r = r.distinct_leaves > 1 && List.for_all snd r.bitwise

let to_json r =
  Obs_json.Obj
    [
      ("depth", Obs_json.Int r.depth);
      ("n_features", Obs_json.Int r.n_features);
      ("z", Obs_json.Int r.z);
      ("supersteps", Obs_json.Int r.supersteps);
      ("distinct_leaves", Obs_json.Int r.distinct_leaves);
      ( "bitwise",
        Obs_json.Obj
          (List.map (fun (k, v) -> (k, Obs_json.Bool v)) r.bitwise) );
    ]

let print r =
  Format.printf "Decision tree: depth %d, %d features, batch %d@." r.depth
    r.n_features r.z;
  Format.printf "  %d distinct leaves taken; %d supersteps to drain@."
    r.distinct_leaves r.supersteps;
  List.iter
    (fun (arm, v) ->
      Format.printf "  bitwise vs host eval: %-6s %s@." arm
        (if v then "ok" else "MISMATCH"))
    r.bitwise
