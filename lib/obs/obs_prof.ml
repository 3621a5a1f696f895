(* The divergence profiler: attribute the engine's simulated clock to
   blocks and kernels, and account for how much of each charged second
   actually ran useful lanes.

   Attribution works by context, not by payload: [Launched] spans carry
   only a kind and a name ("block" for every fused block), so the profiler
   remembers the most recent [Step]/[Occupancy] pair and charges the next
   fused-block span to that block. Every runtime emits a block's Step,
   Occupancy and engine spans back to back, pool after pool in a
   multi-shard run, so one context suffices. *)

type block_row = {
  block : int;
  execs : int;
  charged : float;
  effective : float;
  steps : int;
  active_lanes : int;
  live_lanes : int;
  total_lanes : int;
  issued_lanes : int;
}

type kernel_row = { kernel : string; launches : int; charged : float }

type collective_row = {
  collective : string;
  count : int;
  charged : float;
  bytes : float;
}

(* Mutable accumulator cells behind the public immutable rows. *)
type block_cell = {
  mutable b_execs : int;
  mutable b_charged : float;
  mutable b_effective : float;
  mutable b_steps : int;
  mutable b_active : int;
  mutable b_live : int;
  mutable b_total : int;
  mutable b_issued : int;
}

type kernel_cell = { mutable k_launches : int; mutable k_charged : float }

type collective_cell = {
  mutable c_count : int;
  mutable c_charged : float;
  mutable c_bytes : float;
}

(* The live-lane occupancy gauge: a bounded time series over supersteps
   in arrival order. Bucket [i] aggregates samples [i*width, (i+1)*width);
   when a sample falls past the last bucket, adjacent pairs merge and the
   width doubles, so the series always covers the whole run at bounded
   memory. *)
let gauge_buckets = 256

type gauge = {
  mutable width : int;  (* samples per bucket *)
  live_sum : int array;  (* per bucket: Σ live *)
  total_sum : int array;  (* per bucket: Σ total *)
}

type t = {
  frames : string array array;
  (* Attribution context: the block announced by the latest Step/Occupancy
     (-1 before the first one) and its lane counts. *)
  mutable cur_block : int;
  mutable cur_active : int;
  mutable cur_total : int;
  blocks : (int, block_cell) Hashtbl.t;
  kernels : (string, kernel_cell) Hashtbl.t;
  collectives : (string, collective_cell) Hashtbl.t;
  mutable supersteps : int;
  mutable max_depth : int;
  gauge : gauge;
  (* Lane-migration attribution: every [Migration] event, split into
     same-shard defragmentation moves and cross-shard steals. *)
  mutable migrations : int;
  mutable steals : int;
  mutable migration_bytes : float;
  (* Engine seconds rewound by restores, whose spans stay booked. *)
  mutable rolled_back : float;
}

let create ?(frames = [||]) () =
  {
    frames;
    cur_block = -1;
    cur_active = 0;
    cur_total = 0;
    blocks = Hashtbl.create 64;
    kernels = Hashtbl.create 16;
    collectives = Hashtbl.create 8;
    supersteps = 0;
    max_depth = 0;
    gauge =
      {
        width = 1;
        live_sum = Array.make gauge_buckets 0;
        total_sum = Array.make gauge_buckets 0;
      };
    migrations = 0;
    steals = 0;
    migration_bytes = 0.;
    rolled_back = 0.;
  }

let block_cell t block =
  match Hashtbl.find_opt t.blocks block with
  | Some c -> c
  | None ->
    let c =
      {
        b_execs = 0;
        b_charged = 0.;
        b_effective = 0.;
        b_steps = 0;
        b_active = 0;
        b_live = 0;
        b_total = 0;
        b_issued = 0;
      }
    in
    Hashtbl.add t.blocks block c;
    c

let kernel_cell t name =
  match Hashtbl.find_opt t.kernels name with
  | Some c -> c
  | None ->
    let c = { k_launches = 0; k_charged = 0. } in
    Hashtbl.add t.kernels name c;
    c

let collective_cell t name =
  match Hashtbl.find_opt t.collectives name with
  | Some c -> c
  | None ->
    let c = { c_count = 0; c_charged = 0.; c_bytes = 0. } in
    Hashtbl.add t.collectives name c;
    c

(* Add sample number [k] (0-based). *)
let gauge_add g ~k ~live ~total =
  if k / g.width = gauge_buckets then begin
    let half = gauge_buckets / 2 in
    for i = 0 to half - 1 do
      g.live_sum.(i) <- g.live_sum.(2 * i) + g.live_sum.((2 * i) + 1);
      g.total_sum.(i) <- g.total_sum.(2 * i) + g.total_sum.((2 * i) + 1)
    done;
    Array.fill g.live_sum half half 0;
    Array.fill g.total_sum half half 0;
    g.width <- g.width * 2
  end;
  let i = k / g.width in
  g.live_sum.(i) <- g.live_sum.(i) + live;
  g.total_sum.(i) <- g.total_sum.(i) + total

let sink t : Obs_sink.t =
 fun ev ->
  match ev with
  | Obs_sink.Step { block; _ } -> t.cur_block <- block
  | Obs_sink.Occupancy { block; active; live; total; width; depth; _ } ->
    t.cur_block <- block;
    t.cur_active <- active;
    t.cur_total <- total;
    t.supersteps <- t.supersteps + 1;
    if depth > t.max_depth then t.max_depth <- depth;
    gauge_add t.gauge ~k:(t.supersteps - 1) ~live ~total;
    let c = block_cell t block in
    c.b_steps <- c.b_steps + 1;
    c.b_active <- c.b_active + active;
    c.b_live <- c.b_live + live;
    c.b_total <- c.b_total + total;
    c.b_issued <- c.b_issued + width
  | Obs_sink.Launched { kind = Obs_sink.Fused_block; t0; t1; _ } ->
    (* A span with no block context is not booked, so it shows up as a
       shortfall of [attributed] against the engine clock. *)
    if t.cur_block >= 0 then begin
      let dur = t1 -. t0 in
      let c = block_cell t t.cur_block in
      c.b_execs <- c.b_execs + 1;
      c.b_charged <- c.b_charged +. dur;
      c.b_effective <-
        c.b_effective
        +.
        if t.cur_total > 0 then
          dur *. float_of_int t.cur_active /. float_of_int t.cur_total
        else dur
    end
  | Obs_sink.Launched { kind = Obs_sink.Kernel; name; t0; t1 } ->
    let c = kernel_cell t name in
    c.k_launches <- c.k_launches + 1;
    c.k_charged <- c.k_charged +. (t1 -. t0)
  | Obs_sink.Collective { name; bytes; t0; t1 } ->
    (* Collectives live on the mesh timeline, not a single engine's clock:
       they do not count toward engine conservation. *)
    let c = collective_cell t name in
    c.c_count <- c.c_count + 1;
    c.c_charged <- c.c_charged +. (t1 -. t0);
    c.c_bytes <- c.c_bytes +. bytes
  | Obs_sink.Migration { src_shard; dst_shard; bytes; _ } ->
    t.migrations <- t.migrations + 1;
    if src_shard <> dst_shard then t.steals <- t.steals + 1;
    t.migration_bytes <- t.migration_bytes +. bytes
  | Obs_sink.Restore { rolled_back; _ } -> t.rolled_back <- t.rolled_back +. rolled_back
  | Obs_sink.Launch _ | Obs_sink.Request_enqueued _ | Obs_sink.Request_shed _
  | Obs_sink.Request_rejected _ | Obs_sink.Request_completed _
  | Obs_sink.Checkpoint _ | Obs_sink.Span _
  | Obs_sink.Ladder _ | Obs_sink.Slo_alert _ | Obs_sink.Round _ ->
    ()

(* ------------------------------------------------------------------ *)
(* Readout. *)

let block_rows t =
  Hashtbl.fold
    (fun block c acc ->
      {
        block;
        execs = c.b_execs;
        charged = c.b_charged;
        effective = c.b_effective;
        steps = c.b_steps;
        active_lanes = c.b_active;
        live_lanes = c.b_live;
        total_lanes = c.b_total;
        issued_lanes = c.b_issued;
      }
      :: acc)
    t.blocks []
  |> List.sort (fun (a : block_row) (b : block_row) ->
         match compare b.charged a.charged with
         | 0 -> compare a.block b.block
         | c -> c)

let kernel_rows t =
  Hashtbl.fold
    (fun kernel c acc ->
      { kernel; launches = c.k_launches; charged = c.k_charged } :: acc)
    t.kernels []
  |> List.sort (fun (a : kernel_row) (b : kernel_row) ->
         match compare b.charged a.charged with
         | 0 -> compare a.kernel b.kernel
         | c -> c)

let collective_rows t =
  Hashtbl.fold
    (fun collective c acc ->
      {
        collective;
        count = c.c_count;
        charged = c.c_charged;
        bytes = c.c_bytes;
      }
      :: acc)
    t.collectives []
  |> List.sort (fun a b ->
         match compare b.charged a.charged with
         | 0 -> compare a.collective b.collective
         | c -> c)

let migrations t = t.migrations
let steals t = t.steals
let migration_bytes t = t.migration_bytes
let supersteps t = t.supersteps
let max_depth t = t.max_depth
let rolled_back t = t.rolled_back

let occupancy_series t =
  let g = t.gauge in
  List.init ((t.supersteps + g.width - 1) / g.width) (fun i ->
      let occ =
        if g.total_sum.(i) = 0 then 0.
        else float_of_int g.live_sum.(i) /. float_of_int g.total_sum.(i)
      in
      (i * g.width, occ))

let collective_time t =
  List.fold_left
    (fun acc (r : collective_row) -> acc +. r.charged)
    0. (collective_rows t)

let attributed t =
  let blocks =
    List.fold_left
      (fun acc (r : block_row) -> acc +. r.charged)
      0. (block_rows t)
  and kernels =
    List.fold_left
      (fun acc (r : kernel_row) -> acc +. r.charged)
      0. (kernel_rows t)
  in
  blocks +. kernels

let lane_sums t =
  List.fold_left
    (fun (a, l, z) (r : block_row) ->
      (a + r.active_lanes, l + r.live_lanes, z + r.total_lanes))
    (0, 0, 0) (block_rows t)

let utilization t =
  let a, _, z = lane_sums t in
  if z = 0 then 1. else float_of_int a /. float_of_int z

let mean_occupancy t =
  let _, l, z = lane_sums t in
  if z = 0 then 1. else float_of_int l /. float_of_int z

let divergence_waste t =
  let a, l, z = lane_sums t in
  if z = 0 then 0. else float_of_int (l - a) /. float_of_int z

let idle_waste t =
  let _, l, z = lane_sums t in
  if z = 0 then 0. else float_of_int (z - l) /. float_of_int z

let effective_utilization t =
  let rows = block_rows t in
  let charged =
    List.fold_left (fun acc (r : block_row) -> acc +. r.charged) 0. rows
  and effective =
    List.fold_left (fun acc (r : block_row) -> acc +. r.effective) 0. rows
  in
  if charged = 0. then 1. else effective /. charged

(* ------------------------------------------------------------------ *)
(* Folded-stacks export (flamegraph.pl format: one "frame;frame;... N"
   line per stack, weight in integer nanoseconds of simulated time). *)

let frame_of t block =
  if block >= 0 && block < Array.length t.frames
     && Array.length t.frames.(block) > 0
  then String.concat ";" (Array.to_list t.frames.(block))
  else Printf.sprintf "block_%d" block

let folded t =
  let ns seconds = int_of_float (Float.round (seconds *. 1e9)) in
  (* Distinct merged blocks can share a frame stack (same source function
     and local index inlined at several merge points); aggregate them, as
     flamegraph.pl would, so each stack appears once. *)
  let weights : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let add stack seconds =
    match Hashtbl.find_opt weights stack with
    | Some cell -> cell := !cell +. seconds
    | None -> Hashtbl.add weights stack (ref seconds)
  in
  List.iter
    (fun (r : block_row) -> add (frame_of t r.block) r.charged)
    (block_rows t);
  List.iter
    (fun (r : kernel_row) ->
      add (Printf.sprintf "(kernel);%s" r.kernel) r.charged)
    (kernel_rows t);
  List.iter
    (fun (r : collective_row) ->
      add (Printf.sprintf "(collective);%s" r.collective) r.charged)
    (collective_rows t);
  let lines =
    Hashtbl.fold
      (fun stack w acc ->
        let n = ns !w in
        if n > 0 then Printf.sprintf "%s %d" stack n :: acc else acc)
      weights []
    |> List.sort compare
  in
  String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* ------------------------------------------------------------------ *)
(* JSON document. *)

let to_json t =
  let blocks =
    List.map
      (fun r ->
        Obs_json.Obj
          [
            ("block", Obs_json.Int r.block);
            ("execs", Obs_json.Int r.execs);
            ("charged_seconds", Obs_json.Float r.charged);
            ("effective_seconds", Obs_json.Float r.effective);
            ("steps", Obs_json.Int r.steps);
            ("active_lanes", Obs_json.Int r.active_lanes);
            ("live_lanes", Obs_json.Int r.live_lanes);
            ("total_lanes", Obs_json.Int r.total_lanes);
          ])
      (block_rows t)
  and kernels =
    List.map
      (fun r ->
        Obs_json.Obj
          [
            ("kernel", Obs_json.Str r.kernel);
            ("launches", Obs_json.Int r.launches);
            ("charged_seconds", Obs_json.Float r.charged);
          ])
      (kernel_rows t)
  and collectives =
    List.map
      (fun r ->
        Obs_json.Obj
          [
            ("collective", Obs_json.Str r.collective);
            ("count", Obs_json.Int r.count);
            ("charged_seconds", Obs_json.Float r.charged);
            ("bytes", Obs_json.Float r.bytes);
          ])
      (collective_rows t)
  in
  Obs_json.Obj
    [
      ("supersteps", Obs_json.Int (supersteps t));
      ("attributed_seconds", Obs_json.Float (attributed t));
      ("collective_seconds", Obs_json.Float (collective_time t));
      ("utilization", Obs_json.Float (utilization t));
      ("effective_utilization", Obs_json.Float (effective_utilization t));
      ("divergence_waste", Obs_json.Float (divergence_waste t));
      ("idle_waste", Obs_json.Float (idle_waste t));
      ("migrations", Obs_json.Int (migrations t));
      ("steals", Obs_json.Int (steals t));
      ("migration_bytes", Obs_json.Float (migration_bytes t));
      ("blocks", Obs_json.List blocks);
      ("kernels", Obs_json.List kernels);
      ("collectives", Obs_json.List collectives);
    ]
