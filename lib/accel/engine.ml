type mode = Eager | Fused | Hybrid

let mode_to_string = function
  | Eager -> "eager"
  | Fused -> "fused"
  | Hybrid -> "hybrid"

module Counters = struct
  type t = {
    kernel_launches : int;
    fused_launches : int;
    host_ops : int;
    host_calls : int;
    blocks : int;
    lane_refills : int;
    lane_retires : int;
    flops : float;
    traffic_bytes : float;
    elapsed_seconds : float;
  }

  let zero =
    {
      kernel_launches = 0;
      fused_launches = 0;
      host_ops = 0;
      host_calls = 0;
      blocks = 0;
      lane_refills = 0;
      lane_retires = 0;
      flops = 0.;
      traffic_bytes = 0.;
      elapsed_seconds = 0.;
    }

  let add a b =
    {
      kernel_launches = a.kernel_launches + b.kernel_launches;
      fused_launches = a.fused_launches + b.fused_launches;
      host_ops = a.host_ops + b.host_ops;
      host_calls = a.host_calls + b.host_calls;
      blocks = a.blocks + b.blocks;
      lane_refills = a.lane_refills + b.lane_refills;
      lane_retires = a.lane_retires + b.lane_retires;
      flops = a.flops +. b.flops;
      traffic_bytes = a.traffic_bytes +. b.traffic_bytes;
      elapsed_seconds = a.elapsed_seconds +. b.elapsed_seconds;
    }

  let pp ppf c =
    Format.fprintf ppf
      "@[<hov 2>kernels %d,@ fused %d,@ host-ops %d,@ host-calls %d,@ blocks %d,@ \
       %.3g flops,@ %.3g bytes,@ %.3gs@]"
      c.kernel_launches c.fused_launches c.host_ops c.host_calls c.blocks c.flops
      c.traffic_bytes c.elapsed_seconds

  let to_json c =
    Obs_json.Obj
      [
        ("kernel_launches", Obs_json.Int c.kernel_launches);
        ("fused_launches", Obs_json.Int c.fused_launches);
        ("host_ops", Obs_json.Int c.host_ops);
        ("host_calls", Obs_json.Int c.host_calls);
        ("blocks", Obs_json.Int c.blocks);
        ("lane_refills", Obs_json.Int c.lane_refills);
        ("lane_retires", Obs_json.Int c.lane_retires);
        ("flops", Obs_json.Float c.flops);
        ("traffic_bytes", Obs_json.Float c.traffic_bytes);
        ("elapsed_seconds", Obs_json.Float c.elapsed_seconds);
      ]
end

type counters = Counters.t

type state = {
  mutable kernel_launches : int;
  mutable fused_launches : int;
  mutable host_ops : int;
  mutable host_calls : int;
  mutable blocks : int;
  mutable lane_refills : int;
  mutable lane_retires : int;
  mutable flops : float;
  mutable traffic_bytes : float;
  mutable time : float;
}

(* The per-op tally is keyed by interned op ids: [ids] maps a name to its
   id and only grows, so an id (and every [priced] handle holding it) stays
   valid for the engine's lifetime, across [reset], [restore] and [merge].
   [counts] is indexed by id; [marked] records the ids a [restore] or
   [merge] wrote, which are tally entries even at count zero. *)
type t = {
  device : Device.t;
  mode : mode;
  st : state;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable counts : int array;
  mutable marked : bool array;
  mutable sink : Obs_sink.t option;
}

let create ~device ~mode () =
  {
    device;
    mode;
    sink = None;
    st =
      {
        kernel_launches = 0;
        fused_launches = 0;
        host_ops = 0;
        host_calls = 0;
        blocks = 0;
        lane_refills = 0;
        lane_retires = 0;
        flops = 0.;
        traffic_bytes = 0.;
        time = 0.;
      };
    ids = Hashtbl.create 64;
    names = [||];
    counts = [||];
    marked = [||];
  }

let device t = t.device
let mode t = t.mode

(* The shared observability/fault seam: tracing reads the [Launched] spans,
   the resilience layer poisons a launch by raising on [Launch]. Off by
   default, and the off path is a single match on [None]. *)
let set_sink t sink = t.sink <- Some sink
let clear_sink t = t.sink <- None

let emit t ev = match t.sink with None -> () | Some sink -> sink ev

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.ids in
    if id = Array.length t.names then begin
      let cap = max 16 (2 * id) in
      let grow a fill = Array.append a (Array.make (cap - id) fill) in
      t.names <- grow t.names "";
      t.counts <- grow t.counts 0;
      t.marked <- grow t.marked false
    end;
    t.names.(id) <- name;
    Hashtbl.add t.ids name id;
    id

let bump t id = t.counts.(id) <- t.counts.(id) + 1

let compute_time t flops = flops /. t.device.Device.flops_per_sec

let fused_compute_time t flops =
  flops /. (t.device.Device.flops_per_sec *. t.device.Device.fused_flops_multiplier)
let traffic_time t bytes = bytes /. t.device.Device.bytes_per_sec

(* The ratio of a host function call to a single host op dispatch: frame
   setup, argument marshalling, result unmarshalling. *)
let host_call_factor = 4.

(* Bookkeeping charges (traffic, refill/retire, host calls) emit a
   [Launched] span so profilers can attribute every simulated second, but
   no [Launch] fault point: they are host-side actions, not poisonable
   kernel launches, and fault-injection schedules must not shift when a
   profiler is watching. *)
let charge_span t ~name ~t0 =
  emit t (Obs_sink.Launched { kind = Obs_sink.Kernel; name; t0; t1 = t.st.time })

let charge_traffic t ~bytes =
  let t0 = t.st.time in
  t.st.traffic_bytes <- t.st.traffic_bytes +. bytes;
  t.st.time <- t.st.time +. traffic_time t bytes;
  charge_span t ~name:"transfer" ~t0

let charge_kernel t ~name ~flops =
  emit t (Obs_sink.Launch { kind = Obs_sink.Kernel; name });
  let t0 = t.st.time in
  bump t (intern t name);
  t.st.kernel_launches <- t.st.kernel_launches + 1;
  t.st.host_ops <- t.st.host_ops + 1;
  t.st.flops <- t.st.flops +. flops;
  t.st.time <-
    t.st.time
    +. t.device.Device.kernel_launch_overhead
    +. t.device.Device.host_op_overhead
    +. compute_time t flops;
  emit t (Obs_sink.Launched { kind = Obs_sink.Kernel; name; t0; t1 = t.st.time })

(* Lane recycling in the continuous-batching server: a refill writes the
   incoming request's input rows and a retire reads the finished lane's
   output rows, each dispatched from the host like any other small
   bookkeeping action. *)
let charge_refill t ~bytes =
  let t0 = t.st.time in
  t.st.lane_refills <- t.st.lane_refills + 1;
  t.st.host_ops <- t.st.host_ops + 1;
  t.st.traffic_bytes <- t.st.traffic_bytes +. bytes;
  t.st.time <- t.st.time +. t.device.Device.host_op_overhead +. traffic_time t bytes;
  charge_span t ~name:"lane-refill" ~t0

let charge_retire t ~bytes =
  let t0 = t.st.time in
  t.st.lane_retires <- t.st.lane_retires + 1;
  t.st.host_ops <- t.st.host_ops + 1;
  t.st.traffic_bytes <- t.st.traffic_bytes +. bytes;
  t.st.time <- t.st.time +. t.device.Device.host_op_overhead +. traffic_time t bytes;
  charge_span t ~name:"lane-retire" ~t0

(* A lane migration: one host dispatch moving [bytes] of lane state, plus
   [seconds] of link time the caller priced (Collectives.p2p_time for a
   cross-shard steal, 0. for an on-device defrag move whose copy cost is
   already in the device traffic term). No Counters field: the snapshot
   record is serialized field-by-field by the resilience codec, so
   migration counts live with the scheduler's own result instead. *)
let charge_transfer t ~name ~bytes ~seconds =
  let t0 = t.st.time in
  t.st.host_ops <- t.st.host_ops + 1;
  t.st.traffic_bytes <- t.st.traffic_bytes +. bytes;
  t.st.time <-
    t.st.time +. t.device.Device.host_op_overhead +. traffic_time t bytes
    +. seconds;
  charge_span t ~name ~t0

let charge_host_call t =
  let t0 = t.st.time in
  t.st.host_calls <- t.st.host_calls + 1;
  t.st.time <- t.st.time +. (host_call_factor *. t.device.Device.host_op_overhead);
  charge_span t ~name:"host-call" ~t0

let block_name = "block"

(* A block priced once for one engine: its op ids, its totals, and the
   time terms the charge adds. The terms are added to the clock one at a time,
   left to right, exactly as a per-call computation would, so a charge
   through a handle is bitwise the same as pricing the block afresh. *)
type priced = {
  owner : t;
  op_ids : int array;
  p_flops : float;
  p_control_ops : int;
  p_traffic_bytes : float;
  dispatch : float;  (* host-dispatched kernels: all of Eager's, Hybrid's control *)
  arithmetic : float;  (* unfused in Eager, fused otherwise *)
  traffic : float;
}

let price t ~ops ~flops ~control_ops ~traffic_bytes =
  let d = t.device in
  let op_ids = Array.of_list (List.map (intern t) ops) in
  let per_kernel = d.Device.kernel_launch_overhead +. d.Device.host_op_overhead in
  let dispatched, arithmetic =
    match t.mode with
    | Eager -> (Array.length op_ids + control_ops, compute_time t flops)
    | Fused | Hybrid -> (control_ops, fused_compute_time t flops)
  in
  {
    owner = t;
    op_ids;
    p_flops = flops;
    p_control_ops = control_ops;
    p_traffic_bytes = traffic_bytes;
    dispatch = float_of_int dispatched *. per_kernel;
    arithmetic;
    traffic = traffic_time t traffic_bytes;
  }

let charge_priced t p =
  if p.owner != t then invalid_arg "Engine.charge_priced: priced by another engine";
  emit t (Obs_sink.Launch { kind = Obs_sink.Fused_block; name = block_name });
  let t0 = t.st.time in
  let d = t.device in
  t.st.blocks <- t.st.blocks + 1;
  t.st.flops <- t.st.flops +. p.p_flops;
  let op_ids = p.op_ids in
  for k = 0 to Array.length op_ids - 1 do
    bump t op_ids.(k)
  done;
  t.st.traffic_bytes <- t.st.traffic_bytes +. p.p_traffic_bytes;
  begin
    match t.mode with
    | Eager ->
      (* Every primitive and every control action is its own kernel, each
         dispatched from the host language. *)
      let launches = Array.length op_ids + p.p_control_ops in
      t.st.kernel_launches <- t.st.kernel_launches + launches;
      t.st.host_ops <- t.st.host_ops + launches;
      t.st.time <- t.st.time +. p.dispatch +. p.arithmetic +. p.traffic
    | Fused ->
      (* One launch covers arithmetic, control and bookkeeping; fusion
         keeps intermediates on-chip. *)
      t.st.fused_launches <- t.st.fused_launches + 1;
      t.st.time <- t.st.time +. d.Device.fused_launch_overhead +. p.arithmetic +. p.traffic
    | Hybrid ->
      (* Block arithmetic is fused; control actions are dispatched from the
         host as individual small kernels. *)
      t.st.fused_launches <- t.st.fused_launches + 1;
      t.st.kernel_launches <- t.st.kernel_launches + p.p_control_ops;
      t.st.host_ops <- t.st.host_ops + p.p_control_ops;
      t.st.time <-
        t.st.time +. d.Device.fused_launch_overhead +. p.dispatch +. p.arithmetic
        +. p.traffic
  end;
  emit t
    (Obs_sink.Launched
       { kind = Obs_sink.Fused_block; name = block_name; t0; t1 = t.st.time })

let charge_block t ~ops ~control_ops ~traffic_bytes =
  charge_priced t
    (price t ~ops:(List.map fst ops)
       ~flops:(List.fold_left (fun acc (_, f) -> acc +. f) 0. ops)
       ~control_ops ~traffic_bytes)

let elapsed t = t.st.time

let clear_tally t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.marked 0 (Array.length t.marked) false

let reset t =
  t.st.kernel_launches <- 0;
  t.st.fused_launches <- 0;
  t.st.host_ops <- 0;
  t.st.host_calls <- 0;
  t.st.blocks <- 0;
  t.st.lane_refills <- 0;
  t.st.lane_retires <- 0;
  t.st.flops <- 0.;
  t.st.traffic_bytes <- 0.;
  t.st.time <- 0.;
  clear_tally t

let current t : Counters.t =
  {
    kernel_launches = t.st.kernel_launches;
    fused_launches = t.st.fused_launches;
    host_ops = t.st.host_ops;
    host_calls = t.st.host_calls;
    blocks = t.st.blocks;
    lane_refills = t.st.lane_refills;
    lane_retires = t.st.lane_retires;
    flops = t.st.flops;
    traffic_bytes = t.st.traffic_bytes;
    elapsed_seconds = t.st.time;
  }

type snapshot = { at : Counters.t; ops : (string * int) list }

(* Name order, so snapshots of equal states are structurally equal. A
   nonzero count is always in the tally; a zero one only if marked. *)
let tally t =
  let acc = ref [] in
  for id = Hashtbl.length t.ids - 1 downto 0 do
    if t.counts.(id) <> 0 || t.marked.(id) then acc := (t.names.(id), t.counts.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let snapshot t = { at = current t; ops = tally t }

let restore t (s : snapshot) =
  t.st.kernel_launches <- s.at.Counters.kernel_launches;
  t.st.fused_launches <- s.at.Counters.fused_launches;
  t.st.host_ops <- s.at.Counters.host_ops;
  t.st.host_calls <- s.at.Counters.host_calls;
  t.st.blocks <- s.at.Counters.blocks;
  t.st.lane_refills <- s.at.Counters.lane_refills;
  t.st.lane_retires <- s.at.Counters.lane_retires;
  t.st.flops <- s.at.Counters.flops;
  t.st.traffic_bytes <- s.at.Counters.traffic_bytes;
  t.st.time <- s.at.Counters.elapsed_seconds;
  clear_tally t;
  List.iter
    (fun (name, n) ->
      let id = intern t name in
      t.counts.(id) <- n;
      t.marked.(id) <- true)
    s.ops

let merge ~into:t (s : snapshot) =
  t.st.kernel_launches <- t.st.kernel_launches + s.at.Counters.kernel_launches;
  t.st.fused_launches <- t.st.fused_launches + s.at.Counters.fused_launches;
  t.st.host_ops <- t.st.host_ops + s.at.Counters.host_ops;
  t.st.host_calls <- t.st.host_calls + s.at.Counters.host_calls;
  t.st.blocks <- t.st.blocks + s.at.Counters.blocks;
  t.st.lane_refills <- t.st.lane_refills + s.at.Counters.lane_refills;
  t.st.lane_retires <- t.st.lane_retires + s.at.Counters.lane_retires;
  t.st.flops <- t.st.flops +. s.at.Counters.flops;
  t.st.traffic_bytes <- t.st.traffic_bytes +. s.at.Counters.traffic_bytes;
  t.st.time <- t.st.time +. s.at.Counters.elapsed_seconds;
  List.iter
    (fun (name, n) ->
      let id = intern t name in
      t.counts.(id) <- t.counts.(id) + n;
      t.marked.(id) <- true)
    s.ops
