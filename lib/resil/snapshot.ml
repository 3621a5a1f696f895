let magic = "ABRESIL1"

(* Version 2 added the trace context (ri_trace/ri_parent) to request
   images; version 3 dropped the instrument section of pc checkpoints;
   version 4 stores a lane pool as its occupied lanes' states; version 5
   writes a lane's pc as a stacked column, its block indices as float
   bits. *)
let version = 5

(* ---- Envelope -------------------------------------------------------- *)

let encode ~kind write =
  let payload =
    let b = Buffer.create 4096 in
    write b;
    Buffer.contents b
  in
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Codec.w_int b version;
  Codec.w_string b kind;
  Codec.w_string b payload;
  let sum = Codec.fnv1a64 (Buffer.contents b) in
  Codec.w_i64 b sum;
  Buffer.contents b

let decode ~kind blob read =
  let n = String.length blob in
  if n < String.length magic + 8 then
    Codec.corrupt "snapshot too short (%d bytes) to be an autobatch snapshot" n;
  if String.sub blob 0 (String.length magic) <> magic then
    Codec.corrupt "bad magic %S: not an autobatch snapshot"
      (String.sub blob 0 (String.length magic));
  (* Verify integrity before trusting any length field. *)
  let body = String.sub blob 0 (n - 8) in
  let declared = String.get_int64_le blob (n - 8) in
  let actual = Codec.fnv1a64 body in
  if declared <> actual then
    Codec.corrupt "checksum mismatch (stored %Lx, computed %Lx): snapshot is corrupted"
      declared actual;
  let r = Codec.reader body in
  Codec.skip r (String.length magic);
  let v = Codec.r_int r in
  if v <> version then
    Codec.corrupt "unsupported snapshot version %d (this build reads version %d)" v
      version;
  let k = Codec.r_string r in
  if k <> kind then Codec.corrupt "snapshot kind %S, expected %S" k kind;
  let payload = Codec.r_string r in
  if Codec.remaining r <> 0 then
    Codec.corrupt "%d trailing bytes after the payload" (Codec.remaining r);
  let pr = Codec.reader payload in
  let x = read pr in
  if Codec.remaining pr <> 0 then
    Codec.corrupt "%d undecoded payload bytes" (Codec.remaining pr);
  x

(* ---- Sections -------------------------------------------------------- *)

let w_shape b (s : Shape.t) = Codec.w_int_array b s
let r_shape r : Shape.t = Codec.r_int_array r

let class_tag = function Var_class.Temp -> 0 | Var_class.Masked -> 1 | Var_class.Stacked -> 2

let w_lane_var b (lv : Pc_vm.Lanes.lane_var) =
  Codec.w_string b lv.Pc_vm.Lanes.lv_name;
  Codec.w_int b (class_tag lv.Pc_vm.Lanes.lv_class);
  w_shape b lv.Pc_vm.Lanes.lv_elem

let r_lane_var r : Pc_vm.Lanes.lane_var =
  let lv_name = Codec.r_string r in
  let lv_class =
    match Codec.r_int r with
    | 0 -> Var_class.Temp
    | 1 -> Var_class.Masked
    | 2 -> Var_class.Stacked
    | n -> Codec.corrupt "variable %s: unknown storage class tag %d" lv_name n
  in
  { Pc_vm.Lanes.lv_name; lv_class; lv_elem = r_shape r }

(* A lane state carries no names, shapes or lengths: the pool's variable
   list, written once, fixes how many floats its rows and each stacked
   column's frames and top hold (one each for the pc column). *)
let w_floats b a = Array.iter (Codec.w_float b) a

let r_floats r n =
  if Codec.remaining r < 8 * n then Codec.corrupt "truncated lane at byte %d" r.Codec.pos;
  Array.init n (fun _ -> Codec.r_float r)

(* One stack column, the pc's or a stacked variable's: its depth, its
   saved frames, then its top row. *)
let w_column b (l : Stacked.lane) =
  Codec.w_int b l.Stacked.l_sp;
  w_floats b l.Stacked.l_frames;
  w_floats b l.Stacked.l_top

let r_column r ~owner elem =
  let row = Shape.numel elem in
  let l_sp = Codec.r_int r in
  if l_sp < 0 || (row > 0 && l_sp > Codec.remaining r / (8 * row)) then
    Codec.corrupt "%s: implausible stack depth %d" owner l_sp;
  let l_frames = r_floats r (l_sp * row) in
  { Stacked.l_elem = elem; l_sp; l_frames; l_top = r_floats r row }

let w_lane_state vars b (st : Pc_vm.Lanes.lane_state) =
  if st.Pc_vm.Lanes.ls_vars != vars && st.Pc_vm.Lanes.ls_vars <> vars then
    invalid_arg "Snapshot.w_lane_state: variables disagree with the pool";
  Codec.w_int b st.Pc_vm.Lanes.ls_member;
  w_column b st.Pc_vm.Lanes.ls_pc;
  w_floats b st.Pc_vm.Lanes.ls_rows;
  Array.iter (w_column b) st.Pc_vm.Lanes.ls_stacks

let r_lane_state vars r : Pc_vm.Lanes.lane_state =
  let ls_member = Codec.r_int r in
  let ls_pc = r_column r ~owner:"the pc" Shape.scalar in
  let is_stacked (lv : Pc_vm.Lanes.lane_var) = lv.Pc_vm.Lanes.lv_class = Var_class.Stacked in
  let width =
    Array.fold_left
      (fun n lv -> if is_stacked lv then n else n + Shape.numel lv.Pc_vm.Lanes.lv_elem)
      0 vars
  in
  let ls_rows = r_floats r width in
  let column (lv : Pc_vm.Lanes.lane_var) =
    r_column r ~owner:("variable " ^ lv.Pc_vm.Lanes.lv_name) lv.Pc_vm.Lanes.lv_elem
  in
  let ls_stacks = Array.map column (Array.of_list (List.filter is_stacked (Array.to_list vars))) in
  {
    Pc_vm.Lanes.ls_member;
    ls_pc;
    ls_vars = vars;
    ls_rows;
    ls_stacks;
  }

let w_lanes b (img : Pc_vm.Lanes.image) =
  let vars = img.Pc_vm.Lanes.li_vars in
  Codec.w_int b img.Pc_vm.Lanes.li_steps;
  Codec.w_int b img.Pc_vm.Lanes.li_last;
  Codec.w_int_array b img.Pc_vm.Lanes.li_members;
  Codec.w_list w_lane_var b (Array.to_list vars);
  Array.iter (Codec.w_option (w_lane_state vars) b) img.Pc_vm.Lanes.li_lanes

let r_lanes r : Pc_vm.Lanes.image =
  let li_steps = Codec.r_int r in
  let li_last = Codec.r_int r in
  let li_members = Codec.r_int_array r in
  let li_vars = Array.of_list (Codec.r_list r_lane_var r) in
  let li_lanes =
    Array.init (Array.length li_members) (fun _ ->
        Codec.r_option (r_lane_state li_vars) r)
  in
  { Pc_vm.Lanes.li_steps; li_last; li_members; li_vars; li_lanes }

let w_counters b (c : Engine.Counters.t) =
  Codec.w_int b c.Engine.Counters.kernel_launches;
  Codec.w_int b c.Engine.Counters.fused_launches;
  Codec.w_int b c.Engine.Counters.host_ops;
  Codec.w_int b c.Engine.Counters.host_calls;
  Codec.w_int b c.Engine.Counters.blocks;
  Codec.w_int b c.Engine.Counters.lane_refills;
  Codec.w_int b c.Engine.Counters.lane_retires;
  Codec.w_float b c.Engine.Counters.flops;
  Codec.w_float b c.Engine.Counters.traffic_bytes;
  Codec.w_float b c.Engine.Counters.elapsed_seconds

let r_counters r : Engine.Counters.t =
  let kernel_launches = Codec.r_int r in
  let fused_launches = Codec.r_int r in
  let host_ops = Codec.r_int r in
  let host_calls = Codec.r_int r in
  let blocks = Codec.r_int r in
  let lane_refills = Codec.r_int r in
  let lane_retires = Codec.r_int r in
  let flops = Codec.r_float r in
  let traffic_bytes = Codec.r_float r in
  let elapsed_seconds = Codec.r_float r in
  {
    Engine.Counters.kernel_launches;
    fused_launches;
    host_ops;
    host_calls;
    blocks;
    lane_refills;
    lane_retires;
    flops;
    traffic_bytes;
    elapsed_seconds;
  }

let w_engine b (s : Engine.snapshot) =
  w_counters b s.Engine.at;
  Codec.w_list
    (fun b (name, n) ->
      Codec.w_string b name;
      Codec.w_int b n)
    b s.Engine.ops

let r_engine r : Engine.snapshot =
  let at = r_counters r in
  let ops =
    Codec.r_list
      (fun r ->
        let name = Codec.r_string r in
        (name, Codec.r_int r))
      r
  in
  { Engine.at; ops }

(* ---- Top-level snapshot kinds ---------------------------------------- *)

(* A full single-VM checkpoint: the VM plus the engine's cost state, so a
   recovered run reports true cumulative cost. *)
type 'vm checkpoint = { ck_vm : 'vm; ck_engine : Engine.snapshot option }

let w_checkpoint w_vm b ck =
  w_vm b ck.ck_vm;
  Codec.w_option w_engine b ck.ck_engine

let r_checkpoint r_vm r =
  let ck_vm = r_vm r in
  let ck_engine = Codec.r_option r_engine r in
  { ck_vm; ck_engine }

let pc_kind = "pc-vm-checkpoint"
let encode_pc ck = encode ~kind:pc_kind (fun b -> w_checkpoint w_lanes b ck)
let decode_pc blob = decode ~kind:pc_kind blob (r_checkpoint r_lanes)

let shard_kind = "shard-checkpoint"

let encode_shards shards =
  encode ~kind:shard_kind (fun b ->
      Codec.w_int b (Array.length shards);
      Array.iter (w_lanes b) shards)

let decode_shards blob =
  decode ~kind:shard_kind blob (fun r ->
      let n = Codec.r_int r in
      if n < 0 || Codec.remaining r < n then
        Codec.corrupt "implausible shard count %d" n;
      Array.init n (fun _ -> r_lanes r))
