let magic = "ABRESIL1"

(* Version 2 added the trace context (ri_trace/ri_parent) to request
   images; version 3 dropped the instrument section of pc checkpoints. *)
let version = 3

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

let save_file path blob =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc blob)

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- Sections -------------------------------------------------------- *)

let w_shape b (s : Shape.t) = Codec.w_int_array b s
let r_shape r : Shape.t = Codec.r_int_array r

let w_stacked b (img : Stacked.image) =
  Codec.w_int b img.Stacked.i_z;
  w_shape b img.Stacked.i_elem;
  Codec.w_int_array b img.Stacked.i_sp;
  Codec.w_float_array b img.Stacked.i_frames;
  Codec.w_float_array b img.Stacked.i_top

let r_stacked r : Stacked.image =
  let i_z = Codec.r_int r in
  let i_elem = r_shape r in
  let i_sp = Codec.r_int_array r in
  let i_frames = Codec.r_float_array r in
  let i_top = Codec.r_float_array r in
  { Stacked.i_z; i_elem; i_sp; i_frames; i_top }

let w_pc b (img : Vm_image.pc) =
  Codec.w_int b img.Vm_image.pc_cap;
  Codec.w_int_array b img.Vm_image.pc_data;
  Codec.w_int_array b img.Vm_image.pc_sp;
  Codec.w_int_array b img.Vm_image.pc_top

let r_pc r : Vm_image.pc =
  let pc_cap = Codec.r_int r in
  let pc_data = Codec.r_int_array r in
  let pc_sp = Codec.r_int_array r in
  let pc_top = Codec.r_int_array r in
  { Vm_image.pc_cap; pc_data; pc_sp; pc_top }

let w_storage b = function
  | Vm_image.Reg (shape, data) ->
    Codec.w_int b 0;
    w_shape b shape;
    Codec.w_float_array b data
  | Vm_image.Msk (shape, data) ->
    Codec.w_int b 1;
    w_shape b shape;
    Codec.w_float_array b data
  | Vm_image.Stk img ->
    Codec.w_int b 2;
    w_stacked b img

let r_storage r =
  match Codec.r_int r with
  | 0 ->
    let shape = r_shape r in
    Vm_image.Reg (shape, Codec.r_float_array r)
  | 1 ->
    let shape = r_shape r in
    Vm_image.Msk (shape, Codec.r_float_array r)
  | 2 -> Vm_image.Stk (r_stacked r)
  | n -> Codec.corrupt "unknown storage class tag %d" n

let w_store b (store : Vm_image.store) =
  Codec.w_list
    (fun b (v, s) ->
      Codec.w_string b v;
      w_storage b s)
    b store

let r_store r : Vm_image.store =
  Codec.r_list
    (fun r ->
      let v = Codec.r_string r in
      (v, r_storage r))
    r

let w_lanes b (img : Pc_vm.Lanes.image) =
  Codec.w_int b img.Pc_vm.Lanes.li_z;
  Codec.w_int b img.Pc_vm.Lanes.li_steps;
  Codec.w_int b img.Pc_vm.Lanes.li_last;
  Codec.w_int_array b img.Pc_vm.Lanes.li_members;
  Codec.w_bool_array b img.Pc_vm.Lanes.li_occupied;
  w_pc b img.Pc_vm.Lanes.li_pc;
  w_store b img.Pc_vm.Lanes.li_store

let r_lanes r : Pc_vm.Lanes.image =
  let li_z = Codec.r_int r in
  let li_steps = Codec.r_int r in
  let li_last = Codec.r_int r in
  let li_members = Codec.r_int_array r in
  let li_occupied = Codec.r_bool_array r in
  let li_pc = r_pc r in
  let li_store = r_store r in
  { Pc_vm.Lanes.li_z; li_steps; li_last; li_members; li_occupied; li_pc; li_store }

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
