type config = {
  sched : Sched_policy.t;
  engine : Engine.t option;
  max_steps : int;
  top_cache : bool;
  naive_stack_writes : bool;
  member_base : int;
  sink : Obs_sink.t option;
}

let default_config =
  {
    sched = Sched_policy.Earliest;
    engine = None;
    max_steps = 100_000_000;
    top_cache = true;
    naive_stack_writes = false;
    member_base = 0;
    sink = None;
  }

(* The program-counter stack: same layout as Stacked but over ints. *)
module Pc_stack = struct
  type t = {
    z : int;
    mutable cap : int;
    mutable data : int array;
    sp : int array;
    top : int array;
    mutable high : int;  (* deepest sp any push has reached *)
  }

  let create ~z ~bottom ~start ~initial_depth =
    let cap = max 1 initial_depth in
    let t =
      { z; cap; data = Array.make (cap * z) 0; sp = Array.make z 1;
        top = Array.make z start; high = 0 }
    in
    for b = 0 to z - 1 do
      t.data.(b) <- bottom
    done;
    t

  let grow t =
    let cap' = t.cap * 2 in
    let data' = Array.make (cap' * t.z) 0 in
    Array.blit t.data 0 data' 0 (t.cap * t.z);
    t.cap <- cap';
    t.data <- data'

  let push t ~mask =
    let need = ref 0 in
    Array.iteri (fun b m -> if m && t.sp.(b) >= !need then need := t.sp.(b) + 1) mask;
    while !need > t.cap do
      grow t
    done;
    if !need > t.high then t.high <- !need;
    Array.iteri
      (fun b m ->
        if m then begin
          t.data.((t.sp.(b) * t.z) + b) <- t.top.(b);
          t.sp.(b) <- t.sp.(b) + 1
        end)
      mask

  let pop t ~mask =
    Array.iteri
      (fun b m ->
        if m then begin
          if t.sp.(b) = 0 then
            invalid_arg (Printf.sprintf "Pc_vm: pc stack underflow for member %d" b);
          t.sp.(b) <- t.sp.(b) - 1;
          t.top.(b) <- t.data.((t.sp.(b) * t.z) + b)
        end)
      mask

  let set_top_masked t ~mask v =
    Array.iteri (fun b m -> if m then t.top.(b) <- v) mask

  let reset_lane t ~lane ~bottom ~start =
    if lane < 0 || lane >= t.z then invalid_arg "Pc_stack.reset_lane: lane out of range";
    t.sp.(lane) <- 1;
    t.data.(lane) <- bottom;
    t.top.(lane) <- start

  (* One member's pc column: stack entries below sp (bottom first, the
     halt sentinel included) plus the cached top. *)
  type lane = { pl_sp : int; pl_stack : int array; pl_top : int }

  let capture_lane t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_stack.capture_lane: lane out of range";
    {
      pl_sp = t.sp.(lane);
      pl_stack = Array.init t.sp.(lane) (fun d -> t.data.((d * t.z) + lane));
      pl_top = t.top.(lane);
    }

  let restore_lane t ~lane l =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_stack.restore_lane: lane out of range";
    while l.pl_sp > t.cap do
      grow t
    done;
    t.sp.(lane) <- l.pl_sp;
    Array.iteri (fun d v -> t.data.((d * t.z) + lane) <- v) l.pl_stack;
    t.top.(lane) <- l.pl_top

  let capture t =
    {
      Vm_image.pc_cap = t.cap;
      pc_data = Array.copy t.data;
      pc_sp = Array.copy t.sp;
      pc_top = Array.copy t.top;
    }

  let restore t (img : Vm_image.pc) =
    if Array.length img.Vm_image.pc_sp <> t.z then
      invalid_arg "Pc_stack.restore: batch size mismatch";
    if Array.length img.Vm_image.pc_data <> img.Vm_image.pc_cap * t.z then
      invalid_arg "Pc_stack.restore: pc data length disagrees with capacity";
    t.cap <- img.Vm_image.pc_cap;
    t.data <- Array.copy img.Vm_image.pc_data;
    Array.blit img.Vm_image.pc_sp 0 t.sp 0 t.z;
    Array.blit img.Vm_image.pc_top 0 t.top 0 t.z
end

(* One variable's storage. A slot stays [None] until its first write
   when the program was compiled without input shapes (lazy allocation). *)
type storage = Reg of Tensor.t | Msk of Tensor.t | Stk of Stacked.t

let storage_elem = function
  | Reg r | Msk r -> Vm_util.elem_shape_of_batched r
  | Stk s -> Stacked.elem s

(* Initial capacity of the pc stack and of every variable stack. *)
let initial_depth = 4

(* On a masked superstep, a primitive op computes only the active rows
   when its flops per row are at least this multiple of the elements it
   moves per row (arguments plus result): below it, gathering and
   scattering the rows costs about what the skipped rows would. *)
let gather_ratio = 16.

let batch_size batch =
  match batch with
  | [] -> invalid_arg "Pc_vm: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Pc_vm: inputs must carry a leading batch dimension";
    let z = (Tensor.shape first).(0) in
    List.iter
      (fun t ->
        if Tensor.rank t = 0 || (Tensor.shape t).(0) <> z then
          invalid_arg "Pc_vm: inputs disagree on the batch dimension")
      batch;
    z

(* A variable's slot: its index in the sorted [names], by binary search. *)
let slot_of names v =
  let rec go lo hi =
    if lo >= hi then invalid_arg (Printf.sprintf "Pc_vm: unknown variable %s" v);
    let mid = (lo + hi) / 2 in
    let c = compare v names.(mid) in
    if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length names)

(* How a primitive op runs on the host when some lanes are masked off:
   on every row, or on the active rows only. The engine prices full
   width either way. *)
type rows = Undecided | All_rows | Active_rows

(* A block with its variables resolved to slots, its primitives looked up
   and its constants broadcast to the pool's width. [cond] is the slot of
   the terminator's branch condition, if it has one. *)
type op =
  | Prim of { dst : int; args : int list; impl : Prim.t; mutable rows : rows }
  | Const of { dst : int; value : Tensor.t }
  | Mov of { dst : int; src : int }
  | Push of int
  | Pop of int

type block = { ops : op array; term : Stack_ir.terminator; cond : int }

let resolve names reg ~z (b : Stack_ir.block) =
  let slot = slot_of names in
  let op : Stack_ir.op -> op = function
    | Stack_ir.Sprim { dst; prim; args } ->
      Prim
        { dst = slot dst; args = List.map slot args; impl = Prim.find_exn reg prim;
          rows = Undecided }
    | Stack_ir.Sconst { dst; value } ->
      Const { dst = slot dst; value = Tensor.broadcast_rows value z }
    | Stack_ir.Smov { dst; src } -> Mov { dst = slot dst; src = slot src }
    | Stack_ir.Spush v -> Push (slot v)
    | Stack_ir.Spop v -> Pop (slot v)
  in
  let cond =
    match b.Stack_ir.term with
    | Stack_ir.Sbranch { cond; _ } | Stack_ir.Spushbranch { cond; _ } -> slot cond
    | Stack_ir.Sjump _ | Stack_ir.Spushjump _ | Stack_ir.Sreturn -> -1
  in
  { ops = Array.of_list (List.map op b.Stack_ir.ops); term = b.Stack_ir.term; cond }

(* The steppable lane pool: all of the program-counter VM's state, with
   per-lane occupancy so a serving layer can retire a halted lane and
   refill it with a new request mid-run. [run] below is the classic
   whole-batch entry point, a thin driver over this engine.

   Lookups happen once, in [create]: every variable gets a slot in
   [slots] and every block is resolved over slot indices. A block's
   engine charge depends only on shapes, so it is priced into an
   [Engine.priced] handle on the block's first execution and reused. *)
module Lanes = struct
  type t = {
    config : config;
    p : Stack_ir.program;
    z : int;
    halt : int;
    names : string array;    (* slot -> variable, sorted *)
    slots : storage option array;
    blocks : block array;
    priced : Engine.priced option array;  (* per block, on [config.engine] *)
    pc : Pc_stack.t;
    members : int array;     (* per-lane global RNG member identity *)
    occupied : bool array;   (* lane currently carries a request *)
    counts : int array;
    mask : bool array;       (* lanes the current block runs on *)
    active : int array;      (* their indices, the first [n_active] *)
    mutable n_active : int;
    (* The active lanes and their member ids as exact-length arrays, for
       the primitives that gather; built at most once per superstep. *)
    mutable gathered : bool;
    mutable gather_idx : int array;
    mutable gather_members : int array;
    tables : Sched_policy.tables option;  (* for the table-driven policies *)
    mutable last : int;
    mutable steps : int;
  }

  let slot t v = slot_of t.names v

  let allocate t k elem =
    let s =
      match Stack_ir.class_of t.p t.names.(k) with
      | Var_class.Temp -> Reg (Tensor.zeros (Shape.concat_outer t.z elem))
      | Var_class.Masked -> Msk (Tensor.zeros (Shape.concat_outer t.z elem))
      | Var_class.Stacked -> Stk (Stacked.create ~z:t.z ~elem ~initial_depth ())
    in
    t.slots.(k) <- Some s;
    s

  (* The slot's storage, allocated with element shape [elem] if empty. *)
  let materialize t k elem =
    match t.slots.(k) with Some s -> s | None -> allocate t k elem

  let read_slot t k =
    match t.slots.(k) with
    | Some (Reg r | Msk r) -> r
    | Some (Stk s) -> Stacked.top s
    | None ->
      invalid_arg (Printf.sprintf "Pc_vm: read of unwritten variable %s" t.names.(k))

  let read t v = read_slot t (slot t v)

  let check_shape t k cur_shape shape =
    if not (Shape.equal cur_shape shape) then
      invalid_arg
        (Printf.sprintf "Pc_vm: variable %s changes shape from %s to %s" t.names.(k)
           (Shape.to_string cur_shape) (Shape.to_string shape))

  let write t k out =
    match materialize t k (Vm_util.elem_shape_of_batched out) with
    | Reg r ->
      check_shape t k (Tensor.shape r) (Tensor.shape out);
      (* Copy, never alias: [out] may be another variable's storage (a
         register move), and that storage is mutated in place by later
         masked writes. *)
      Array.blit (Tensor.data out) 0 (Tensor.data r) 0 (Tensor.numel out)
    | Msk r ->
      check_shape t k (Tensor.shape r) (Tensor.shape out);
      Tensor.blit_rows_masked ~mask:t.mask ~src:out ~dst:r
    | Stk s ->
      check_shape t k (Tensor.shape (Stacked.top s)) (Tensor.shape out);
      Stacked.write_top_masked s ~mask:t.mask out

  (* Write [out], one row per active lane, into those lanes' rows. The
     other rows keep their values, so a register's inactive rows hold a
     stale value instead of a discarded one — unread either way, since
     a register never lives past its block. *)
  let scatter t k out =
    let elem = Vm_util.elem_shape_of_batched out and idx = t.gather_idx in
    let s = materialize t k elem in
    check_shape t k (storage_elem s) elem;
    match s with
    | Reg r | Msk r -> Tensor.blit_rows_indexed ~idx ~src:out ~dst:r
    | Stk st -> Stacked.write_top_indexed st ~idx out

  let stacked t k what =
    match t.slots.(k) with
    | Some (Stk s) -> s
    | Some (Reg _ | Msk _) ->
      invalid_arg
        (Printf.sprintf "Pc_vm: %s of non-stacked variable %s" what t.names.(k))
    | None ->
      invalid_arg (Printf.sprintf "Pc_vm: %s of unwritten variable %s" what t.names.(k))

  (* How a primitive op writing [dst] from [args] (all read, so
     allocated) runs on masked supersteps. Once the destination is
     allocated too, its shapes cannot change, so the answer is final. *)
  let rows_of t ~dst ~args impl =
    match t.slots.(dst) with
    | None -> Undecided
    | Some d ->
      let args = List.map (fun k -> storage_elem (Option.get t.slots.(k))) args in
      let moved =
        List.fold_left (fun n e -> n + Shape.numel e) (Shape.numel (storage_elem d)) args
      in
      if impl.Prim.flops args >= gather_ratio *. float_of_int moved then Active_rows
      else All_rows

  let gather_lanes t =
    if not t.gathered then begin
      t.gather_idx <- Array.sub t.active 0 t.n_active;
      t.gather_members <- Array.map (fun b -> t.members.(b)) t.gather_idx;
      t.gathered <- true
    end

  let exec_op t = function
    | Prim p ->
      let args = List.map (read_slot t) p.args in
      let masked = t.n_active < t.z in
      if masked && p.rows = Undecided then
        p.rows <- rows_of t ~dst:p.dst ~args:p.args p.impl;
      if masked && p.rows = Active_rows then begin
        gather_lanes t;
        let idx = t.gather_idx in
        scatter t p.dst
          (p.impl.Prim.batched ~members:t.gather_members
             (List.map (fun a -> Tensor.take_rows a idx) args))
      end
      else write t p.dst (p.impl.Prim.batched ~members:t.members args)
    | Const { dst; value } -> write t dst value
    | Mov { dst; src } -> write t dst (read_slot t src)
    | Push k -> Stacked.push (stacked t k "push") ~mask:t.mask
    | Pop k -> Stacked.pop (stacked t k "pop") ~mask:t.mask

  (* Point every active lane's pc at [if_true] or [if_false] by [cond]. *)
  let branch t cond ~if_true ~if_false =
    let top = t.pc.Pc_stack.top in
    for j = 0 to t.n_active - 1 do
      let b = t.active.(j) in
      top.(b) <- (if cond.(b) <> 0. then if_true else if_false)
    done

  (* Save [ret] as the active lanes' return address. *)
  let push_return t ret =
    Pc_stack.set_top_masked t.pc ~mask:t.mask ret;
    Pc_stack.push t.pc ~mask:t.mask

  let exec_term t (b : block) =
    match b.term with
    | Stack_ir.Sjump j -> Pc_stack.set_top_masked t.pc ~mask:t.mask j
    | Stack_ir.Sbranch { if_true; if_false; _ } ->
      branch t (Tensor.data (read_slot t b.cond)) ~if_true ~if_false
    | Stack_ir.Spushjump { ret; entry } ->
      push_return t ret;
      Pc_stack.set_top_masked t.pc ~mask:t.mask entry
    | Stack_ir.Spushbranch { ret; if_true; if_false; _ } ->
      let cond = Tensor.data (read_slot t b.cond) in
      push_return t ret;
      branch t cond ~if_true ~if_false
    | Stack_ir.Sreturn -> Pc_stack.pop t.pc ~mask:t.mask

  (* The engine charge of block [b] on [eng], from the shapes of the
     variables it touches (all allocated once it has executed). Traffic is
     summed in the order the block moves bytes — reads, then the write, op
     by op, then the terminator — since float addition is not
     associative. *)
  let price t eng (b : block) =
    let z = t.z in
    let traffic = ref 0. and flops = ref 0. and names = ref [] in
    let add bytes = traffic := !traffic +. bytes in
    let charge name f =
      names := name :: !names;
      flops := !flops +. f
    in
    let stored k =
      match t.slots.(k) with
      | Some s -> s
      | None ->
        invalid_arg (Printf.sprintf "Pc_vm: read of unwritten variable %s" t.names.(k))
    in
    let elem k = storage_elem (stored k) in
    let row k = Shape.numel (elem k) in
    let read k =
      match stored k with
      | Stk s when not t.config.top_cache ->
        (* Without the top cache every stacked read is a gather. *)
        add (Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s))
      | Reg _ | Msk _ | Stk _ -> ()
    in
    let write k =
      let row = row k in
      match stored k with
      | Reg _ -> add (Vm_util.bytes_per_elem *. float_of_int (z * row))
      | Msk _ -> add (Vm_util.masked_write_bytes ~lanes:z ~row)
      | Stk _ ->
        add (Vm_util.masked_write_bytes ~lanes:z ~row);
        if t.config.naive_stack_writes then
          (* Pre-O5 cost: the write would be a pop followed by a push. *)
          add (2. *. Vm_util.stack_move_bytes ~lanes:z ~row)
    in
    Array.iter
      (function
        | Prim { dst; args; impl; _ } ->
          List.iter read args;
          write dst;
          charge impl.Prim.name (impl.Prim.flops (List.map elem args) *. float_of_int z)
        | Const { dst; value } ->
          write dst;
          charge "const" (float_of_int (Tensor.numel value))
        | Mov { dst; src } ->
          read src;
          write dst;
          charge "mov" (float_of_int (row src * z))
        | Push k | Pop k -> add (Vm_util.stack_move_bytes ~lanes:z ~row:(row k)))
      b.ops;
    let pc_move () = add (Vm_util.stack_move_bytes ~lanes:z ~row:1) in
    let control_ops =
      match b.term with
      | Stack_ir.Sjump _ -> 2
      | Stack_ir.Sbranch _ -> read b.cond; 3
      | Stack_ir.Spushjump _ | Stack_ir.Sreturn -> pc_move (); 2
      | Stack_ir.Spushbranch _ -> read b.cond; pc_move (); 3
    in
    Engine.price eng ~ops:(List.rev !names) ~flops:!flops ~control_ops
      ~traffic_bytes:!traffic

  let priced t eng i =
    match t.priced.(i) with
    | Some p -> p
    | None ->
      let p = price t eng t.blocks.(i) in
      t.priced.(i) <- Some p;
      p

  let create ?(config = default_config) reg (p : Stack_ir.program) ~z =
    if z <= 0 then invalid_arg "Pc_vm.Lanes: need at least one lane";
    let halt = Stack_ir.halt p in
    let nb = Array.length p.Stack_ir.blocks in
    let names =
      Stack_ir.all_vars p @ List.map fst (Ir_util.Smap.bindings p.Stack_ir.shapes)
      |> List.sort_uniq compare |> Array.of_list
    in
    let t =
      {
        config;
        p;
        z;
        halt;
        names;
        slots = Array.make (Array.length names) None;
        blocks = Array.map (resolve names reg ~z) p.Stack_ir.blocks;
        priced = Array.make nb None;
        (* All lanes start idle: pc top parked at [halt]. *)
        pc = Pc_stack.create ~z ~bottom:halt ~start:halt ~initial_depth;
        members = Array.init z (fun i -> config.member_base + i);
        occupied = Array.make z false;
        counts = Array.make nb 0;
        mask = Array.make z false;
        active = Array.make z 0;
        n_active = 0;
        gathered = false;
        gather_idx = [||];
        gather_members = [||];
        tables =
          (if Sched_policy.needs_tables config.sched then
             Some (Sched_cost.stack_tables ~registry:reg p)
           else None);
        last = -1;
        steps = 0;
      }
    in
    Ir_util.Smap.iter (fun v elem -> ignore (allocate t (slot t v) elem)) p.Stack_ir.shapes;
    t

  let z t = t.z
  let program t = t.p
  let steps t = t.steps
  let occupied t ~lane = t.occupied.(lane)

  let finished t ~lane = t.occupied.(lane) && t.pc.Pc_stack.top.(lane) = t.halt

  let live t ~lane = t.occupied.(lane) && t.pc.Pc_stack.top.(lane) <> t.halt

  let live_count t =
    let n = ref 0 in
    for b = 0 to t.z - 1 do
      if live t ~lane:b then incr n
    done;
    !n

  let free_count t =
    let n = ref 0 in
    for b = 0 to t.z - 1 do
      if not t.occupied.(b) then incr n
    done;
    !n

  let finished_lanes t =
    let acc = ref [] in
    for b = t.z - 1 downto 0 do
      if finished t ~lane:b then acc := b :: !acc
    done;
    !acc

  (* The allocated variables, sorted by name. *)
  let allocated t =
    let acc = ref [] in
    for k = Array.length t.slots - 1 downto 0 do
      Option.iter (fun s -> acc := (t.names.(k), s) :: !acc) t.slots.(k)
    done;
    !acc

  (* Restore one lane of every allocated variable to the all-zeros state a
     fresh VM would give it. Variables allocated on demand *after* this
     point start zeroed anyway, so a recycled lane is indistinguishable
     from lane [lane] of a brand-new VM. *)
  let reset_lane_storage t ~lane =
    Array.iter
      (function
        | None -> ()
        | Some (Reg r | Msk r) ->
          let row = Tensor.row_numel r in
          Array.fill (Tensor.data r) (lane * row) row 0.
        | Some (Stk s) -> Stacked.reset_lane s lane)
      t.slots

  (* An input row must have exactly the element shape of the storage it
     lands in (allocated from a declared shape or by an earlier load):
     equal element counts are not enough, or a [2;3] row would be
     silently reinterpreted as [3;2]. *)
  let check_lane_row t v elem_t =
    let storage =
      match t.slots.(slot t v) with
      | None -> None
      | Some (Reg r | Msk r) -> Some r
      | Some (Stk st) -> Some (Stacked.top st)
    in
    Option.iter
      (fun r ->
        let want = Vm_util.elem_shape_of_batched r in
        if not (Shape.equal want (Tensor.shape elem_t)) then
          invalid_arg
            (Printf.sprintf "Pc_vm.Lanes: input %s has row shape %s, expected %s" v
               (Shape.to_string (Tensor.shape elem_t))
               (Shape.to_string want)))
      storage

  let write_lane_row t v ~lane elem_t =
    let dst =
      match materialize t (slot t v) (Tensor.shape elem_t) with
      | Reg r | Msk r -> r
      | Stk st -> Stacked.top st
    in
    let row = Tensor.row_numel dst in
    Array.blit (Tensor.data elem_t) 0 (Tensor.data dst) (lane * row) row

  let load t ~lane ~member ~inputs =
    if lane < 0 || lane >= t.z then invalid_arg "Pc_vm.Lanes.load: lane out of range";
    if live t ~lane then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.load: lane %d is still running" lane);
    if List.length t.p.Stack_ir.inputs <> List.length inputs then
      invalid_arg "Pc_vm: input count mismatch";
    (* Check every input before writing any: a refused load leaves the
       lane (and the rest of the pool) exactly as it was. *)
    List.iter2 (check_lane_row t) t.p.Stack_ir.inputs inputs;
    reset_lane_storage t ~lane;
    List.iter2 (fun v e -> write_lane_row t v ~lane e) t.p.Stack_ir.inputs inputs;
    t.members.(lane) <- member;
    t.occupied.(lane) <- true;
    Pc_stack.reset_lane t.pc ~lane ~bottom:t.halt ~start:0

  let lane_outputs t ~lane =
    List.map (fun v -> Tensor.copy (Tensor.slice_row (read t v) lane)) t.p.Stack_ir.outputs

  let retire t ~lane =
    if not (finished t ~lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.retire: lane %d has not halted" lane);
    let outputs = lane_outputs t ~lane in
    t.occupied.(lane) <- false;
    outputs

  let member t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.member: lane out of range";
    t.members.(lane)

  (* ---- The lane-migration seam (DESIGN.md S20). ----

     A lane's complete execution state is its member identity, its pc
     column and its row of every allocated variable (for stacked
     variables: the saved frames plus the cached top). Batched
     primitives are row-wise and the RNG keys on the member identity
     carried here — never on the lane index — so exporting this record
     and importing it into any free lane of any pool running the same
     program continues the member's trajectory bitwise-exactly. *)

  type var_lane =
    | Lane_reg of Shape.t * float array
    | Lane_msk of Shape.t * float array
    | Lane_stk of Stacked.lane

  type lane_state = {
    ls_member : int;
    ls_pc : Pc_stack.lane;
    ls_vars : (string * var_lane) list;  (* sorted by name *)
  }

  let export_lane t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.export_lane: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.export_lane: lane %d is idle" lane);
    let row_of r =
      let row = Tensor.row_numel r in
      (Vm_util.elem_shape_of_batched r, Array.sub (Tensor.data r) (lane * row) row)
    in
    let vars =
      List.map
        (fun (v, s) ->
          ( v,
            match s with
            | Reg r -> let e, d = row_of r in Lane_reg (e, d)
            | Msk r -> let e, d = row_of r in Lane_msk (e, d)
            | Stk s -> Lane_stk (Stacked.capture_lane s lane) ))
        (allocated t)
    in
    {
      ls_member = t.members.(lane);
      ls_pc = Pc_stack.capture_lane t.pc ~lane;
      ls_vars = vars;
    }

  let evict t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.evict: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.evict: lane %d is idle" lane);
    t.occupied.(lane) <- false;
    (* Park the pc at halt, as create does for idle lanes. *)
    Pc_stack.reset_lane t.pc ~lane ~bottom:t.halt ~start:t.halt

  let import_lane t ~lane st =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.import_lane: lane out of range";
    if t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.import_lane: lane %d is occupied" lane);
    (* Variables the source pool never allocated are implicitly zero for
       this member; resetting first makes the destination agree. *)
    reset_lane_storage t ~lane;
    List.iter
      (fun (v, vl) ->
        let class_err () =
          invalid_arg
            (Printf.sprintf
               "Pc_vm.Lanes.import_lane: variable %s changes storage class" v)
        in
        let k = slot t v in
        match vl with
        | Lane_reg (elem, data) | Lane_msk (elem, data) -> (
          match materialize t k elem with
          | Reg r | Msk r ->
            let row = Tensor.row_numel r in
            if Array.length data <> row then
              invalid_arg
                (Printf.sprintf
                   "Pc_vm.Lanes.import_lane: variable %s row width mismatch" v);
            Array.blit data 0 (Tensor.data r) (lane * row) row
          | Stk _ -> class_err ())
        | Lane_stk l -> (
          match materialize t k l.Stacked.l_elem with
          | Stk s -> Stacked.restore_lane s lane l
          | Reg _ | Msk _ -> class_err ()))
      st.ls_vars;
    Pc_stack.restore_lane t.pc ~lane st.ls_pc;
    t.members.(lane) <- st.ls_member;
    t.occupied.(lane) <- true

  let lane_state_bytes st =
    let var_elems =
      List.fold_left
        (fun acc (_, vl) ->
          acc
          + (match vl with
            | Lane_reg (_, d) | Lane_msk (_, d) -> Array.length d
            | Lane_stk l ->
              Array.length l.Stacked.l_frames + Array.length l.Stacked.l_top))
        0 st.ls_vars
    in
    (* pc entries price like elements: sp saved slots plus the top. *)
    Vm_util.bytes_per_elem *. float_of_int (var_elems + st.ls_pc.Pc_stack.pl_sp + 1)

  (* [lane_state_bytes (export_lane t ~lane)] without the copy: the same
     element count, read off the live storage. *)
  let lane_bytes t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.lane_bytes: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.lane_bytes: lane %d is idle" lane);
    let elems = ref (t.pc.Pc_stack.sp.(lane) + 1) in
    Array.iter
      (function
        | None -> ()
        | Some (Reg r | Msk r) -> elems := !elems + Tensor.row_numel r
        | Some (Stk s) -> elems := !elems + ((Stacked.depth s lane + 1) * Stacked.row s))
      t.slots;
    Vm_util.bytes_per_elem *. float_of_int !elems

  let migrate t ~src ~dst =
    if src = dst then invalid_arg "Pc_vm.Lanes.migrate: src and dst coincide";
    let st = export_lane t ~lane:src in
    evict t ~lane:src;
    import_lane t ~lane:dst st;
    lane_state_bytes st

  let outputs t = List.map (fun v -> Tensor.copy (read t v)) t.p.Stack_ir.outputs

  type image = {
    li_z : int;
    li_steps : int;
    li_last : int;
    li_members : int array;
    li_occupied : bool array;
    li_pc : Vm_image.pc;
    li_store : Vm_image.store;
  }

  let capture t =
    let store =
      List.map
        (fun (v, s) ->
          ( v,
            match s with
            | Reg r ->
              Vm_image.Reg (Array.copy (Tensor.shape r), Array.copy (Tensor.data r))
            | Msk r ->
              Vm_image.Msk (Array.copy (Tensor.shape r), Array.copy (Tensor.data r))
            | Stk s -> Vm_image.Stk (Stacked.capture s) ))
        (allocated t)
    in
    {
      li_z = t.z;
      li_steps = t.steps;
      li_last = t.last;
      li_members = Array.copy t.members;
      li_occupied = Array.copy t.occupied;
      li_pc = Pc_stack.capture t.pc;
      li_store = store;
    }

  let restore t img =
    if img.li_z <> t.z then invalid_arg "Pc_vm.Lanes.restore: batch size mismatch";
    t.steps <- img.li_steps;
    t.last <- img.li_last;
    Array.blit img.li_members 0 t.members 0 t.z;
    Array.blit img.li_occupied 0 t.occupied 0 t.z;
    Pc_stack.restore t.pc img.li_pc;
    (* Rebuild the store from the image alone: a variable first allocated
       after the capture must disappear, or its stale masked rows would
       leak into lanes the image knows nothing about. *)
    Array.fill t.slots 0 (Array.length t.slots) None;
    List.iter
      (fun (v, s) ->
        let s =
          match s with
          | Vm_image.Reg (shape, data) -> Reg (Tensor.of_array shape data)
          | Vm_image.Msk (shape, data) -> Msk (Tensor.of_array shape data)
          | Vm_image.Stk simg ->
            let s = Stacked.create ~z:t.z ~elem:simg.Stacked.i_elem ~initial_depth () in
            Stacked.restore s simg;
            Stk s
        in
        t.slots.(slot t v) <- Some s)
      img.li_store

  (* Report superstep [t.steps], about to run block [i] with [live] lanes
     live: its Step event, then its Occupancy. Kept out of [step], whose
     lane loops are the runtime's hot path. *)
  let observe t sink i ~live =
    sink (Obs_sink.Step { shard = 0; step = t.steps; block = i });
    (* The deepest any pc or variable stack has been pushed to. *)
    let depth =
      Array.fold_left
        (fun d -> function Some (Stk s) -> Int.max d (Stacked.high_water s) | _ -> d)
        t.pc.Pc_stack.high t.slots
    in
    sink
      (Obs_sink.Occupancy
         {
           shard = 0;
           step = t.steps;
           block = i;
           active = t.counts.(i);
           live;
           total = t.z;
           width = t.z;
           depth;
         })

  (* Execute one scheduled basic block over the currently live lanes.
     Returns [false] (and does nothing) when no lane is runnable. *)
  let step t =
    let z = t.z and halt = t.halt and pc = t.pc and config = t.config in
    Array.fill t.counts 0 (Array.length t.counts) 0;
    let live = ref 0 in
    for b = 0 to z - 1 do
      if pc.Pc_stack.top.(b) < halt then begin
        t.counts.(pc.Pc_stack.top.(b)) <- t.counts.(pc.Pc_stack.top.(b)) + 1;
        incr live
      end
    done;
    match Sched_policy.pick ?tables:t.tables config.sched ~last:t.last ~counts:t.counts with
    | None -> false
    | Some i ->
      t.steps <- t.steps + 1;
      if t.steps > config.max_steps then raise Ir_util.Step_limit_exceeded;
      (* The superstep event fires before the block executes, so a sink
         that raises (an injected fault) aborts the superstep whole —
         never a half-applied block. The occupancy event follows under the
         same rule; it doubles as the profiler's attribution context for
         the engine spans this block is about to charge, and is the only
         utilization report this runtime makes. *)
      (match config.sink with None -> () | Some sink -> observe t sink i ~live:!live);
      t.last <- i;
      let n = ref 0 in
      for b = 0 to z - 1 do
        let m = pc.Pc_stack.top.(b) = i in
        t.mask.(b) <- m;
        if m then begin
          t.active.(!n) <- b;
          incr n
        end
      done;
      t.n_active <- !n;
      t.gathered <- false;
      let (b : block) = t.blocks.(i) in
      for j = 0 to Array.length b.ops - 1 do
        exec_op t b.ops.(j)
      done;
      exec_term t b;
      (match config.engine with
      | None -> ()
      | Some eng -> Engine.charge_priced eng (priced t eng i));
      true
end

let run ?(config = default_config) reg (p : Stack_ir.program) ~batch =
  let z = batch_size batch in
  let lanes = Lanes.create ~config reg p ~z in
  for lane = 0 to z - 1 do
    Lanes.load lanes ~lane ~member:(config.member_base + lane)
      ~inputs:(List.map (fun t -> Tensor.slice_row t lane) batch)
  done;
  while Lanes.step lanes do
    ()
  done;
  (* Fresh tensors: the VM's storage buffers must not escape. *)
  Lanes.outputs lanes
