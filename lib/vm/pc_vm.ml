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

(* One variable's storage, allocated once by [Lanes.bind] from the
   variable's inferred element shape. *)
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

(* A variable with no inferred shape has no storage: only dead or
   never-returning code mentions one, and touching it is an error. *)
let no_shape names k =
  invalid_arg (Printf.sprintf "Pc_vm: variable %s has no inferred shape" names.(k))

(* How a primitive op runs on the host when some lanes are masked off:
   on every row, or on the active rows only. The engine prices full
   width either way. *)
type rows = All_rows | Active_rows

(* A block bound to one pool: its primitives looked up, their argument
   tensors fixed to the pool's storage and its constants broadcast to the
   pool's width. [cond] is the slot of the terminator's branch condition,
   if it has one. A primitive op that mentions a variable with no storage
   is [Unshaped] with that variable's slot. *)
type op =
  | Prim of {
      dst : int;
      args : int array;
      impl : Prim.t;
      rows : rows;
      inputs : Tensor.t list;  (* [args]' storage *)
    }
  | Const of { dst : int; value : Tensor.t }
  | Mov of { dst : int; src : int }
  | Push of int
  | Pop of int
  | Unshaped of int

type block = { ops : op array; term : Stack_ir.terminator; cond : int }

(* The steppable lane pool: all of the program-counter VM's state, with
   per-lane occupancy so a serving layer can retire a halted lane and
   refill it with a new request mid-run. [run] below is the classic
   whole-batch entry point, a thin driver over this engine.

   Allocation and lookups happen once, in [create]: every shaped variable
   gets its storage in [slots], and every block is resolved over slot
   indices. Nothing allocates storage after that. A block's engine charge
   depends only on shapes, so it is priced into an [Engine.priced] handle
   on the block's first execution and reused. *)
module Lanes = struct
  type lane_var = { lv_name : string; lv_class : Var_class.t; lv_elem : Shape.t }

  (* A template op: a block op over slot indices, its primitive an index
     into the template's primitive names. A primitive op carries its
     arguments' element shapes and the elements it moves per row, for the
     pool's gather decision. *)
  type top =
    | Tprim of { dst : int; args : int array; prim : int; arg_elems : Shape.t list; moved : int }
    | Tconst of { dst : int; value : Tensor.t }
    | Tmov of { dst : int; src : int }
    | Tpush of int
    | Tpop of int
    | Tunshaped of int

  type tblock = { t_ops : top array; t_term : Stack_ir.terminator; t_cond : int }

  (* Everything about a pool that depends on the program alone. *)
  type template = {
    program : Stack_ir.program;
    names : string array;  (* slot -> variable, sorted *)
    classes : Var_class.t array;  (* per slot *)
    elems : Shape.t option array;  (* per slot; [None]: no inferred shape *)
    tblocks : tblock array;
    prims : string array;  (* the primitives the ops name, each once *)
    in_slots : int list;  (* the program's inputs *)
    out_slots : int list;  (* the program's outputs *)
    (* The variables a lane state carries, its [ls_rows] length and its
       [ls_stacks] count ([layout]). *)
    vars : lane_var array;
    width : int;
    columns : int;
  }

  let layout vars =
    let stacked lv = lv.lv_class = Var_class.Stacked in
    ( Array.fold_left (fun n lv -> if stacked lv then n else n + Shape.numel lv.lv_elem) 0 vars,
      Array.of_list (List.filter stacked (Array.to_list vars)) )

  (* [Smap.find_opt] of each of the sorted [names] in [map], in one
     ordered walk of both. *)
  let lookup_sorted names map =
    let found = Array.make (Array.length names) None in
    let rec go k seq =
      if k < Array.length names then
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons ((v, x), rest) ->
          let c = String.compare names.(k) v in
          if c = 0 then begin
            found.(k) <- Some x;
            go (k + 1) rest
          end
          else if c < 0 then go (k + 1) seq
          else go k rest
    in
    go 0 (Ir_util.Smap.to_seq map);
    found

  let template (p : Stack_ir.program) =
    (* Every variable the program mentions or gave a shape, each once,
       in name order. *)
    let index = Hashtbl.create 256 and seen = ref [] in
    let see v =
      if not (Hashtbl.mem index v) then begin
        Hashtbl.add index v (-1);
        seen := v :: !seen
      end
    in
    List.iter see p.Stack_ir.inputs;
    List.iter see p.Stack_ir.outputs;
    Array.iter
      (fun (b : Stack_ir.block) ->
        List.iter
          (function
            | Stack_ir.Sprim { dst; args; _ } ->
              see dst;
              List.iter see args
            | Stack_ir.Sconst { dst; _ } -> see dst
            | Stack_ir.Smov { dst; src } ->
              see dst;
              see src
            | Stack_ir.Spush v | Stack_ir.Spop v -> see v)
          b.Stack_ir.ops;
        match b.Stack_ir.term with
        | Stack_ir.Sbranch { cond; _ } | Stack_ir.Spushbranch { cond; _ } -> see cond
        | Stack_ir.Sjump _ | Stack_ir.Spushjump _ | Stack_ir.Sreturn -> ())
      p.Stack_ir.blocks;
    Ir_util.Smap.iter (fun v _ -> see v) p.Stack_ir.shapes;
    let names = Array.of_list !seen in
    Array.stable_sort String.compare names;
    Array.iteri (fun k v -> Hashtbl.replace index v k) names;
    let slot = Hashtbl.find index in
    let classes =
      Array.map (Option.value ~default:Var_class.Masked) (lookup_sorted names p.Stack_ir.classes)
    in
    let elems = lookup_sorted names p.Stack_ir.shapes in
    let prim_index = Hashtbl.create 64 and prims = ref [] in
    let prim_id name =
      match Hashtbl.find prim_index name with
      | id -> id
      | exception Not_found ->
        let id = Hashtbl.length prim_index in
        Hashtbl.add prim_index name id;
        prims := name :: !prims;
        id
    in
    let prim ~dst ~args name =
      let unshaped k = Option.is_none elems.(k) in
      match if unshaped dst then Some dst else Array.find_opt unshaped args with
      | Some k -> Tunshaped k
      | None ->
        let elem k = Option.get elems.(k) in
        let arg_elems = Array.to_list (Array.map elem args) in
        let moved =
          List.fold_left (fun n e -> n + Shape.numel e) (Shape.numel (elem dst)) arg_elems
        in
        Tprim { dst; args; prim = prim_id name; arg_elems; moved }
    in
    let op : Stack_ir.op -> top = function
      | Stack_ir.Sprim { dst; prim = name; args } ->
        prim ~dst:(slot dst) ~args:(Array.of_list (List.map slot args)) name
      | Stack_ir.Sconst { dst; value } -> Tconst { dst = slot dst; value }
      | Stack_ir.Smov { dst; src } -> Tmov { dst = slot dst; src = slot src }
      | Stack_ir.Spush v -> Tpush (slot v)
      | Stack_ir.Spop v -> Tpop (slot v)
    in
    let tblock (b : Stack_ir.block) =
      let t_cond =
        match b.Stack_ir.term with
        | Stack_ir.Sbranch { cond; _ } | Stack_ir.Spushbranch { cond; _ } -> slot cond
        | Stack_ir.Sjump _ | Stack_ir.Spushjump _ | Stack_ir.Sreturn -> -1
      in
      { t_ops = Array.of_list (List.map op b.Stack_ir.ops); t_term = b.Stack_ir.term; t_cond }
    in
    (* Lane states carry the shaped variables but the registers, by name. *)
    let vars = ref [] in
    for k = Array.length names - 1 downto 0 do
      match (elems.(k), classes.(k)) with
      | None, _ | Some _, Var_class.Temp -> ()
      | Some lv_elem, lv_class -> vars := { lv_name = names.(k); lv_class; lv_elem } :: !vars
    done;
    let vars = Array.of_list !vars in
    let width, stacked = layout vars in
    (* Resolving the blocks numbers their primitives. *)
    let tblocks = Array.map tblock p.Stack_ir.blocks in
    let prims = Array.of_list (List.rev !prims) in
    {
      program = p;
      names;
      classes;
      elems;
      tblocks;
      prims;
      in_slots = List.map slot p.Stack_ir.inputs;
      out_slots = List.map slot p.Stack_ir.outputs;
      vars;
      width;
      columns = Array.length stacked;
    }

  type t = {
    config : config;
    tpl : template;
    z : int;
    halt : float;  (* the program's halt index *)
    slots : storage option array;  (* [None]: no inferred shape *)
    blocks : block array;
    priced : Engine.priced option array;  (* per block, on [config.engine] *)
    (* The pc stack: a scalar [Stacked] over block indices stored as
       floats (exact below 2^53), and its cached tops, which the
       superstep's scans and the terminators read and write in place. *)
    pc : Stacked.t;
    pc_top : float array;
    (* The columns a lane's pc is seeded with: a halt sentinel below,
       executing from block 0 ([fresh], a loaded lane) or parked at halt
       ([idle], a free lane). *)
    fresh : Stacked.lane;
    idle : Stacked.lane;
    members : int array;     (* per-lane global RNG member identity *)
    occupied : bool array;   (* lane currently carries a request *)
    counts : int array;      (* per block, the live lanes whose pc is there *)
    (* Those lanes as one list per block, threaded through [next] from
       [head]: built by the tally's scan, so no second scan is needed to
       list a block's lanes. *)
    head : int array;
    next : int array;
    active : int array;      (* lanes the current block runs on: the first
                                [n_active], ascending *)
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

  let storage t k = match t.slots.(k) with Some s -> s | None -> no_shape t.tpl.names k

  let read_slot t k =
    match storage t k with Reg r | Msk r -> r | Stk s -> Stacked.top s

  let check_shape t k cur_shape shape =
    if not (Shape.equal cur_shape shape) then
      invalid_arg
        (Printf.sprintf "Pc_vm: variable %s changes shape from %s to %s" t.tpl.names.(k)
           (Shape.to_string cur_shape) (Shape.to_string shape))

  (* Write the active lanes' rows of the full-width [out]. *)
  let write t k out =
    match storage t k with
    | Reg r ->
      check_shape t k (Tensor.shape r) (Tensor.shape out);
      (* Copy, never alias: [out] may be another variable's storage (a
         register move), and that storage is mutated in place by later
         masked writes. *)
      Array.blit (Tensor.data out) 0 (Tensor.data r) 0 (Tensor.numel out)
    | Msk r ->
      check_shape t k (Tensor.shape r) (Tensor.shape out);
      Vm_util.blit_active_rows ~active:t.active ~n:t.n_active ~src:out ~dst:r
    | Stk s ->
      check_shape t k (Tensor.shape (Stacked.top s)) (Tensor.shape out);
      Stacked.write_top s ~active:t.active ~n:t.n_active out

  (* Write [out], one row per active lane, into those lanes' rows. The
     other rows keep their values, so a register's inactive rows hold a
     stale value instead of a discarded one — unread either way, since
     a register never lives past its block. *)
  let scatter t k out =
    let elem = Vm_util.elem_shape_of_batched out and idx = t.gather_idx in
    let s = storage t k in
    check_shape t k (storage_elem s) elem;
    match s with
    | Reg r | Msk r -> Tensor.blit_rows_indexed ~idx ~src:out ~dst:r
    | Stk st -> Stacked.write_top_indexed st ~idx out

  let stacked t k what =
    match storage t k with
    | Stk s -> s
    | Reg _ | Msk _ ->
      invalid_arg
        (Printf.sprintf "Pc_vm: %s of non-stacked variable %s" what t.tpl.names.(k))

  let gather_lanes t =
    if not t.gathered then begin
      t.gather_idx <- Array.sub t.active 0 t.n_active;
      t.gather_members <- Array.map (fun b -> t.members.(b)) t.gather_idx;
      t.gathered <- true
    end

  let exec_op t = function
    | Prim p ->
      if p.rows = Active_rows && t.n_active < t.z then begin
        gather_lanes t;
        let idx = t.gather_idx in
        scatter t p.dst
          (p.impl.Prim.batched ~members:t.gather_members
             (List.map (fun a -> Tensor.take_rows a idx) p.inputs))
      end
      else write t p.dst (p.impl.Prim.batched ~members:t.members p.inputs)
    | Const { dst; value } -> write t dst value
    | Mov { dst; src } -> write t dst (read_slot t src)
    | Push k -> Stacked.push (stacked t k "push") ~active:t.active ~n:t.n_active
    | Pop k -> Stacked.pop (stacked t k "pop") ~active:t.active ~n:t.n_active
    | Unshaped k -> no_shape t.tpl.names k

  (* Point every active lane's pc at [if_true] or [if_false] by [cond]. *)
  let branch t cond ~if_true ~if_false =
    let top = t.pc_top and if_true = float_of_int if_true
    and if_false = float_of_int if_false in
    for j = 0 to t.n_active - 1 do
      let b = t.active.(j) in
      top.(b) <- (if cond.(b) <> 0. then if_true else if_false)
    done

  let set_pc t v =
    let top = t.pc_top and v = float_of_int v in
    for j = 0 to t.n_active - 1 do
      top.(t.active.(j)) <- v
    done

  (* Save [ret] as the active lanes' return address. *)
  let push_return t ret =
    set_pc t ret;
    Stacked.push t.pc ~active:t.active ~n:t.n_active

  let exec_term t (b : block) =
    match b.term with
    | Stack_ir.Sjump j -> set_pc t j
    | Stack_ir.Sbranch { if_true; if_false; _ } ->
      branch t (Tensor.data (read_slot t b.cond)) ~if_true ~if_false
    | Stack_ir.Spushjump { ret; entry } ->
      push_return t ret;
      set_pc t entry
    | Stack_ir.Spushbranch { ret; if_true; if_false; _ } ->
      let cond = Tensor.data (read_slot t b.cond) in
      push_return t ret;
      branch t cond ~if_true ~if_false
    | Stack_ir.Sreturn -> Stacked.pop t.pc ~active:t.active ~n:t.n_active

  (* The engine charge of block [b] on [eng], from the shapes of the
     variables it touches (all stored once it has executed). Traffic is
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
    let elem k = storage_elem (storage t k) in
    let row k = Shape.numel (elem k) in
    let read k =
      match storage t k with
      | Stk s when not t.config.top_cache ->
        (* Without the top cache every stacked read is a gather. *)
        add (Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s))
      | Reg _ | Msk _ | Stk _ -> ()
    in
    let write k =
      let row = row k in
      match storage t k with
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
          Array.iter read args;
          write dst;
          charge impl.Prim.name
            (impl.Prim.flops (List.map elem (Array.to_list args)) *. float_of_int z)
        | Const { dst; value } ->
          write dst;
          charge "const" (float_of_int (Tensor.numel value))
        | Mov { dst; src } ->
          read src;
          write dst;
          charge "mov" (float_of_int (row src * z))
        | Push k | Pop k -> add (Vm_util.stack_move_bytes ~lanes:z ~row:(row k))
        | Unshaped k -> no_shape t.tpl.names k)
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

  (* A template op bound to a pool's storage, its primitive one of
     [impls]. The gather decision is taken from shapes that cannot
     change. *)
  let bind_op impls slots ~z = function
    | Tprim { dst; args; prim; arg_elems; moved } ->
      let impl = impls.(prim) in
      let rows =
        if impl.Prim.flops arg_elems >= gather_ratio *. float_of_int moved then Active_rows
        else All_rows
      in
      let read k =
        match slots.(k) with
        | Some (Reg r | Msk r) -> r
        | Some (Stk s) -> Stacked.top s
        | None -> assert false (* the template made the op [Tunshaped] *)
      in
      Prim { dst; args; impl; rows; inputs = Array.to_list (Array.map read args) }
    | Tconst { dst; value } -> Const { dst; value = Tensor.broadcast_rows value z }
    | Tmov { dst; src } -> Mov { dst; src }
    | Tpush k -> Push k
    | Tpop k -> Pop k
    | Tunshaped k -> Unshaped k

  let bind ?(config = default_config) reg tpl ~z =
    if z <= 0 then invalid_arg "Pc_vm.Lanes: need at least one lane";
    let p = tpl.program in
    let halt = float_of_int (Stack_ir.halt p) in
    (* A pc column: the halt sentinel below [top]. *)
    let column top =
      { Stacked.l_elem = Shape.scalar; l_sp = 1; l_frames = [| halt |]; l_top = [| top |] }
    in
    let idle = column halt in
    (* All lanes start idle. *)
    let pc = Stacked.create ~z ~elem:Shape.scalar ~initial_depth () in
    for lane = 0 to z - 1 do
      Stacked.restore_lane pc lane idle
    done;
    let nb = Array.length tpl.tblocks in
    let slots =
      Array.mapi
        (fun k elem ->
          Option.map
            (fun elem ->
              match tpl.classes.(k) with
              | Var_class.Temp -> Reg (Tensor.zeros (Shape.concat_outer z elem))
              | Var_class.Masked -> Msk (Tensor.zeros (Shape.concat_outer z elem))
              | Var_class.Stacked -> Stk (Stacked.create ~z ~elem ~initial_depth ()))
            elem)
        tpl.elems
    in
    let impls = Array.map (Prim.find_exn reg) tpl.prims in
    let bind_block tb =
      { ops = Array.map (bind_op impls slots ~z) tb.t_ops; term = tb.t_term; cond = tb.t_cond }
    in
    {
      config;
      tpl;
      z;
      halt;
      slots;
      blocks = Array.map bind_block tpl.tblocks;
      priced = Array.make nb None;
      pc;
      pc_top = Tensor.data (Stacked.top pc);
      fresh = column 0.;
      idle;
      members = Array.init z (fun i -> config.member_base + i);
      occupied = Array.make z false;
      counts = Array.make nb 0;
      head = Array.make nb 0;
      next = Array.make z 0;
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

  let create ?config reg p ~z = bind ?config reg (template p) ~z

  let z t = t.z
  let steps t = t.steps
  let occupied t ~lane = t.occupied.(lane)

  let finished t ~lane = t.occupied.(lane) && t.pc_top.(lane) = t.halt

  let live t ~lane = t.occupied.(lane) && t.pc_top.(lane) <> t.halt

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

  (* Restore one lane of every variable a block can read before writing
     to the all-zeros state a fresh VM would give it, so a recycled lane
     is indistinguishable from lane [lane] of a brand-new VM. Registers
     ([Var_class.Temp]) are skipped: each block writes one before reading
     it, so no lane ever reads a register row it inherited. *)
  let reset_lane_storage t ~lane =
    Array.iter
      (function
        | None | Some (Reg _) -> ()
        | Some (Msk r) ->
          let row = Tensor.row_numel r in
          Array.fill (Tensor.data r) (lane * row) row 0.
        | Some (Stk s) -> Stacked.reset_lane s lane)
      t.slots

  (* An input's storage, once the input row is checked against it: the
     row must have exactly the declared element shape, as equal element
     counts are not enough (a [2;3] row would be silently reinterpreted
     as [3;2]). *)
  let input_storage t k elem_t =
    let r = read_slot t k in
    let want = Vm_util.elem_shape_of_batched r in
    if not (Shape.equal want (Tensor.shape elem_t)) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes: input %s has row shape %s, expected %s" t.tpl.names.(k)
           (Shape.to_string (Tensor.shape elem_t))
           (Shape.to_string want));
    r

  let load t ~lane ~member ~inputs =
    if lane < 0 || lane >= t.z then invalid_arg "Pc_vm.Lanes.load: lane out of range";
    if live t ~lane then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.load: lane %d is still running" lane);
    if List.compare_lengths t.tpl.in_slots inputs <> 0 then
      invalid_arg "Pc_vm: input count mismatch";
    (* Check every input before writing any: a refused load leaves the
       lane (and the rest of the pool) exactly as it was. *)
    let dsts = List.map2 (input_storage t) t.tpl.in_slots inputs in
    reset_lane_storage t ~lane;
    List.iter2
      (fun dst e ->
        let row = Tensor.row_numel dst in
        Array.blit (Tensor.data e) 0 (Tensor.data dst) (lane * row) row)
      dsts inputs;
    t.members.(lane) <- member;
    t.occupied.(lane) <- true;
    Stacked.restore_lane t.pc lane t.fresh

  let lane_outputs t ~lane =
    List.map (fun k -> Tensor.copy (Tensor.slice_row (read_slot t k) lane)) t.tpl.out_slots

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
     column, its masked rows and its stacked columns (no register is
     live between supersteps). Batched
     primitives are row-wise and the RNG keys on the member identity
     carried here — never on the lane index — so exporting this record
     and importing it into any free lane of any pool running the same
     program continues the member's trajectory bitwise-exactly. *)

  type lane_state = {
    ls_member : int;
    ls_pc : Stacked.lane;
    ls_vars : lane_var array;  (* sorted by name; the pool's [vars] *)
    ls_rows : float array;  (* masked rows, in [ls_vars] order *)
    ls_stacks : Stacked.lane array;  (* stacked columns, in [ls_vars] order *)
  }

  (* A lane is a few flat arrays, not a record per variable: a checkpoint
     holds every occupied lane, and its blocks are what a capture
     allocates and the collector later copies. *)
  let lane_state t lane =
    let rows = Array.create_float t.tpl.width and pos = ref 0 and stacks = ref [] in
    Array.iter
      (function
        | None | Some (Reg _) -> ()
        | Some (Msk r) ->
          let d = Tensor.data r and w = Tensor.row_numel r in
          if w = 1 then
            (* A scalar row: an assignment beats [Array.blit]'s call. *)
            rows.(!pos) <- d.(lane)
          else Array.blit d (lane * w) rows !pos w;
          pos := !pos + w
        | Some (Stk s) -> stacks := Stacked.capture_lane s lane :: !stacks)
      t.slots;
    {
      ls_member = t.members.(lane);
      ls_pc = Stacked.capture_lane t.pc lane;
      ls_vars = t.tpl.vars;
      ls_rows = rows;
      ls_stacks = Array.of_list (List.rev !stacks);
    }

  let export_lane t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.export_lane: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.export_lane: lane %d is idle" lane);
    lane_state t lane

  let evict t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.evict: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.evict: lane %d is idle" lane);
    t.occupied.(lane) <- false;
    (* Park the pc at halt, as [bind] does for idle lanes. *)
    Stacked.restore_lane t.pc lane t.idle

  let pc_column t ~lane = Stacked.capture_lane t.pc lane

  let same_vars t vars = vars == t.tpl.vars || vars = t.tpl.vars

  (* A pc entry is a block index: an integer in [0, halt]. Anything else
     would index [counts] out of bounds, or leave a live lane that no
     superstep can run. The range test comes first: it fails NaN and the
     infinities, and keeps [int_of_float] within range. *)
  let block_index t x = x >= 0. && x <= t.halt && Float.of_int (int_of_float x) = x

  let valid_pc t (l : Stacked.lane) =
    let ok = ref (block_index t l.Stacked.l_top.(0)) in
    for d = 0 to Array.length l.Stacked.l_frames - 1 do
      if not (block_index t l.Stacked.l_frames.(d)) then ok := false
    done;
    !ok

  let refuse ~who what = invalid_arg (Printf.sprintf "Pc_vm.Lanes.%s: %s" who what)

  (* Refuse a state this pool could not have exported — other variables,
     a column that does not fit its stack, a pc entry that is no block —
     before anything is written. [who] names the refusing entry point.
     A restore checks every lane this way, so the check allocates
     nothing. *)
  let check_state t ~who st =
    if
      not
        (same_vars t st.ls_vars
        && Array.length st.ls_rows = t.tpl.width
        && Array.length st.ls_stacks = t.tpl.columns)
    then refuse ~who "the state's variables differ from the pool's";
    if not (Stacked.fits t.pc st.ls_pc && valid_pc t st.ls_pc) then
      refuse ~who "the pc column holds a value that is not a block index";
    let next_stack = ref 0 in
    for k = 0 to Array.length t.slots - 1 do
      match t.slots.(k) with
      | Some (Stk s) ->
        if not (Stacked.fits s st.ls_stacks.(!next_stack)) then
          refuse ~who (Printf.sprintf "the column of %s does not fit its stack" t.tpl.names.(k));
        incr next_stack
      | None | Some (Reg _ | Msk _) -> ()
    done

  (* The inverse of [lane_state], over the pool's own storage, for a state
     [check_state] passed. *)
  let install t ~lane st =
    let pos = ref 0 and next_stack = ref 0 in
    Array.iter
      (function
        | None | Some (Reg _) -> ()
        | Some (Msk r) ->
          let w = Tensor.row_numel r in
          Array.blit st.ls_rows !pos (Tensor.data r) (lane * w) w;
          pos := !pos + w
        | Some (Stk s) ->
          Stacked.restore_lane s lane st.ls_stacks.(!next_stack);
          incr next_stack)
      t.slots;
    Stacked.restore_lane t.pc lane st.ls_pc;
    t.members.(lane) <- st.ls_member;
    t.occupied.(lane) <- true

  let import_lane t ~lane st =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.import_lane: lane out of range";
    if t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.import_lane: lane %d is occupied" lane);
    check_state t ~who:"import_lane" st;
    install t ~lane st

  let lane_state_bytes st =
    let column acc l = acc + Array.length l.Stacked.l_frames + Array.length l.Stacked.l_top in
    Vm_util.bytes_per_elem
    *. float_of_int
         (Array.fold_left column (column (Array.length st.ls_rows) st.ls_pc) st.ls_stacks)

  let outputs t = List.map (fun k -> Tensor.copy (read_slot t k)) t.tpl.out_slots

  type image = {
    li_steps : int;
    li_last : int;
    li_members : int array;
    li_vars : lane_var array;  (* every lane state's [ls_vars] *)
    li_lanes : lane_state option array;
  }

  let capture t =
    {
      li_steps = t.steps;
      li_last = t.last;
      li_members = Array.copy t.members;
      li_vars = t.tpl.vars;
      li_lanes =
        Array.init t.z (fun lane ->
            if t.occupied.(lane) then Some (lane_state t lane) else None);
    }

  let restore t img =
    if Array.length img.li_members <> t.z || Array.length img.li_lanes <> t.z then
      invalid_arg "Pc_vm.Lanes.restore: batch size mismatch";
    if not (same_vars t img.li_vars) then
      invalid_arg "Pc_vm.Lanes.restore: the image's variables differ from the pool's";
    Array.iter (function Some st -> check_state t ~who:"restore" st | None -> ()) img.li_lanes;
    t.steps <- img.li_steps;
    t.last <- img.li_last;
    (* Zero the masked rows and empty every stack in place, so every lane
       the image leaves idle holds what a fresh pool would; the stacks'
       high-water marks, the pc's included, restart at 0 too, so [depth]
       counts from the restore. *)
    Stacked.reset t.pc;
    Array.iter
      (function
        | None | Some (Reg _) -> ()
        | Some (Msk r) -> Array.fill (Tensor.data r) 0 (Tensor.numel r) 0.
        | Some (Stk s) -> Stacked.reset s)
      t.slots;
    Array.fill t.occupied 0 t.z false;
    Array.iteri
      (fun lane -> function
        | Some st -> install t ~lane st
        | None ->
          t.members.(lane) <- img.li_members.(lane);
          Stacked.restore_lane t.pc lane t.idle)
      img.li_lanes

  (* Report superstep [t.steps], about to run block [i] with [live] lanes
     live: its Step event, then its Occupancy. Kept out of [step], whose
     lane loops are the runtime's hot path. *)
  let observe t sink i ~live =
    sink (Obs_sink.Step { shard = 0; step = t.steps; block = i });
    (* The deepest any pc or variable stack has been pushed to. *)
    let depth =
      Array.fold_left
        (fun d -> function Some (Stk s) -> Int.max d (Stacked.high_water s) | _ -> d)
        (Stacked.high_water t.pc) t.slots
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
    let z = t.z and halt = t.halt and top = t.pc_top and config = t.config in
    let counts = t.counts and head = t.head and next = t.next in
    Array.fill counts 0 (Array.length counts) 0;
    let live = ref 0 in
    (* Walking down, each lane goes to the front of its block's list, so
       every list comes out ascending. A list ends after [counts.(i)]
       lanes; the [next] of its last lane is stale and never followed. *)
    for b = z - 1 downto 0 do
      let pc = top.(b) in
      if pc < halt then begin
        let i = int_of_float pc in
        counts.(i) <- counts.(i) + 1;
        next.(b) <- head.(i);
        head.(i) <- b;
        incr live
      end
    done;
    match Sched_policy.pick ?tables:t.tables config.sched ~last:t.last ~counts with
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
      let n = counts.(i) and lane = ref head.(i) in
      for j = 0 to n - 1 do
        t.active.(j) <- !lane;
        lane := next.(!lane)
      done;
      t.n_active <- n;
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

let run_template ?(config = default_config) reg tpl ~batch =
  let z = Vm_util.batch_size ~who:"Pc_vm" batch in
  let lanes = Lanes.bind ~config reg tpl ~z in
  for lane = 0 to z - 1 do
    Lanes.load lanes ~lane ~member:(config.member_base + lane)
      ~inputs:(List.map (fun t -> Tensor.slice_row t lane) batch)
  done;
  while Lanes.step lanes do
    ()
  done;
  (* Fresh tensors: the VM's storage buffers must not escape. *)
  Lanes.outputs lanes

let run ?config reg p ~batch = run_template ?config reg (Lanes.template p) ~batch
