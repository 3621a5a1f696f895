(* Unit weight per op covers the bookkeeping classes (const/mov/push/pop
   and the block's own control step); primitives add their registry flops
   estimate when the element shapes are inferred, so a gradient block
   weighs its real arithmetic against a two-op glue block. *)
let op_weight registry (p : Stack_ir.program) (op : Stack_ir.op) =
  match op with
  | Stack_ir.Sprim { prim; args; _ } -> (
    match registry with
    | None -> 1.
    | Some reg -> (
      match Prim.find reg prim with
      | None -> 1.
      | Some impl ->
        let shapes =
          List.map (fun a -> Ir_util.Smap.find_opt a p.Stack_ir.shapes) args
        in
        if List.exists Option.is_none shapes then 1.
        else 1. +. impl.Prim.flops (List.map Option.get shapes)))
  | Stack_ir.Sconst _ | Stack_ir.Smov _ | Stack_ir.Spush _ | Stack_ir.Spop _ ->
    1.

let stack_costs ?registry ?profile (p : Stack_ir.program) =
  Array.mapi
    (fun i (b : Stack_ir.block) ->
      let base =
        List.fold_left (fun acc op -> acc +. op_weight registry p op) 1. b.Stack_ir.ops
      in
      match profile with
      | None -> base
      | Some prof ->
        (* Profile weighting biases the lookahead toward historically hot
           blocks without zeroing cold ones (a block never seen in the
           profile keeps its static cost). *)
        let fn, local = p.Stack_ir.origin.(i) in
        base *. Float.max 1. (Fuse_profile.block_weight prof ~fn ~block:local))
    p.Stack_ir.blocks

let stack_successors (p : Stack_ir.program) i =
  match p.Stack_ir.blocks.(i).Stack_ir.term with
  | Stack_ir.Sjump j -> [ j ]
  | Stack_ir.Sbranch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Stack_ir.Spushjump { ret; entry } -> [ entry; ret ]
  | Stack_ir.Spushbranch { ret; if_true; if_false; _ } ->
    [ if_true; if_false; ret ]
  | Stack_ir.Sreturn -> []

(* Longest cost-weighted path to halt over forward edges only: scanning
   from the last block down, every successor with a larger index already
   has its depth, and back edges (loops) are dropped so the recurrence is
   a DAG pass. [Sreturn] continues at whatever pc lies below on the stack
   — unknowable statically — and halt is one possibility, so it scores as
   the end of the road. *)
let depths_of ~costs ~n successors =
  let depth = Array.make n 0. in
  for i = n - 1 downto 0 do
    let tail =
      List.fold_left
        (fun acc j -> if j > i && j < n then Float.max acc depth.(j) else acc)
        0. (successors i)
    in
    depth.(i) <- costs.(i) +. tail
  done;
  depth

let stack_depths ~costs (p : Stack_ir.program) =
  let n = Array.length p.Stack_ir.blocks in
  if Array.length costs <> n then
    invalid_arg "Sched_cost.stack_depths: costs do not cover every block";
  depths_of ~costs ~n (stack_successors p)

let stack_tables ?registry ?profile p =
  let cost = stack_costs ?registry ?profile p in
  { Sched_policy.cost; depth = stack_depths ~costs:cost p }

let func_costs (p : Cfg.program) ~fn =
  match List.assoc_opt fn (Optimize.block_op_counts p) with
  | Some counts -> Array.map (fun c -> 1. +. float_of_int c) counts
  | None ->
    invalid_arg (Printf.sprintf "Sched_cost.func_costs: unknown function %s" fn)

let func_tables (p : Cfg.program) ~fn =
  let f = Cfg.find_func_exn p fn in
  let cost = func_costs p ~fn in
  let n = Array.length f.Cfg.blocks in
  if Array.length cost <> n then
    invalid_arg "Sched_cost.func_tables: op counts disagree with block count";
  let succ i = Cfg.successors f.Cfg.blocks.(i).Cfg.term in
  { Sched_policy.cost; depth = depths_of ~costs:cost ~n succ }
