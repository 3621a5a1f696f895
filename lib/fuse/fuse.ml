type options = {
  inline_entries : bool;
  speculate_rng : bool;
  profile : Fuse_profile.t option;
}

let default_options =
  { inline_entries = true; speculate_rng = false; profile = None }

type report = {
  cfg_blocks_before : int;
  cfg_blocks_after : int;
  cfg_ops_before : int;
  cfg_ops_after : int;
  stack_blocks_before : int;
  stack_blocks_after : int;
  stack_ops_before : int;
  stack_ops_after : int;
  cfg_stats : Fuse_cfg.stats;
  stack_stats : Fuse_stack.stats;
  megablocks : (string * int list array) list;
  kernel_sizes : int array;
  func_ops : (string * int) list;
  block_ops : (string * int array) list;
}

(* CFG-stage result carried to the stack stage so the final report spans
   both levels. *)
type staged = {
  s_options : options;
  s_cfg_blocks_before : int;
  s_cfg_blocks_after : int;
  s_cfg_ops_before : int;
  s_cfg_ops_after : int;
  s_cfg_stats : Fuse_cfg.stats;
  s_megablocks : (string * int list array) list;
  s_func_ops : (string * int) list;
  s_block_ops : (string * int array) list;
}

let count_blocks (p : Cfg.program) =
  List.fold_left
    (fun acc (_, (fn : Cfg.func)) -> acc + Array.length fn.Cfg.blocks)
    0 p.Cfg.funcs

let stack_ops (p : Stack_ir.program) =
  Array.fold_left
    (fun acc (b : Stack_ir.block) -> acc + List.length b.Stack_ir.ops)
    0 p.Stack_ir.blocks

let func_weight_of options =
  match options.profile with
  | Some pr when not (Fuse_profile.is_empty pr) ->
    Some (Fuse_profile.func_weight pr)
  | Some _ | None -> None

let apply_cfg ?(options = default_options) reg (p : Cfg.program) =
  let blocks_before = count_blocks p in
  let ops_before = Optimize.count_ops p in
  let fused, megablocks, cfg_stats =
    Fuse_cfg.run ~speculate_rng:options.speculate_rng
      ?func_weight:(func_weight_of options) reg p
  in
  ( fused,
    {
      s_options = options;
      s_cfg_blocks_before = blocks_before;
      s_cfg_blocks_after = count_blocks fused;
      s_cfg_ops_before = ops_before;
      s_cfg_ops_after = Optimize.count_ops fused;
      s_cfg_stats = cfg_stats;
      s_megablocks = megablocks;
      s_func_ops = Optimize.func_op_counts fused;
      s_block_ops = Optimize.block_op_counts fused;
    } )

let apply_stack (st : staged) (p : Stack_ir.program) =
  let blocks_before = Array.length p.Stack_ir.blocks in
  let ops_before = stack_ops p in
  let fused, stack_stats =
    if st.s_options.inline_entries then
      Fuse_stack.run ?profile:st.s_options.profile p
    else (p, { Fuse_stack.entries_duplicated = 0; blocks_removed = 0; ops_added = 0 })
  in
  ( fused,
    {
      cfg_blocks_before = st.s_cfg_blocks_before;
      cfg_blocks_after = st.s_cfg_blocks_after;
      cfg_ops_before = st.s_cfg_ops_before;
      cfg_ops_after = st.s_cfg_ops_after;
      stack_blocks_before = blocks_before;
      stack_blocks_after = Array.length fused.Stack_ir.blocks;
      stack_ops_before = ops_before;
      stack_ops_after = stack_ops fused;
      cfg_stats = st.s_cfg_stats;
      stack_stats;
      megablocks = st.s_megablocks;
      kernel_sizes =
        Array.map
          (fun (b : Stack_ir.block) -> List.length b.Stack_ir.ops)
          fused.Stack_ir.blocks;
      func_ops = st.s_func_ops;
      block_ops = st.s_block_ops;
    } )

let megablock_count r =
  List.fold_left
    (fun acc (_, groups) ->
      Array.fold_left
        (fun acc g -> if List.length g > 1 then acc + 1 else acc)
        acc groups)
    0 r.megablocks

let blocks_saved r =
  (r.cfg_blocks_before - r.cfg_blocks_after)
  + (r.stack_blocks_before - r.stack_blocks_after)

let to_json (r : report) =
  let open Obs_json in
  let int_list l = List (List.map (fun i -> Int i) l) in
  Obs_report.document ~name:"fuse"
    [
      ( "cfg",
        Obj
          [
            ("blocks_before", Int r.cfg_blocks_before);
            ("blocks_after", Int r.cfg_blocks_after);
            ("ops_before", Int r.cfg_ops_before);
            ("ops_after", Int r.cfg_ops_after);
            ("jumps_threaded", Int r.cfg_stats.Fuse_cfg.jumps_threaded);
            ("chains_fused", Int r.cfg_stats.Fuse_cfg.chains_fused);
            ("branches_converted", Int r.cfg_stats.Fuse_cfg.branches_converted);
            ("latches_rotated", Int r.cfg_stats.Fuse_cfg.latches_rotated);
            ("blocks_removed", Int r.cfg_stats.Fuse_cfg.blocks_removed);
          ] );
      ( "stack",
        Obj
          [
            ("blocks_before", Int r.stack_blocks_before);
            ("blocks_after", Int r.stack_blocks_after);
            ("ops_before", Int r.stack_ops_before);
            ("ops_after", Int r.stack_ops_after);
            ( "entries_duplicated",
              Int r.stack_stats.Fuse_stack.entries_duplicated );
            ("blocks_removed", Int r.stack_stats.Fuse_stack.blocks_removed);
            ("ops_added", Int r.stack_stats.Fuse_stack.ops_added);
          ] );
      ("blocks_saved", Int (blocks_saved r));
      ("megablock_count", Int (megablock_count r));
      ( "megablocks",
        Obj
          (List.map
             (fun (fn, groups) ->
               ( fn,
                 List
                   (Array.to_list groups
                   |> List.filter (fun g -> List.length g > 1)
                   |> List.map int_list) ))
             r.megablocks) );
      ("kernel_sizes", int_list (Array.to_list r.kernel_sizes));
      ( "func_ops",
        Obj (List.map (fun (fn, n) -> (fn, Int n)) r.func_ops) );
      ( "block_ops",
        Obj
          (List.map
             (fun (fn, counts) -> (fn, int_list (Array.to_list counts)))
             r.block_ops) );
    ]

let print (r : report) =
  Printf.printf
    "fuse: cfg %d->%d blocks (%d->%d ops), stack %d->%d blocks (%d->%d ops)\n"
    r.cfg_blocks_before r.cfg_blocks_after r.cfg_ops_before r.cfg_ops_after
    r.stack_blocks_before r.stack_blocks_after r.stack_ops_before
    r.stack_ops_after;
  Printf.printf
    "  threaded %d jumps, fused %d chains, if-converted %d branches, rotated \
     %d latches, duplicated %d call entries\n"
    r.cfg_stats.Fuse_cfg.jumps_threaded r.cfg_stats.Fuse_cfg.chains_fused
    r.cfg_stats.Fuse_cfg.branches_converted
    r.cfg_stats.Fuse_cfg.latches_rotated
    r.stack_stats.Fuse_stack.entries_duplicated;
  List.iter
    (fun (fn, groups) ->
      Array.iteri
        (fun bi g ->
          if List.length g > 1 then
            Printf.printf "  megablock %s#%d <- {%s}\n" fn bi
              (String.concat ", " (List.map string_of_int g)))
        groups)
    r.megablocks
