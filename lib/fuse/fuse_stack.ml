type stats = {
  entries_duplicated : int;
  blocks_removed : int;
  ops_added : int;
}

(* Ops per duplicated entry. *)
let max_entry_ops = 32

let block_ops (b : Stack_ir.block) = List.length b.Stack_ir.ops

(* A callee entry is duplicable when it is straight-line stack code: no
   [Spop] (entry segments never restore caller saves, but stay defensive)
   and a terminator that is itself not a call. *)
let dup_ok (e : Stack_ir.block) =
  block_ops e <= max_entry_ops
  && List.for_all
       (function
         | Stack_ir.Spop _ -> false
         | Stack_ir.Sprim _ | Stack_ir.Sconst _ | Stack_ir.Smov _
         | Stack_ir.Spush _ -> true)
       e.Stack_ir.ops
  &&
  match e.Stack_ir.term with
  | Stack_ir.Spushjump _ | Stack_ir.Spushbranch _ -> false
  | Stack_ir.Sjump _ | Stack_ir.Sbranch _ | Stack_ir.Sreturn -> true

let run ?profile (p : Stack_ir.program) =
  let n = Array.length p.Stack_ir.blocks in
  let blocks = Array.copy p.Stack_ir.blocks in
  let total_ops = Array.fold_left (fun a b -> a + block_ops b) 0 blocks in
  let budget =
    ref
      (max 0
         (int_of_float ((Fuse_cfg.max_growth -. 1.) *. float_of_int (max total_ops 8))))
  in
  (* Candidate call sites. Dup sources are read from the original
     program: a source's terminator is never [Spushjump], so no source is
     itself a site and sites rewrite independently. *)
  let weight entry =
    match profile with
    | None -> 0.
    | Some pr -> Fuse_profile.func_weight pr (fst p.Stack_ir.origin.(entry))
  in
  let sites = ref [] in
  Array.iteri
    (fun i (b : Stack_ir.block) ->
      match b.Stack_ir.term with
      | Stack_ir.Spushjump { ret; entry }
        when dup_ok p.Stack_ir.blocks.(entry) ->
        sites := (i, ret, entry) :: !sites
      | _ -> ())
    blocks;
  let sites =
    List.sort
      (fun (ia, _, ea) (ib, _, eb) ->
        match compare (weight eb) (weight ea) with
        | 0 -> compare ia ib
        | c -> c)
      !sites
  in
  let duplicated = ref 0 in
  let ops_added = ref 0 in
  List.iter
    (fun (i, ret, entry) ->
      let e = p.Stack_ir.blocks.(entry) in
      let cost = block_ops e in
      if !budget >= cost then begin
        budget := !budget - cost;
        let term =
          match e.Stack_ir.term with
          | Stack_ir.Sjump j -> Stack_ir.Spushjump { ret; entry = j }
          | Stack_ir.Sbranch { cond; if_true; if_false } ->
            Stack_ir.Spushbranch { ret; cond; if_true; if_false }
          | Stack_ir.Sreturn -> Stack_ir.Sjump ret
          | Stack_ir.Spushjump _ | Stack_ir.Spushbranch _ -> assert false
        in
        blocks.(i) <-
          { Stack_ir.ops = blocks.(i).Stack_ir.ops @ e.Stack_ir.ops; term };
        incr duplicated;
        ops_added := !ops_added + cost
      end)
    sites;
  (* Unreachable elimination. Roots: the program entry (block 0) plus
     every function entry — the serving layer seeds lanes at function
     entries directly, so they stay alive even when every static call
     site duplicated them away. *)
  let reach = Array.make (max n 1) false in
  let rec go i =
    if i < n && not reach.(i) then begin
      reach.(i) <- true;
      match blocks.(i).Stack_ir.term with
      | Stack_ir.Sjump j -> go j
      | Stack_ir.Sbranch { if_true; if_false; _ } ->
        go if_true;
        go if_false
      | Stack_ir.Spushjump { ret; entry } ->
        go ret;
        go entry
      | Stack_ir.Spushbranch { ret; if_true; if_false; _ } ->
        go ret;
        go if_true;
        go if_false
      | Stack_ir.Sreturn -> ()
    end
  in
  if n > 0 then go 0;
  List.iter (fun (_, e) -> go e) p.Stack_ir.func_entries;
  let remap = Array.make (max n 1) (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if reach.(i) then begin
      remap.(i) <- !next;
      incr next
    end
  done;
  let n' = !next in
  (* Block references at or past the old block count (the conventional
     halt pc) keep pointing one past the new end. *)
  let target j = if j < n && remap.(j) >= 0 then remap.(j) else n' in
  let p' =
    if n' = n then { p with Stack_ir.blocks }
    else begin
      let blocks' = Array.make (max n' 1) blocks.(0) in
      let origin' = Array.make (max n' 1) ("", 0) in
      for i = 0 to n - 1 do
        if reach.(i) then begin
          let b = blocks.(i) in
          let term =
            match b.Stack_ir.term with
            | Stack_ir.Sjump j -> Stack_ir.Sjump (target j)
            | Stack_ir.Sbranch { cond; if_true; if_false } ->
              Stack_ir.Sbranch
                {
                  cond;
                  if_true = target if_true;
                  if_false = target if_false;
                }
            | Stack_ir.Spushjump { ret; entry } ->
              Stack_ir.Spushjump { ret = target ret; entry = target entry }
            | Stack_ir.Spushbranch { ret; cond; if_true; if_false } ->
              Stack_ir.Spushbranch
                {
                  ret = target ret;
                  cond;
                  if_true = target if_true;
                  if_false = target if_false;
                }
            | Stack_ir.Sreturn -> Stack_ir.Sreturn
          in
          blocks'.(remap.(i)) <- { b with Stack_ir.term };
          origin'.(remap.(i)) <- p.Stack_ir.origin.(i)
        end
      done;
      {
        p with
        Stack_ir.blocks = Array.sub blocks' 0 n';
        origin = Array.sub origin' 0 n';
        func_entries =
          List.filter_map
            (fun (fname, e) ->
              if e < n && reach.(e) then Some (fname, remap.(e)) else None)
            p.Stack_ir.func_entries;
      }
    end
  in
  ( p',
    {
      entries_duplicated = !duplicated;
      blocks_removed = n - n';
      ops_added = !ops_added;
    } )
