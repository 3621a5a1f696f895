open Ir_util

(* Fusion limits: ops per if-converted arm, ops copied per rotated latch,
   and the code-size growth factor bounding every duplicating rewrite. *)
let max_arm_ops = 24
let max_latch_ops = 16
let max_growth = 1.6

type stats = {
  jumps_threaded : int;
  chains_fused : int;
  branches_converted : int;
  latches_rotated : int;
  blocks_removed : int;
}

(* Mutable counters while the passes run; frozen into [stats] at the end. *)
type counters = {
  jumps : int ref;
  chains : int ref;
  branches : int ref;
  latches : int ref;
  removed : int ref;
}

(* Working state per function: the block array plus, for each block, the
   original block ids it absorbed (in execution order). *)
type work = {
  mutable blocks : Cfg.block array;
  mutable prov : int list array;
}

let preds w =
  let n = Array.length w.blocks in
  let p = Array.make n 0 in
  (* The entry has an implicit predecessor (the caller): never merge it
     upward or treat it as an exclusive arm. *)
  if n > 0 then p.(0) <- p.(0) + 1;
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter (fun s -> p.(s) <- p.(s) + 1) (Cfg.successors b.Cfg.term))
    w.blocks;
  p

(* ------------------------------------------------------------------ *)
(* Jump threading                                                      *)
(* ------------------------------------------------------------------ *)

let thread_jumps w (st : counters) =
  let n = Array.length w.blocks in
  let resolve j0 =
    (* Follow empty jump-only blocks; [fuel] breaks empty-jump cycles. *)
    let rec go j fuel =
      if fuel = 0 then j
      else
        match w.blocks.(j) with
        | { Cfg.ops = []; term = Cfg.Jump k } when k <> j -> go k (fuel - 1)
        | _ -> j
    in
    go j0 n
  in
  let changed = ref false in
  Array.iteri
    (fun i (b : Cfg.block) ->
      let retarget j =
        let j' = resolve j in
        if j' <> j then begin
          incr st.jumps;
          changed := true
        end;
        j'
      in
      let term' =
        match b.Cfg.term with
        | Cfg.Jump j -> Cfg.Jump (retarget j)
        | Cfg.Branch { cond; if_true; if_false } ->
          let t = retarget if_true in
          let f = retarget if_false in
          if t = f then begin
            (* Both arms agree: the branch is a jump (the cond read stays
               live through the op list, DCE may drop its producer). *)
            changed := true;
            incr st.jumps;
            Cfg.Jump t
          end
          else Cfg.Branch { cond; if_true = t; if_false = f }
        | Cfg.Return -> Cfg.Return
      in
      if term' <> b.Cfg.term then w.blocks.(i) <- { b with Cfg.term = term' })
    w.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Chain fusion                                                        *)
(* ------------------------------------------------------------------ *)

let merge_chains w (st : counters) =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let p = preds w in
    try
      Array.iteri
        (fun i (b : Cfg.block) ->
          match b.Cfg.term with
          | Cfg.Jump j when j <> i && j <> 0 && p.(j) = 1 ->
            let jb = w.blocks.(j) in
            w.blocks.(i) <-
              { Cfg.ops = b.Cfg.ops @ jb.Cfg.ops; term = jb.Cfg.term };
            w.prov.(i) <- w.prov.(i) @ w.prov.(j);
            (* [j] just lost its only predecessor; leave an inert husk for
               unreachable elimination to sweep. *)
            w.blocks.(j) <- { Cfg.ops = []; term = Cfg.Return };
            incr st.chains;
            changed := true;
            continue_ := true;
            raise Exit
          | _ -> ())
        w.blocks
    with Exit -> ()
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* If-conversion                                                       *)
(* ------------------------------------------------------------------ *)

(* An arm is speculatable when every op is a primitive/const/move the
   masked runtimes already run on every lane: the wrong-path results are
   computed into fresh temporaries and discarded by the select, so values
   are bitwise unchanged. Calls never speculate (they would change every
   lane's superstep trace), and non-deterministic (RNG) primitives only
   do when [speculate_rng] — by default RNG ops keep their exact order
   and count per lane. *)
let speculatable reg ~speculate_rng (ops : Cfg.op list) =
  List.length ops <= max_arm_ops
  && List.for_all
       (fun (op : Cfg.op) ->
         match op with
         | Cfg.Call_op _ -> false
         | Cfg.Const_op _ | Cfg.Mov _ -> true
         | Cfg.Prim_op { prim; _ } -> (
           match Prim.find reg prim with
           | None -> false
           | Some impl -> impl.Prim.deterministic || speculate_rng))
       ops

(* Rename every arm definition to a fresh name so the two speculated arms
   (and the incoming values) coexist in one block. Uses are substituted
   BEFORE the dst is renamed: an op reading its own destination must read
   the pre-assignment value. Returns the renamed ops and the final-name
   map for the arm's definitions. *)
let rename_arm fresh (ops : Cfg.op list) =
  let map : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let subst v = Option.value ~default:v (Hashtbl.find_opt map v) in
  let ops' =
    List.map
      (fun (op : Cfg.op) ->
        match op with
        | Cfg.Prim_op { dst; prim; args } ->
          let args = List.map subst args in
          let dst' = fresh dst in
          Hashtbl.replace map dst dst';
          Cfg.Prim_op { dst = dst'; prim; args }
        | Cfg.Const_op { dst; value } ->
          let dst' = fresh dst in
          Hashtbl.replace map dst dst';
          Cfg.Const_op { dst = dst'; value }
        | Cfg.Mov { dst; src } ->
          let src = subst src in
          let dst' = fresh dst in
          Hashtbl.replace map dst dst';
          Cfg.Mov { dst = dst'; src }
        | Cfg.Call_op _ ->
          (* Excluded by [speculatable]. *)
          assert false)
      ops
  in
  (ops', fun v -> Hashtbl.find_opt map v)

(* Definitions of an op list, in order of first definition. *)
let arm_defs (ops : Cfg.op list) =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun op ->
      List.filter
        (fun d ->
          if Hashtbl.mem seen d then false
          else begin
            Hashtbl.add seen d ();
            true
          end)
        (Cfg.op_defs op))
    ops

(* One sweep: find the first convertible branch, flatten it, signal via
   [Exit]. The caller loops (analyses must be recomputed after each
   rewrite). *)
let if_convert_pass w (st : counters) reg (fn : Cfg.func) ~speculate_rng
    ~fresh =
  let select_ok = Option.is_some (Prim.find reg "select") in
  if not select_ok then false
  else begin
    let changed = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let p = preds w in
      let tmp_fn = { fn with Cfg.blocks = w.blocks } in
      let lv = Liveness.analyze tmp_fn in
      let vars = Var_index.number tmp_fn in
      let din = Validate.must_defined tmp_fn vars in
      try
        Array.iteri
          (fun i (b : Cfg.block) ->
            match b.Cfg.term with
            | Cfg.Branch { cond; if_true = t; if_false = f } when t <> f -> (
              (* Candidate shapes. An "arm" is a single-predecessor
                 straight-line block ending in a jump to the join; [None]
                 means the branch edge goes straight to the join (a
                 triangle). Arms and the join must be distinct from the
                 branch block and the entry. *)
              let arm_of a =
                if a = 0 || a = i || p.(a) <> 1 then None
                else
                  match w.blocks.(a).Cfg.term with
                  | Cfg.Jump j when j <> a && j <> i -> Some j
                  | _ -> None
              in
              let candidate =
                match (arm_of t, arm_of f) with
                | Some jt, Some jf when jt = jf && jt <> t && jt <> f ->
                  Some (Some t, Some f, jt)
                | Some jt, _ when jt = f -> Some (Some t, None, f)
                | _, Some jf when jf = t -> Some (None, Some f, t)
                | _ -> None
              in
              match candidate with
              | None -> ()
              | Some (ta, fa, join) ->
                let arm_ops a =
                  match a with
                  | None -> []
                  | Some x -> w.blocks.(x).Cfg.ops
                in
                let t_ops = arm_ops ta in
                let f_ops = arm_ops fa in
                if
                  speculatable reg ~speculate_rng t_ops
                  && speculatable reg ~speculate_rng f_ops
                then begin
                  match din.(i) with
                  | None -> () (* unreachable branch: leave for cleanup *)
                  | Some din_i ->
                    let def_before = Array.copy din_i in
                    Array.iter (Var_index.add_all def_before)
                      (Var_index.op_defs vars ~block:i);
                    let def_before = Var_index.to_sset vars def_before in
                    let live_join = Liveness.live_in lv join in
                    let t_defs = arm_defs t_ops in
                    let f_defs = arm_defs f_ops in
                    let merged =
                      t_defs
                      @ List.filter (fun v -> not (List.mem v t_defs)) f_defs
                    in
                    (* Only variables live at the join need a select; a
                       one-arm definition is legal only when the other
                       path has a definite incoming value. *)
                    let selects_for =
                      List.filter (fun v -> Sset.mem v live_join) merged
                    in
                    let legal =
                      List.for_all
                        (fun v ->
                          (List.mem v t_defs && List.mem v f_defs)
                          || Sset.mem v def_before)
                        selects_for
                    in
                    if legal then begin
                      let t_ops', t_final = rename_arm fresh t_ops in
                      let f_ops', f_final = rename_arm fresh f_ops in
                      (* Stage the condition: the selects must read its
                         pre-arm value even if an arm redefines it. *)
                      let cstage = fresh cond in
                      let selects =
                        List.map
                          (fun v ->
                            let tv = Option.value ~default:v (t_final v) in
                            let fv = Option.value ~default:v (f_final v) in
                            Cfg.Prim_op
                              { dst = v; prim = "select"; args = [ cstage; tv; fv ] })
                          selects_for
                      in
                      w.blocks.(i) <-
                        {
                          Cfg.ops =
                            b.Cfg.ops
                            @ [ Cfg.Mov { dst = cstage; src = cond } ]
                            @ t_ops' @ f_ops' @ selects;
                          term = Cfg.Jump join;
                        };
                      let absorb a =
                        match a with
                        | None -> []
                        | Some x ->
                          let pv = w.prov.(x) in
                          w.blocks.(x) <- { Cfg.ops = []; term = Cfg.Return };
                          pv
                      in
                      w.prov.(i) <- w.prov.(i) @ absorb ta @ absorb fa;
                      incr st.branches;
                      changed := true;
                      continue_ := true;
                      raise Exit
                    end
                end)
            | _ -> ())
          w.blocks
      with Exit -> ()
    done;
    !changed
  end

(* ------------------------------------------------------------------ *)
(* Latch rotation (tail duplication)                                   *)
(* ------------------------------------------------------------------ *)

(* A block ending [Jump h] where [h] ends in a branch copies [h]'s ops
   and takes the branch itself: one fewer superstep every time that edge
   runs. Per-lane op sequences are unchanged (the lane runs the same ops,
   just merged into the predecessor's superstep), so this is always
   bitwise-safe — including across calls. Growth is bounded by
   [max_latch_ops] per site and the caller's remaining budget. *)
let rotate_latches w (st : counters) ~budget =
  let p = preds w in
  let changed = ref false in
  Array.iteri
    (fun i (b : Cfg.block) ->
      match b.Cfg.term with
      | Cfg.Jump h when h <> i -> (
        let hb = w.blocks.(h) in
        match hb.Cfg.term with
        | Cfg.Branch _ ->
          let cost = List.length hb.Cfg.ops in
          (* p.(h) = 1 is chain fusion's job (a move, not a copy). *)
          if p.(h) >= 2 && cost <= max_latch_ops && !budget >= cost then begin
            budget := !budget - cost;
            w.blocks.(i) <-
              { Cfg.ops = b.Cfg.ops @ hb.Cfg.ops; term = hb.Cfg.term };
            w.prov.(i) <- w.prov.(i) @ w.prov.(h);
            incr st.latches;
            changed := true
          end
        | _ -> ())
      | _ -> ())
    w.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Unreachable elimination                                             *)
(* ------------------------------------------------------------------ *)

let remove_unreachable w (st : counters) =
  let n = Array.length w.blocks in
  if n > 0 then begin
    let reach = Array.make n false in
    let rec go i =
      if not reach.(i) then begin
        reach.(i) <- true;
        List.iter go (Cfg.successors w.blocks.(i).Cfg.term)
      end
    in
    go 0;
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if reach.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    if !next < n then begin
      st.removed := !(st.removed) + (n - !next);
      let blocks' = Array.make !next w.blocks.(0) in
      let prov' = Array.make !next [] in
      for i = 0 to n - 1 do
        if reach.(i) then begin
          let b = w.blocks.(i) in
          let term =
            match b.Cfg.term with
            | Cfg.Jump j -> Cfg.Jump remap.(j)
            | Cfg.Branch { cond; if_true; if_false } ->
              Cfg.Branch
                { cond; if_true = remap.(if_true); if_false = remap.(if_false) }
            | Cfg.Return -> Cfg.Return
          in
          blocks'.(remap.(i)) <- { b with Cfg.term };
          prov'.(remap.(i)) <- w.prov.(i)
        end
      done;
      w.blocks <- blocks';
      w.prov <- prov'
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let fuse_func reg st ~speculate_rng ~hot (fname, (fn : Cfg.func)) =
  let w =
    {
      blocks = Array.copy fn.Cfg.blocks;
      prov = Array.init (Array.length fn.Cfg.blocks) (fun i -> [ i ]);
    }
  in
  let counter = ref 0 in
  let fresh v =
    incr counter;
    Printf.sprintf "%s$fz%d" v !counter
  in
  let orig_ops = Cfg.n_ops fn in
  (* Duplication budget in ops; small functions still get headroom. *)
  let budget =
    ref
      (max 0
         (int_of_float ((max_growth -. 1.) *. float_of_int (max orig_ops 8))))
  in
  (* Shrinking rewrites run to a fixpoint; each round strictly reduces the
     number of edges or branches, so [n_blocks + 4] rounds always suffice. *)
  let shrink () =
    let rec fix fuel =
      if fuel > 0 then begin
        let c1 = thread_jumps w st in
        let c2 = merge_chains w st in
        let c3 = if_convert_pass w st reg fn ~speculate_rng ~fresh in
        if c1 || c2 || c3 then fix (fuel - 1)
      end
    in
    fix (Array.length w.blocks + 4)
  in
  shrink ();
  if hot then begin
    let (_ : bool) = rotate_latches w st ~budget in
    shrink ()
  end;
  remove_unreachable w st;
  ((fname, { fn with Cfg.blocks = w.blocks }), (fname, w.prov))

let run ?(speculate_rng = false) ?func_weight reg (p : Cfg.program) =
  let st =
    {
      jumps = ref 0;
      chains = ref 0;
      branches = ref 0;
      latches = ref 0;
      removed = ref 0;
    }
  in
  let hot fname =
    (* Without a profile every function is fair game; with one, only
       functions the profile saw get the duplicating rewrites. *)
    match func_weight with None -> true | Some wf -> wf fname > 0.
  in
  let fused =
    List.map
      (fun ((fname, _) as entry) ->
        fuse_func reg st ~speculate_rng ~hot:(hot fname) entry)
      p.Cfg.funcs
  in
  let funcs = List.map fst fused in
  let prov = List.map snd fused in
  ( { p with Cfg.funcs },
    prov,
    {
      jumps_threaded = !(st.jumps);
      chains_fused = !(st.chains);
      branches_converted = !(st.branches);
      latches_rotated = !(st.latches);
      blocks_removed = !(st.removed);
    } )
