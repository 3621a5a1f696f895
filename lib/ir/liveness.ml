(* The fixpoint runs on bitsets over the function's variables, numbered
   once by [Var_index]; the accessors turn a result back into a string
   set. *)

type t = { vars : Var_index.t; live_in : Var_index.bits array; live_out : Var_index.bits array }

(* Transfer op [k] of [block] backward over a live set, in place. *)
let op_backward vars ~block live k =
  Var_index.remove_all live (Var_index.op_defs vars ~block).(k);
  Var_index.add_all live (Var_index.op_uses vars ~block).(k)

let analyze (f : Cfg.func) =
  let vars = Var_index.number f in
  let n = Array.length f.Cfg.blocks in
  (* Each block as live_in = gen ∪ (live_out \ kill): [gen] holds what it
     reads before writing (its terminator's uses included), [kill] what
     it writes. *)
  let gen =
    Array.init n (fun block ->
        let g = Var_index.empty vars in
        Var_index.add_all g (Var_index.term_uses vars ~block);
        for k = Array.length (Var_index.op_defs vars ~block) - 1 downto 0 do
          op_backward vars ~block g k
        done;
        g)
  in
  let kill =
    Array.init n (fun block ->
        let k = Var_index.empty vars in
        Array.iter (Var_index.add_all k) (Var_index.op_defs vars ~block);
        k)
  in
  let live_in = Array.init n (fun _ -> Var_index.empty vars) in
  let live_out = Array.init n (fun _ -> Var_index.empty vars) in
  (* Every set only grows from empty, so accumulating successors into
     [live_out] in place reaches the same least fixpoint as recomputing
     it; a sweep in which no [live_in] grows ends the loop. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out = live_out.(i) and inp = live_in.(i) and g = gen.(i) and k = kill.(i) in
      List.iter
        (fun j -> Var_index.union_into out live_in.(j))
        (Cfg.successors f.Cfg.blocks.(i).Cfg.term);
      for w = 0 to Array.length inp - 1 do
        let x = g.(w) lor (out.(w) land lnot k.(w)) in
        if x <> inp.(w) then begin
          inp.(w) <- x;
          changed := true
        end
      done
    done
  done;
  { vars; live_in; live_out }

let live_in t i = Var_index.to_sset t.vars t.live_in.(i)
let live_out t i = Var_index.to_sset t.vars t.live_out.(i)

let live_after_op t f ~block ~op =
  let n_ops = List.length f.Cfg.blocks.(block).Cfg.ops in
  if op < 0 || op >= n_ops then invalid_arg "Liveness.live_after_op: bad op index";
  (* Walk backward from the block end to just after op [op]. *)
  let live = Array.copy t.live_out.(block) in
  Var_index.add_all live (Var_index.term_uses t.vars ~block);
  for k = n_ops - 1 downto op + 1 do
    op_backward t.vars ~block live k
  done;
  Var_index.to_sset t.vars live

let cross_block_vars t (_ : Cfg.func) =
  let acc = Array.copy t.live_in.(0) in
  Array.iter (Var_index.union_into acc) t.live_out;
  Var_index.to_sset t.vars acc
