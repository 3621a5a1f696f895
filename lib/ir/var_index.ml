type t = {
  names : string array;
  params : int array;
  defs : int array array array;  (* block -> op -> defined indices *)
  uses : int array array array;  (* block -> op -> used indices *)
  terms : int array array;       (* block -> terminator uses *)
}

let number (f : Cfg.func) =
  let tbl = Hashtbl.create 32 in
  let rev_names = ref [] in
  let index x =
    match Hashtbl.find_opt tbl x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl x i;
      rev_names := x :: !rev_names;
      i
  in
  let indices l = Array.of_list (List.map index l) in
  let params = indices f.Cfg.params in
  let n = Array.length f.Cfg.blocks in
  let defs = Array.make n [||] and uses = Array.make n [||] and terms = Array.make n [||] in
  Array.iteri
    (fun i (b : Cfg.block) ->
      let ops = Array.of_list b.Cfg.ops in
      defs.(i) <- Array.map (fun op -> indices (Cfg.op_defs op)) ops;
      uses.(i) <- Array.map (fun op -> indices (Cfg.op_uses op)) ops;
      terms.(i) <- indices (Cfg.term_uses f b.Cfg.term))
    f.Cfg.blocks;
  { names = Array.of_list (List.rev !rev_names); params; defs; uses; terms }

let n_vars t = Array.length t.names
let name t i = t.names.(i)
let params t = t.params
let op_defs t ~block = t.defs.(block)
let op_uses t ~block = t.uses.(block)
let term_uses t ~block = t.terms.(block)

(* ---------- bitsets ---------- *)

type bits = int array

let width = Sys.int_size
let words t = (n_vars t + width - 1) / width
let empty t = Array.make (words t) 0

let full t =
  let b = empty t in
  for i = 0 to n_vars t - 1 do
    b.(i / width) <- b.(i / width) lor (1 lsl (i mod width))
  done;
  b

let mem b i = b.(i / width) land (1 lsl (i mod width)) <> 0

let add_all b is =
  Array.iter (fun i -> b.(i / width) <- b.(i / width) lor (1 lsl (i mod width))) is

let remove_all b is =
  Array.iter (fun i -> b.(i / width) <- b.(i / width) land lnot (1 lsl (i mod width))) is

let union_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let to_sset t b =
  let s = ref Ir_util.Sset.empty in
  Array.iteri (fun i x -> if mem b i then s := Ir_util.Sset.add x !s) t.names;
  !s
