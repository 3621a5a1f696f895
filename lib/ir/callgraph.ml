open Ir_util

type t = { direct : Sset.t Smap.t; reach : Sset.t Smap.t }

let direct_callees (f : Cfg.func) =
  Array.fold_left
    (fun acc (b : Cfg.block) ->
      List.fold_left
        (fun acc op ->
          match op with
          | Cfg.Call_op { func; _ } -> Sset.add func acc
          | Cfg.Prim_op _ | Cfg.Const_op _ | Cfg.Mov _ -> acc)
        acc b.Cfg.ops)
    Sset.empty f.Cfg.blocks

let build (p : Cfg.program) =
  let direct =
    List.fold_left
      (fun acc (name, f) -> Smap.add name (direct_callees f) acc)
      Smap.empty p.Cfg.funcs
  in
  let lookup name = Option.value ~default:Sset.empty (Smap.find_opt name direct) in
  let reach_one start =
    let seen = ref (Sset.singleton start) in
    let rec visit f =
      Sset.iter
        (fun g ->
          if not (Sset.mem g !seen) then begin
            seen := Sset.add g !seen;
            visit g
          end)
        (lookup f)
    in
    visit start;
    !seen
  in
  let reach =
    List.fold_left
      (fun acc (name, _) -> Smap.add name (reach_one name) acc)
      Smap.empty p.Cfg.funcs
  in
  { direct; reach }

let callees t name = Option.value ~default:Sset.empty (Smap.find_opt name t.direct)
let reachable t name = Option.value ~default:(Sset.singleton name) (Smap.find_opt name t.reach)

let may_clobber_caller t ~caller ~callee = Sset.mem caller (reachable t callee)
