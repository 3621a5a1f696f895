(* Outside-in layer probes for the traced run.

   Each layer is measured by timing calls into its public functions from
   the benchmark's own code: every registry primitive's [batched] is
   wrapped with a timer, a counting sink reads the runtime's event
   stream, the serving source times its program-cache lookups, and the
   compile phases are re-run one by one in [Autobatch.compile]'s order.
   Nothing inside the program under test changes. *)

type acc = { mutable calls : int; mutable s : float; mutable words : float }

let acc () = { calls = 0; s = 0.; words = 0. }
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let add acc ~t0 ~w0 =
  acc.s <- acc.s +. (Calib.now () -. t0);
  acc.words <- acc.words +. (words () -. w0);
  acc.calls <- acc.calls + 1

type t = {
  prims : (string, acc) Hashtbl.t;
  mutable steps : int;  (** supersteps, from [Step] events *)
  mutable active : int;  (** sum of active lanes over [Occupancy] events *)
  mutable lanes : int;  (** sum of total lanes over [Occupancy] events *)
  cache_hit : acc;
  cache_miss : acc;
  source : acc;  (** the whole serving source closure, cache lookups included *)
}

let create () =
  {
    prims = Hashtbl.create 64;
    steps = 0;
    active = 0;
    lanes = 0;
    cache_hit = acc ();
    cache_miss = acc ();
    source = acc ();
  }

let prim_acc t name =
  match Hashtbl.find_opt t.prims name with
  | Some a -> a
  | None ->
    let a = acc () in
    Hashtbl.replace t.prims name a;
    a

let timed_prim t (p : Prim.t) =
  let a = prim_acc t p.Prim.name in
  let batched ~members args =
    let w0 = words () in
    let t0 = Calib.now () in
    let r = p.Prim.batched ~members args in
    add a ~t0 ~w0;
    r
  in
  { p with Prim.batched }

(* A copy of [reg] whose primitives time themselves into [t]. *)
let registry t reg =
  let r = Prim.copy reg in
  List.iter (fun n -> Prim.register r (timed_prim t (Prim.find_exn reg n))) (Prim.names reg);
  r

let sink t = function
  | Obs_sink.Step _ -> t.steps <- t.steps + 1
  | Obs_sink.Occupancy { active; total; _ } ->
    t.active <- t.active + active;
    t.lanes <- t.lanes + total
  | _ -> ()

let time acc f =
  let w0 = words () in
  let t0 = Calib.now () in
  let r = f () in
  add acc ~t0 ~w0;
  r

let prim_total t =
  Hashtbl.fold
    (fun _ a (c, s, w) -> (c + a.calls, s +. a.s, w +. a.words))
    t.prims (0, 0., 0.)

(* ---------- compile phases ---------- *)

(* [Autobatch.compile]'s phases for a program compiled with input shapes
   and no optimisation, each timed. Returns the phase times and the
   resulting stack program, which the caller compares with
   [Autobatch.compile]'s to know the mirror is still faithful. *)
let compile_phases reg shapes prog =
  let t0 = Calib.now () in
  Validate.check_exn reg prog;
  let t1 = Calib.now () in
  let cfg = Lower_cfg.lower prog in
  let t2 = Calib.now () in
  let inferred = Shape_infer.infer reg cfg ~inputs:shapes in
  let t3 = Calib.now () in
  let stack = Lower_stack.lower ~shapes:inferred cfg in
  let t4 = Calib.now () in
  ([| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3 |], stack)

let stack_size (p : Stack_ir.program) =
  ( Array.length p.Stack_ir.blocks,
    Array.fold_left (fun n b -> n + List.length b.Stack_ir.ops) 0 p.Stack_ir.blocks )
