type kind = Device_kill | Kernel_poison | Link_drop

type event = { superstep : int; device : int; kind : kind }

exception Injected of event

(* A seeded plan: Bernoulli(rate) per superstep of the horizon, victim
   device and fault kind uniform — at most one event per superstep. One
   stream with a fixed draw order per superstep, so a (seed, rate,
   horizon) triple names the same plan everywhere. *)
let schedule ~seed ~rate ~horizon ?(devices = 1) ?(kinds = [ Device_kill ]) () =
  if rate < 0. || rate > 1. then invalid_arg "Fault.schedule: rate must be in [0,1]";
  if horizon < 0 then invalid_arg "Fault.schedule: horizon must be non-negative";
  if devices <= 0 then invalid_arg "Fault.schedule: need at least one device";
  if kinds = [] then invalid_arg "Fault.schedule: need at least one kind";
  let kinds = Array.of_list kinds in
  let s = Splitmix.Stream.create (Splitmix.hash2 0x4641554c54L (Int64.of_int seed)) in
  let events = ref [] in
  for superstep = 1 to horizon do
    if Splitmix.Stream.uniform s < rate then begin
      let device = Splitmix.Stream.int_below s devices in
      let kind = kinds.(Splitmix.Stream.int_below s (Array.length kinds)) in
      events := { superstep; device; kind } :: !events
    end
  done;
  List.rev !events

(* The injector owns its own monotone wall clock, deliberately *outside*
   any checkpoint: restoring a VM rewinds the VM's step counter but not
   wall time, so each planned event fires exactly once — the recovered run
   re-executes the lost supersteps without re-suffering the same fault. *)
type injector = {
  mutable pending : event list;  (* ascending superstep *)
  mutable clock : int;
  mutable fired : event list;    (* newest first *)
}

let injector plan =
  let sorted = List.stable_sort (fun a b -> compare a.superstep b.superstep) plan in
  { pending = sorted; clock = 0; fired = [] }

let injected t = List.length t.fired

(* Drop events whose superstep has passed without firing (e.g. a
   kernel-poison scheduled on a superstep that launched nothing). Keeps
   the injector progressing and every event at-most-once. *)
let expire t =
  let rec go () =
    match t.pending with
    | e :: rest when e.superstep < t.clock ->
      t.pending <- rest;
      go ()
    | _ -> ()
  in
  go ()

let fire t e rest =
  t.pending <- rest;
  t.fired <- e :: t.fired;
  raise (Injected e)

let tick t =
  t.clock <- t.clock + 1;
  expire t;
  match t.pending with
  | ({ kind = Device_kill; superstep; _ } as e) :: rest when superstep = t.clock ->
    fire t e rest
  | _ -> ()

let launch_check t =
  match t.pending with
  | ({ kind = Kernel_poison; superstep; _ } as e) :: rest when superstep = t.clock ->
    fire t e rest
  | _ -> ()

(* The injector as an observability sink: the same seam a tracer
   observes is the seam faults enter through. *)
let sink t : Obs_sink.t = function
  | Obs_sink.Step _ -> tick t
  | Obs_sink.Launch _ -> launch_check t
  | _ -> ()

let drops_now t =
  let rec go acc =
    match t.pending with
    | ({ kind = Link_drop; superstep; _ } as e) :: rest when superstep = t.clock ->
      t.pending <- rest;
      t.fired <- e :: t.fired;
      go (e :: acc)
    | _ -> List.rev acc
  in
  go []
