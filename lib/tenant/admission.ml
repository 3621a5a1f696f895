type item = { tenant : Tenant.t; request : Request.t; digest : int64 }

let item_slo it = it.tenant.Tenant.slo
let item_rank it = Tenant.rank (item_slo it)

type level = Normal | Shed_best_effort | Cap_width | Reject_new

let level_of_rung = function
  | 0 -> Normal
  | 1 -> Shed_best_effort
  | 2 -> Cap_width
  | _ -> Reject_new

let level_name = function
  | Normal -> "normal"
  | Shed_best_effort -> "shed-best-effort"
  | Cap_width -> "cap-width"
  | Reject_new -> "reject-new"

type reason = Queue_full | Overloaded of level | Invalid_input | Too_wide

let reason_name = function
  | Queue_full -> "queue-full"
  | Invalid_input -> "invalid-input"
  | Too_wide -> "too-wide"
  | Overloaded l -> "overloaded:" ^ level_name l

type mode = Fair | Fifo | Shortest_first

type config = { mode : mode; depth : int; high_water : float; low_water : float }

let default = { mode = Fair; depth = 64; high_water = 0.75; low_water = 0.5 }

(* Dispatch share per {!Tenant.rank}, and the widest request admitted
   at [Cap_width]. *)
let weights = [| 6; 3; 1 |]
let cap_width = 1
let weight it = weights.(item_rank it)

let fifo ?depth () =
  let depth = match depth with Some d -> d | None -> Tenant.n_slos * default.depth in
  { default with mode = Fifo; depth }

let capacity config =
  match config.mode with
  | Fair -> Tenant.n_slos * config.depth
  | Fifo | Shortest_first -> config.depth

(* A tiny mutable FIFO deque: [front] holds the head in order, [back]
   the tail reversed, [len] counts both so lengths are O(1). *)
type dq = { mutable front : item list; mutable back : item list; mutable len : int }

let dq_create () = { front = []; back = []; len = 0 }
let dq_length d = d.len
let dq_is_empty d = d.len = 0

let dq_norm d =
  if d.front = [] then begin
    d.front <- List.rev d.back;
    d.back <- []
  end

let dq_push d it =
  d.back <- it :: d.back;
  d.len <- d.len + 1

let dq_push_front d it =
  d.front <- it :: d.front;
  d.len <- d.len + 1

let dq_peek d =
  dq_norm d;
  match d.front with [] -> None | it :: _ -> Some it

let dq_pop d =
  dq_norm d;
  match d.front with
  | [] -> None
  | it :: rest ->
    d.front <- rest;
    d.len <- d.len - 1;
    Some it

(* The oldest element of [back] (newest first) satisfying [pred], and
   [back] without it. [pred] sees the elements oldest first and none past
   the match, as it would on the normalized queue. *)
let rec remove_oldest pred = function
  | [] -> None
  | x :: older -> (
    match remove_oldest pred older with
    | Some (y, older') -> Some (y, x :: older')
    | None -> if pred x then Some (x, older) else None)

(* Remove the first (oldest) element satisfying [pred], without
   normalizing: [front] is searched in place, then [back]; only the
   elements ahead of the match are rebuilt. *)
let dq_pop_first d pred =
  let rec split acc = function
    | [] -> None
    | x :: tl ->
      if pred x then begin
        d.front <- List.rev_append acc tl;
        Some x
      end
      else split (x :: acc) tl
  in
  let found =
    match split [] d.front with
    | Some _ as found -> found
    | None -> (
      match remove_oldest pred d.back with
      | Some (x, back) ->
        d.back <- back;
        Some x
      | None -> None)
  in
  if Option.is_some found then d.len <- d.len - 1;
  found

let dq_exists d pred = List.exists pred d.front || List.exists pred d.back

type t = {
  config : config;
  queues : dq array;
      (* indexed by Tenant.rank; the single-queue modes use index 0 only *)
  credits : int array;
  mutable rung : int;
  notify : (new_level:level -> occupancy:float -> unit) option;
}

let create ?(config = default) ?on_transition () =
  if config.depth <= 0 then invalid_arg "Admission.create: depth must be positive";
  if not (config.low_water < config.high_water) then
    invalid_arg "Admission.create: low_water must sit below high_water";
  {
    config;
    queues = Array.init Tenant.n_slos (fun _ -> dq_create ());
    credits = Array.make Tenant.n_slos 0;
    rung = 0;
    notify = on_transition;
  }

let level t = level_of_rung t.rung

let length t = Array.fold_left (fun acc d -> acc + dq_length d) 0 t.queues

let occupancy t = float_of_int (length t) /. float_of_int (capacity t.config)

let class_length t slo =
  match t.config.mode with
  | Fifo | Shortest_first ->
    (* The single-queue modes are class-blind; count by inspection. *)
    let count l = List.length (List.filter (fun it -> item_slo it = slo) l) in
    count t.queues.(0).front + count t.queues.(0).back
  | Fair -> dq_length t.queues.(Tenant.rank slo)

(* The degradation ladder: rung r engages when occupancy crosses
   [high_water + (r-1)/3 · (1 - high_water)] and releases when it falls
   back below the same threshold shifted down by the hysteresis band
   [high_water - low_water]. *)
let up_threshold config r =
  config.high_water
  +. (float_of_int (r - 1) /. 3. *. (1. -. config.high_water))

let down_threshold config r =
  up_threshold config r -. (config.high_water -. config.low_water)

let update_ladder t =
  if t.config.mode = Fair then begin
    let before = t.rung in
    let occ = occupancy t in
    let desired = ref 0 in
    for r = 1 to 3 do
      if occ >= up_threshold t.config r then desired := r
    done;
    if !desired > t.rung then t.rung <- !desired
    else
      while t.rung > 0 && occ < down_threshold t.config t.rung do
        t.rung <- t.rung - 1
      done;
    match t.notify with
    | Some notify when t.rung <> before ->
      notify ~new_level:(level_of_rung t.rung) ~occupancy:occ
    | _ -> ()
  end

(* The weakest (highest-rank) non-empty class; shedding victimizes it. *)
let weakest_nonempty t =
  let found = ref None in
  for r = Tenant.n_slos - 1 downto 0 do
    match !found with
    | Some _ -> ()
    | None -> if not (dq_is_empty t.queues.(r)) then found := Some r
  done;
  !found

let offer_fair t it =
  update_ladder t;
  let rank = item_rank it in
  let refused =
    match level t with
    | Reject_new -> Some (Overloaded Reject_new)
    | Cap_width ->
      if rank = Tenant.rank Tenant.Best_effort then
        Some (Overloaded Shed_best_effort)
      else if Request.width it.request > cap_width then
        Some (Overloaded Cap_width)
      else None
    | Shed_best_effort ->
      if rank = Tenant.rank Tenant.Best_effort then
        Some (Overloaded Shed_best_effort)
      else None
    | Normal -> None
  in
  match refused with
  | Some r -> `Rejected r
  | None ->
    if length t < capacity t.config then begin
      dq_push t.queues.(rank) it;
      update_ladder t;
      `Admitted
    end
    else begin
      match weakest_nonempty t with
      | Some victim_rank when victim_rank >= rank ->
        (* Drop the oldest of the weakest class — never a class strictly
           stronger than the offer — and take its slot. *)
        let victim =
          match dq_pop t.queues.(victim_rank) with
          | Some v -> v
          | None -> assert false
        in
        dq_push t.queues.(rank) it;
        `Shed victim
      | _ ->
        (* Everything queued outranks the offer: the offer is the
           victim. *)
        `Shed it
    end

let offer_fifo t it =
  if dq_length t.queues.(0) < t.config.depth then begin
    dq_push t.queues.(0) it;
    `Admitted
  end
  else `Rejected Queue_full

let offer t it =
  match t.config.mode with
  | Fair -> offer_fair t it
  | Fifo | Shortest_first -> offer_fifo t it

let top_up_credits t =
  (* A new dispatch round: every backlogged class earns its weight. *)
  let any = ref false in
  for r = 0 to Tenant.n_slos - 1 do
    if (not (dq_is_empty t.queues.(r))) && t.credits.(r) > 0 then any := true
  done;
  if not !any then
    for r = 0 to Tenant.n_slos - 1 do
      if not (dq_is_empty t.queues.(r)) then
        t.credits.(r) <- t.credits.(r) + weights.(r)
    done

let pop_fair t ~fits =
  if length t = 0 then None
  else begin
    let try_dispatch () =
      let result = ref None in
      let r = ref 0 in
      while !result = None && !r < Tenant.n_slos do
        let rank = !r in
        (if t.credits.(rank) > 0 then
           (* Oldest fitting item of the class, not just the head: the
              server pops by program digest, and a non-fitting head must
              not wedge fitting work queued behind it. Arrival order per
              digest is preserved, so replay stays deterministic. *)
           match dq_pop_first t.queues.(rank) fits with
           | Some it ->
             t.credits.(rank) <- t.credits.(rank) - 1;
             result := Some it
           | None -> ());
        incr r
      done;
      !result
    in
    top_up_credits t;
    let result =
      match try_dispatch () with
      | Some it -> Some it
      | None ->
        (* Nothing with credit fit. A fitting class whose credit ran dry
           must not starve behind non-fitting classes that hold credit:
           reset the round and retry once. *)
        let fits_somewhere = Array.exists (fun q -> dq_exists q fits) t.queues in
        if fits_somewhere then begin
          Array.fill t.credits 0 Tenant.n_slos 0;
          top_up_credits t;
          try_dispatch ()
        end
        else None
    in
    update_ladder t;
    result
  end

let pop_fifo t ~fits =
  (* Strict arrival order across every class — SLO-blind — skipping only
     items that cannot be placed right now (wrong program, too wide).
     The skip keeps a multi-program queue live; the blindness is the
     baseline's pathology. *)
  dq_pop_first t.queues.(0) fits

(* Shortest-expected-first: the fitting item with the smallest cost
   hint; the first one found in queue (arrival) order wins a tie. *)
let pop_shortest t ~fits =
  let q = t.queues.(0) in
  let shorter best it =
    if not (fits it) then best
    else
      match best with
      | Some b when b.request.Request.cost_hint <= it.request.Request.cost_hint -> best
      | _ -> Some it
  in
  let best = List.fold_left shorter (List.fold_left shorter None q.front) (List.rev q.back) in
  match best with None -> None | Some b -> dq_pop_first q (fun it -> it == b)

let pop t ~fits =
  match t.config.mode with
  | Fair -> pop_fair t ~fits
  | Fifo -> pop_fifo t ~fits
  | Shortest_first -> pop_shortest t ~fits

let push_front t it =
  match t.config.mode with
  | Fifo | Shortest_first -> dq_push_front t.queues.(0) it
  | Fair ->
    dq_push_front t.queues.(item_rank it) it;
    update_ladder t

let peek_strongest_waiting t =
  match t.config.mode with
  | Fifo | Shortest_first -> dq_peek t.queues.(0)
  | Fair ->
    let found = ref None in
    for r = Tenant.n_slos - 1 downto 0 do
      match dq_peek t.queues.(r) with
      | Some it -> found := Some it
      | None -> ()
    done;
    !found

let iter t f =
  Array.iter
    (fun q ->
      List.iter f q.front;
      List.iter f (List.rev q.back))
    t.queues

let requeue_order items =
  List.sort
    (fun a b ->
      match compare a.request.Request.arrival b.request.Request.arrival with
      | 0 -> compare a.request.Request.id b.request.Request.id
      | c -> c)
    items
