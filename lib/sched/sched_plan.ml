type config = {
  refill : bool;
  steal : bool;
  compact : bool;
  steal_margin : int;
  max_moves : int;
}

let default =
  { refill = true; steal = true; compact = true; steal_margin = 2; max_moves = 1 }

let aggressive = { default with max_moves = max_int }

let no_migration =
  { refill = true; steal = false; compact = false; steal_margin = 2; max_moves = 0 }

let off = { no_migration with refill = false }

type partition = { offset : int; length : int }

let partition ~z ~shards =
  if z <= 0 then invalid_arg "Sched_plan.partition: batch must be positive";
  if shards <= 0 then invalid_arg "Sched_plan.partition: need at least one shard";
  let k = min shards z in
  let base = z / k and rem = z mod k in
  Array.init k (fun i ->
      let length = base + if i < rem then 1 else 0 in
      let offset = (i * base) + min i rem in
      { offset; length })

type view = { free : int list; live : int list }
type refill = { r_shard : int; r_lane : int }

type move = {
  m_src_shard : int;
  m_src_lane : int;
  m_dst_shard : int;
  m_dst_lane : int;
}

type plan = { refills : refill list; moves : move list }

let plan cfg ~pending ~views =
  if pending < 0 then invalid_arg "Sched_plan.plan: negative pending count";
  let k = Array.length views in
  (* Working copies: free ascending, live descending (donors give their
     highest lane first, so surviving members compact downward). *)
  let free = Array.map (fun v -> ref (List.sort_uniq compare v.free)) views in
  let live =
    Array.map
      (fun v -> ref (List.sort_uniq (fun a b -> compare b a) v.live))
      views
  in
  (* Refills: (shard, lane) order until the queue runs dry. *)
  let refills = ref [] in
  if cfg.refill then begin
    let remaining = ref pending in
    for s = 0 to k - 1 do
      while !remaining > 0 && !(free.(s)) <> [] do
        match !(free.(s)) with
        | [] -> ()
        | lane :: rest ->
          free.(s) := rest;
          live.(s) := lane :: List.filter (fun l -> l <> lane) !(live.(s));
          refills := { r_shard = s; r_lane = lane } :: !refills;
          decr remaining
      done
    done
  end;
  (* Steals: balance live counts while a move strictly helps. *)
  let moves = ref [] in
  if cfg.steal && cfg.max_moves > 0 then begin
    let margin = max 2 cfg.steal_margin in
    let continue = ref true in
    let budget = ref cfg.max_moves in
    while !continue && !budget > 0 do
      let donor = ref (-1) and recipient = ref (-1) in
      for s = k - 1 downto 0 do
        let n_live = List.length !(live.(s)) in
        if
          n_live > 0
          && (!donor < 0 || n_live >= List.length !(live.(!donor)))
        then donor := s;
        if
          !(free.(s)) <> []
          && (!recipient < 0 || n_live <= List.length !(live.(!recipient)))
        then recipient := s
      done;
      if
        !donor < 0 || !recipient < 0 || !donor = !recipient
        || List.length !(live.(!donor)) - List.length !(live.(!recipient))
           < margin
      then continue := false
      else begin
        match (!(live.(!donor)), !(free.(!recipient))) with
        | src_lane :: live_rest, dst_lane :: free_rest ->
          live.(!donor) := live_rest;
          free.(!donor) := List.sort_uniq compare (src_lane :: !(free.(!donor)));
          free.(!recipient) := free_rest;
          live.(!recipient) := dst_lane :: !(live.(!recipient));
          moves :=
            {
              m_src_shard = !donor;
              m_src_lane = src_lane;
              m_dst_shard = !recipient;
              m_dst_lane = dst_lane;
            }
            :: !moves;
          decr budget
        | _ -> continue := false
      end
    done
  end;
  (* Same-shard compaction: live members slide from the highest occupied
     lanes into the lowest free ones, so a pool's live region is a dense
     prefix. Unbounded (at most z/2 moves per shard per round) — these
     are on-device copies, not link transfers. *)
  if cfg.compact then
    for s = 0 to k - 1 do
      let continue = ref true in
      while !continue do
        match (!(live.(s)), !(free.(s))) with
        | src_lane :: live_rest, dst_lane :: free_rest when src_lane > dst_lane
          ->
          live.(s) := List.sort_uniq (fun a b -> compare b a) (dst_lane :: live_rest);
          free.(s) := List.sort_uniq compare (src_lane :: free_rest);
          moves :=
            {
              m_src_shard = s;
              m_src_lane = src_lane;
              m_dst_shard = s;
              m_dst_lane = dst_lane;
            }
            :: !moves
        | _ -> continue := false
      done
    done;
  { refills = List.rev !refills; moves = List.rev !moves }

let choose_lanes ~free ~width =
  if width <= 0 then invalid_arg "Sched_plan.choose_lanes: width must be positive";
  let picked = Array.make width 0 in
  let n = ref 0 in
  let i = ref 0 in
  let z = Array.length free in
  while !n < width && !i < z do
    if free.(!i) then begin
      picked.(!n) <- !i;
      incr n
    end;
    incr i
  done;
  if !n = width then Some picked else None
