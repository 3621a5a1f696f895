type t = { capacity : int; mutable recent : int64 list (* newest first *) }

let create ~capacity = { capacity; recent = [] }

let admit t digest =
  if List.exists (Int64.equal digest) t.recent then begin
    t.recent <- List.filter (fun d -> not (Int64.equal d digest)) t.recent;
    true
  end
  else begin
    t.recent <- List.filteri (fun i _ -> i < t.capacity) (digest :: t.recent);
    false
  end
