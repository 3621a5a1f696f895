type t =
  | Earliest
  | Most_active
  | Round_robin
  | Cost_lookahead
  | Critical_path

type tables = { cost : float array; depth : float array }

let legacy = [ Earliest; Most_active; Round_robin ]
let all = legacy @ [ Cost_lookahead; Critical_path ]

let to_string = function
  | Earliest -> "earliest"
  | Most_active -> "most-active"
  | Round_robin -> "round-robin"
  | Cost_lookahead -> "cost-lookahead"
  | Critical_path -> "critical-path"

let of_string = function
  | "earliest" -> Some Earliest
  | "most-active" -> Some Most_active
  | "round-robin" -> Some Round_robin
  | "cost-lookahead" | "cost" -> Some Cost_lookahead
  | "critical-path" | "critical" -> Some Critical_path
  | _ -> None

let needs_tables = function
  | Cost_lookahead | Critical_path -> true
  | Earliest | Most_active | Round_robin -> false

let check_tables tables ~n =
  if Array.length tables.cost < n || Array.length tables.depth < n then
    invalid_arg "Sched_policy.pick: tables do not cover every block"

(* Argmax of [score] over runnable blocks, scanning high to low with >= so
   ties resolve to the lowest index — the same convention the seed's
   Most_active used, kept so every policy is reproducible by inspection. *)
let best_by counts score =
  let n = Array.length counts in
  let best = ref (-1) in
  for i = n - 1 downto 0 do
    if counts.(i) > 0 && (!best < 0 || score i >= score !best) then best := i
  done;
  if !best < 0 then None else Some !best

let pick ?tables policy ~last ~counts =
  let n = Array.length counts in
  let earliest () =
    let rec go i =
      if i >= n then None else if counts.(i) > 0 then Some i else go (i + 1)
    in
    go 0
  in
  match policy with
  | Earliest -> earliest ()
  | Most_active -> best_by counts (fun i -> float_of_int counts.(i))
  | Round_robin ->
    let rec go k remaining =
      if remaining = 0 then None
      else if counts.(k mod n) > 0 then Some (k mod n)
      else go (k + 1) (remaining - 1)
    in
    if n = 0 then None else go (last + 1) n
  | Cost_lookahead -> (
    match tables with
    | None -> best_by counts (fun i -> float_of_int counts.(i))
    | Some tb ->
      check_tables tb ~n;
      best_by counts (fun i -> float_of_int counts.(i) *. tb.cost.(i)))
  | Critical_path -> (
    match tables with
    | None -> earliest ()
    | Some tb ->
      check_tables tb ~n;
      (* Longest remaining road first; a straggler's next block drains
         toward halt as early as possible. Depth ties (common inside one
         fused region) fall back to the more active block. *)
      best_by counts (fun i ->
          (tb.depth.(i) *. 1e6) +. float_of_int counts.(i)))
