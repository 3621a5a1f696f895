type slo = Latency_bound | Throughput | Best_effort

let n_slos = 3

let rank = function Latency_bound -> 0 | Throughput -> 1 | Best_effort -> 2

let of_rank = function
  | 0 -> Latency_bound
  | 1 -> Throughput
  | 2 -> Best_effort
  | r -> invalid_arg (Printf.sprintf "Tenant.of_rank: %d" r)

let slo_name = function
  | Latency_bound -> "latency"
  | Throughput -> "throughput"
  | Best_effort -> "best-effort"

type t = {
  id : int;
  name : string;
  slo : slo;
  rate : float;
  burst : float;
  quota : float;
  mutable tokens : float;
  mutable refilled_at : float;
  mutable submitted : int;
  mutable throttled : int;
  mutable completed : int;
  mutable cost_used : float;
}

let make ?(slo = Best_effort) ?(rate = infinity) ?burst ?(quota = infinity)
    ~id ~name () =
  let burst =
    match burst with
    | Some b -> b
    | None -> if rate = infinity then infinity else Float.max rate 1.
  in
  if rate <= 0. then invalid_arg "Tenant.make: rate must be positive";
  if burst <= 0. then invalid_arg "Tenant.make: burst must be positive";
  {
    id; name; slo; rate; burst; quota;
    tokens = burst;
    refilled_at = 0.;
    submitted = 0; throttled = 0; completed = 0; cost_used = 0.;
  }

let refill t ~now =
  if now > t.refilled_at then begin
    (* An unmetered bucket stays at [infinity]; the arithmetic below is
       still well-defined (inf + anything = inf, min inf burst = burst =
       inf) but short-circuit to keep NaN out of [inf - inf] corners. *)
    if t.rate <> infinity then
      t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.refilled_at) *. t.rate));
    t.refilled_at <- now
  end

let tokens_available t ~now =
  if t.rate = infinity then infinity
  else if now <= t.refilled_at then t.tokens
  else Float.min t.burst (t.tokens +. ((now -. t.refilled_at) *. t.rate))

let admit t ~now ~cost =
  refill t ~now;
  t.submitted <- t.submitted + 1;
  let bucket_ok = t.rate = infinity || t.tokens >= cost in
  let quota_ok = t.quota = infinity || t.cost_used +. cost <= t.quota in
  if bucket_ok && quota_ok then begin
    if t.rate <> infinity then t.tokens <- t.tokens -. cost;
    t.cost_used <- t.cost_used +. cost;
    true
  end
  else begin
    t.throttled <- t.throttled + 1;
    false
  end
