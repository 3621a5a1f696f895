(* Programs, inputs and reference results the benchmark owns.

   Everything here is built before any timing starts and is a pure
   function of the seed, so the program under test only ever receives
   generated inputs. Fixture parts that shape the workload rather than
   its inputs (the logistic-regression data set, step sizes, the
   starting region of the chains) are seed-independent, so that
   different seeds exercise the same workload. *)

let stream ~seed salt = Splitmix.Stream.create (Splitmix.hash2 seed (Int64.of_int salt))

(* ---------- fib ---------- *)

let fib_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

(* Closed forms of the program above: its value, and how many calls it
   makes (the useful work of one lane). *)
let rec fib n = if n <= 1 then 1. else fib (n - 1) +. fib (n - 2)
let rec fib_calls n = if n <= 1 then 1 else 1 + fib_calls (n - 1) + fib_calls (n - 2)

(* ---------- NUTS ---------- *)

type nuts = {
  registry : Prim.registry;
  program : Lang.program;
  shapes : Shape.t list;
  batches : Tensor.t list array;  (** pool of batched program inputs *)
  reference : Tensor.t array array;  (** per pool entry, per chain: final q *)
  grads : float array;  (** per pool entry: useful gradient evaluations *)
}

(* [chains] chains per batch, one trajectory each, starting near a
   posterior draw: the steady-state work of a sampler, as in Figure 5.
   The step size is tuned by dual averaging and the starting region is
   found by a short HMC run; both use a fixed stream. The seed draws the
   RNG key and each chain's starting jitter. The reference is the
   single-chain sampler's trajectory.

   A batch runs as long as its longest chain, and trajectory lengths
   vary a lot, so with [same_longest] only batches whose longest chain
   takes the most common number of gradient steps (among the first
   [pool] drawn) are kept: runs of different inputs and seeds then cost
   about the same. *)
let nuts ~model ~seed ~chains ~pool ~same_longest =
  let dim = model.Model.dim in
  let tune = Splitmix.Stream.create 0x7E57L in
  let q_start = Tensor.zeros [| dim |] in
  let eps =
    Hmc.warmup_eps ~model ~stream:tune ~q0:q_start ~eps0:0.1 ~n_leapfrog:8 ()
  in
  let center =
    (Hmc.sample_chain
       { Hmc.eps; n_leapfrog = 8; minv = None }
       ~model ~stream:tune ~q0:q_start ~n_iter:40)
      .Hmc.final_q
  in
  let registry, key = Nuts_dsl.setup ~seed ~model () in
  let cfg = Nuts.default_config ~eps () in
  let program = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let counting, grads = Model.with_grad_counter model in
  (* Candidate batch [c]: returns the program inputs, each chain's final
     position, the batch's gradient evaluations and its longest chain's. *)
  let candidate c =
    let s = stream ~seed c in
    let q0s =
      Array.init chains (fun _ ->
          Tensor.init [| dim |] (fun i ->
              (Tensor.data center).(i.(0)) +. (0.1 *. Splitmix.Stream.normal s)))
    in
    (* Draws are keyed on (seed, member, counter): starting every batch's
       counter far apart gives each batch its own random streams. *)
    let counter = c * 1_000_000 in
    let batch =
      match Nuts_dsl.inputs ~q0:center ~eps ~n_iter:1 ~n_burn:0 ~batch:chains () with
      | [ _; eps; n_iter; n_burn; _; minv ] ->
        [
          Tensor.stack_rows (Array.to_list q0s);
          eps;
          n_iter;
          n_burn;
          Tensor.full [| chains |] (float_of_int counter);
          minv;
        ]
      | _ -> assert false
    in
    let g0 = !grads and longest = ref 0 in
    let final =
      Array.mapi
        (fun member q ->
          let before = !grads in
          let q, _, _ = Nuts.trajectory cfg ~model:counting ~key ~member ~q ~counter in
          longest := max !longest (!grads - before);
          q)
        q0s
    in
    (batch, final, float_of_int (!grads - g0), !longest)
  in
  let first = List.init pool candidate in
  let entries =
    if not same_longest then first
    else begin
      let longest (_, _, _, l) = l in
      let count l = List.length (List.filter (fun e -> longest e = l) first) in
      let mode =
        List.fold_left (fun m e -> if count (longest e) > count m then longest e else m)
          (longest (List.hd first)) first
      in
      let rec fill kept c =
        if List.length kept = pool || c >= 16 * pool then kept
        else
          let e = candidate c in
          fill (if longest e = mode then kept @ [ e ] else kept) (c + 1)
      in
      fill (List.filter (fun e -> longest e = mode) first) pool
    end
  in
  let entries = Array.of_list entries in
  {
    registry;
    program;
    shapes = Nuts_dsl.input_shapes ~model;
    batches = Array.map (fun (b, _, _, _) -> b) entries;
    reference = Array.map (fun (_, r, _, _) -> r) entries;
    grads = Array.map (fun (_, _, g, _) -> g) entries;
  }

(* ---------- serving ---------- *)

(* Member [k] of a structurally varied family of while-loop programs:
   arithmetic chain depth, an optional divergent branch and an optional
   counter-based RNG draw vary with [k], and a [k]-derived constant gives
   every member its own program-cache digest. Parameters are the trip
   count [n], the start value [x] and the RNG counter [cnt]; two
   outputs. *)
let family_program ~k =
  let a = 0.125 *. float_of_int (1 + (k mod 7)) in
  let m = 1.0 -. (0.01 *. float_of_int (k mod 5)) in
  let depth = 1 + (k mod 3) in
  let use_rng = k mod 3 = 0 in
  let diverge = k mod 5 = 2 in
  let kf = 1e-3 *. float_of_int k in
  let open Lang in
  let open Lang.Infix in
  let rec chain d e =
    if Stdlib.( = ) d 0 then e else chain (Stdlib.( - ) d 1) ((e * flt m) + flt a)
  in
  let loop_body =
    [ assign "acc" (chain depth (var "acc")) ]
    @ (if use_rng then
         [
           assign "u" (prim "uniform" [ var "cnt" ]);
           assign "cnt" (var "cnt" + flt 1.);
           assign "acc" (var "acc" + ((var "u" - flt 0.5) * flt 0.25));
         ]
       else [])
    @ (if diverge then
         [
           if_ (var "acc" > flt 2.0)
             [ assign "acc" (var "acc" * flt 0.5) ]
             [ assign "acc" (var "acc" + flt a) ];
         ]
       else [])
    @ [ assign "i" (var "i" + flt 1.) ]
  in
  let body =
    [
      assign "i" (flt 0.);
      (* [cnt * 0] keeps the counter a live input in the RNG-free
         members without changing the value. *)
      assign "acc" (var "x" + (var "cnt" * flt 0.) + flt kf);
      while_ (var "i" < var "n") loop_body;
      return_ [ var "acc"; var "i" ];
    ]
  in
  program ~main:"main" [ func "main" ~params:[ "n"; "x"; "cnt" ] body ]

let family_shapes = [ [||]; [||]; [||] ]
let n_hot = 8
let n_tenants = 24
let lanes_per_shard = 8
let n_shards = 4

(* Tenant [t]'s service class. No tenant has a finite rate or quota:
   a refused request counts as a failed operation, so the serving
   workloads are built to refuse none. *)
let tenant_slo t =
  if t mod 5 = 0 then Tenant.Latency_bound
  else if t mod 5 < 3 then Tenant.Throughput
  else Tenant.Best_effort

let tenants () =
  Array.init n_tenants (fun t ->
      Tenant.make ~slo:(tenant_slo t) ~id:t ~name:(Printf.sprintf "tenant-%02d" t) ())

(* One arrival of a serving trace. [prog] indexes [serve.programs]. *)
type row = {
  tenant : int;
  prog : int;
  inputs : Tensor.t list;
  member : int;
  arrival : float;
  cost : float;
}

type serve = {
  programs : Lang.program array;  (** the hot family, then one-off programs *)
  digests : int64 array;
  traces : row array array;  (** pool of traces *)
}

let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let tot = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. tot);
      !acc)
    w

let sample_cdf s cdf =
  let u = Splitmix.Stream.uniform s in
  let i = ref 0 in
  while !i < Array.length cdf - 1 && u > cdf.(!i) do
    incr i
  done;
  !i

(* Simulated service time of one mid-size request alone on a one-lane
   shard: the unit that turns a load factor into an arrival rate. *)
let solo_service () =
  let prog = family_program ~k:0 in
  let compiled = Autobatch.compile ~input_shapes:family_shapes prog in
  let col v = Tensor.stack_rows [ Tensor.scalar v ] in
  let request =
    Request.make ~id:0 ~member:0 ~cost_hint:12. ~program:compiled
      ~inputs:[ col 12.; col 0.5; col 0. ]
      ()
  in
  let item =
    {
      Admission.tenant = Tenant.make ~id:0 ~name:"probe" ();
      request;
      digest = Prog_cache.digest ~input_shapes:family_shapes prog;
    }
  in
  let config =
    {
      (Tenant_server.default_config ~mesh:(Mesh.gpu_pod ~n:1 ())) with
      Tenant_server.lanes_per_shard = 1;
      checkpoint_interval = 0;
    }
  in
  let s = Tenant_server.run ~config (Tenant_server.source_of_list [ item ]) in
  Float.max s.Tenant_server.makespan 1e-12

(* Open-loop traces: Poisson arrivals at [load] of lane capacity, tenants
   drawn by Zipf(1.1) popularity, each tenant pinned to one hot program.
   With [churn], every 40 mean inter-arrival times open a window of 10
   in which arrivals come 8x faster and all from best-effort tenants,
   and 5% of requests run a one-off program that misses the cache. *)
let serve ~seed ~requests ~pool ~churn =
  let load = 0.35 in
  let rate =
    load *. float_of_int (n_shards * lanes_per_shard) /. solo_service ()
  in
  let burst_every = 40. /. rate and burst_len = 10. /. rate in
  let cdf = zipf_cdf ~n:n_tenants ~s:1.1 in
  let be =
    Array.of_list
      (List.filter
         (fun t -> tenant_slo t = Tenant.Best_effort)
         (List.init n_tenants Fun.id))
  in
  let be_cdf = zipf_cdf ~n:(Array.length be) ~s:1.1 in
  let programs = ref (List.init n_hot (fun k -> family_program ~k)) in
  let n_programs = ref n_hot in
  let trace p =
    let s = stream ~seed p in
    let clock = ref 0. in
    Array.init requests (fun i ->
        let burst = churn && Float.rem !clock burst_every < burst_len in
        clock :=
          !clock
          +. Splitmix.Stream.exponential s ~rate:(if burst then 8. *. rate else rate);
        let tenant =
          if burst then be.(sample_cdf s be_cdf) else sample_cdf s cdf
        in
        let prog =
          if churn && Splitmix.Stream.uniform s < 0.05 then begin
            programs := family_program ~k:(1000 + !n_programs) :: !programs;
            incr n_programs;
            !n_programs - 1
          end
          else tenant mod n_hot
        in
        let width =
          let d = Splitmix.Stream.int_below s 12 in
          if d < 8 then 1 else if d < 11 then 2 else 4
        in
        let trips = 4 + Splitmix.Stream.int_below s 17 in
        let x0 = 0.25 +. (0.5 *. Splitmix.Stream.uniform s) in
        let col f = Tensor.stack_rows (List.init width (fun j -> Tensor.scalar (f j))) in
        {
          tenant;
          prog;
          inputs =
            [
              col (fun _ -> float_of_int trips);
              col (fun j -> x0 +. (0.01 *. float_of_int j));
              col (fun _ -> 0.);
            ];
          member = ((p * requests) + i) * 4;
          arrival = !clock;
          cost = float_of_int trips;
        })
  in
  let traces = Array.init pool trace in
  let programs = Array.of_list (List.rev !programs) in
  {
    programs;
    digests = Array.map (Prog_cache.digest ~input_shapes:family_shapes) programs;
    traces;
  }
