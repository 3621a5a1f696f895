(* Parallel tempering on a well-separated 1-D Gaussian mixture.

   K chains at inverse temperatures 1 = beta_0 > ... > beta_{K-1} are
   the batch members of one elaborated sweep program (a fixed number of
   random-walk Metropolis steps against the tempered target, unrolled
   from the handler DSL with data-dependent accept/reject branches).
   Between sweeps the host attempts even-odd replica exchanges from a
   dedicated counter-based key; each accepted exchange moves two chain
   states between mesh devices and is priced as point-to-point
   transfers, and the per-round cold-chain collection is priced as an
   all-gather ({!Collectives}).

   The mixture's moments are closed-form (E[x] = 0, E[x^2] = 1 +
   mu0^2), which gates the cold chain; without exchanges the cold chain
   stays in one mode, so mode balance is the tempering-specific gate. *)

type config = {
  mu0 : float;  (** mode offset: 0.5 N(-mu0,1) + 0.5 N(mu0,1) *)
  chains : int;
  beta_min : float;  (** coldest-to-hottest geometric ladder floor *)
  sweep_steps : int;  (** RWM steps per elaborated sweep *)
  rounds : int;
  base_step : float;  (** RWM step sd at beta = 1 (scaled by 1/sqrt beta) *)
}

let default_config =
  { mu0 = 3.; chains = 8; beta_min = 0.12; sweep_steps = 10; rounds = 400;
    base_step = 2.4 }

let betas c =
  let r =
    if c.chains = 1 then 1.
    else c.beta_min ** (1. /. float_of_int (c.chains - 1))
  in
  Array.init c.chains (fun k -> r ** float_of_int k)

(* Unnormalized mixture log density (constants cancel everywhere this
   is used: acceptance ratios and exchange deltas). *)
let logpi c x =
  let a = -0.5 *. (x +. c.mu0) *. (x +. c.mu0)
  and b = -0.5 *. (x -. c.mu0) *. (x -. c.mu0) in
  let m = Float.max a b in
  m +. Stdlib.log1p (Stdlib.exp (Float.min a b -. m))

let second_moment c = 1. +. (c.mu0 *. c.mu0)

(* ---------- the sweep program, from the handler DSL ---------- *)

(* (x, beta, step, __cnt0) -> (x', __lp, __cnt): [sweep_steps] RWM
   steps, each drawing one proposal normal and one acceptance uniform
   (two counter ticks), with the accept/reject as an elaborated If. *)
let sweep_elaborated ?(seed = 0x7E4BL) c =
  Eff.run ~seed ~fn_name:"pt_sweep" ~mode:`Draw ~score:`None (fun () ->
      let open Lang in
      let open Lang.Infix in
      let logpi_e x =
        prim "logaddexp"
          [
            flt (-0.5) * prim "square" [ x + flt c.mu0 ];
            flt (-0.5) * prim "square" [ x - flt c.mu0 ];
          ]
      in
      let x0 = Eff.param "x" in
      let beta = Eff.param "beta" in
      let step = Eff.param "step" in
      let rec go x i =
        if Int.equal i c.sweep_steps then x
        else
          let nm = Printf.sprintf "%d" i in
          let eps =
            Eff.sample ("eps" ^ nm) (Dist.Normal (flt 0., flt 1.))
          in
          let u = Eff.sample ("u" ^ nm) Dist.Uniform in
          let prop = Eff.det ("prop" ^ nm) (x + (step * eps)) in
          let accept = prim "log" [ u ] < (beta * (logpi_e prop - logpi_e x)) in
          let x' = Eff.branch accept (fun () -> prop) (fun () -> x) in
          go x' (succ i)
      in
      [ go x0 0 ])

(* ---------- the driver ---------- *)

type result = {
  config : config;
  swaps_attempted : int;
  swaps_accepted : int;
  cold_mean : float;  (** cold-chain sample mean (target: 0) *)
  cold_second_moment : float;  (** target: [second_moment c] *)
  mode_balance : float;  (** min(frac left, frac right) of cold samples *)
  exchange_seconds : float;  (** p2p pricing of accepted exchanges *)
  gather_seconds : float;  (** all-gather pricing of collection *)
  bitwise : (string * bool) list;  (** local/shard vs pc *)
}

let run ?(seed = 0x7E4BL) ?(c = default_config) ?(mesh = Mesh.gpu_pod ~n:4 ())
    () =
  if c.chains < 2 then invalid_arg "Tempering.run: need at least 2 chains";
  let el = sweep_elaborated ~seed c in
  let compiled =
    Autobatch.compile ~registry:el.Eff.el_registry
      ~input_shapes:(Eff.input_shapes el) el.Eff.el_program
  in
  let shard_config =
    {
      Sched_vm.default_config with
      plan = Sched_plan.off;
      mesh = Mesh.gpu_pod ~n:2 ();
    }
  in
  let b = betas c in
  let beta_t = Tensor.create [| c.chains |] (Array.copy b) in
  let step_t =
    Tensor.init [| c.chains |] (fun i ->
        c.base_step /. Stdlib.sqrt b.(i.(0)))
  in
  let swapkey = Counter_rng.key (Int64.add seed 3L) in
  (* Chain k starts in the left mode for even k, right for odd — both
     modes are populated from the first round. *)
  let x = ref (Tensor.init [| c.chains |] (fun i ->
      if i.(0) mod 2 = 0 then -.c.mu0 else c.mu0))
  in
  let cnt = ref (Tensor.zeros [| c.chains |]) in
  let agree = [ "local"; "shard" ] in
  let ok = Hashtbl.create 4 in
  List.iter (fun a -> Hashtbl.replace ok a true) agree;
  let attempted = ref 0 and accepted = ref 0 in
  let exchange_seconds = ref 0. and gather_seconds = ref 0. in
  let collect_from = c.rounds / 2 in
  let cold = ref [] in
  let device k = k mod Mesh.size mesh in
  for round = 0 to c.rounds - 1 do
    let batch = [ !x; beta_t; step_t; !cnt ] in
    let pc = Autobatch.run_pc compiled ~batch in
    let note arm outs =
      if not (List.for_all2 Tensor.equal pc outs) then
        Hashtbl.replace ok arm false
    in
    note "local" (Autobatch.run_local compiled ~batch);
    note "shard"
      (Autobatch.run_sharded ~config:shard_config compiled ~batch)
        .Sched_vm.outputs;
    let xs = Array.copy (Tensor.data (List.hd pc)) in
    (match el.Eff.el_cnt_index with
    | Some i -> cnt := List.nth pc i
    | None -> ());
    (* Even-odd replica exchange between adjacent temperatures. *)
    let first = round mod 2 in
    let k = ref first in
    while !k + 1 < c.chains do
      incr attempted;
      let lo = !k and hi = !k + 1 in
      let delta = (b.(lo) -. b.(hi)) *. (logpi c xs.(hi) -. logpi c xs.(lo)) in
      let u =
        Counter_rng.uniform swapkey ~member:lo ~counter:round ~slot:0
      in
      if Stdlib.log u < delta then begin
        incr accepted;
        let t = xs.(lo) in
        xs.(lo) <- xs.(hi);
        xs.(hi) <- t;
        if device lo <> device hi then
          exchange_seconds :=
            !exchange_seconds +. (2. *. Collectives.p2p_time mesh ~bytes:8.)
      end;
      k := !k + 2
    done;
    x := Tensor.create [| c.chains |] xs;
    (* Cold-chain collection: one all-gather of every chain's scalar
       state per round (the monitoring pattern a real PT run pays). *)
    gather_seconds :=
      !gather_seconds
      +. Collectives.all_gather_time mesh Collectives.Ring
           ~bytes:(8. *. float_of_int c.chains);
    if round >= collect_from then cold := xs.(0) :: !cold
  done;
  let cold = Array.of_list !cold in
  let n = float_of_int (Array.length cold) in
  let mean = Array.fold_left ( +. ) 0. cold /. n in
  let m2 = Array.fold_left (fun a v -> a +. (v *. v)) 0. cold /. n in
  let left = Array.fold_left (fun a v -> if v < 0. then a + 1 else a) 0 cold in
  let balance =
    Float.min (float_of_int left /. n) (1. -. (float_of_int left /. n))
  in
  {
    config = c;
    swaps_attempted = !attempted;
    swaps_accepted = !accepted;
    cold_mean = mean;
    cold_second_moment = m2;
    mode_balance = balance;
    exchange_seconds = !exchange_seconds;
    gather_seconds = !gather_seconds;
    bitwise = List.map (fun a -> (a, Hashtbl.find ok a)) agree;
  }

let passes ?(mean_tol = 1.5) ?(m2_tol = 4.) ?(min_balance = 0.1) r =
  r.swaps_accepted > 0
  && Float.abs r.cold_mean < mean_tol
  && Float.abs (r.cold_second_moment -. second_moment r.config) < m2_tol
  && r.mode_balance >= min_balance
  && List.for_all snd r.bitwise

let to_json r =
  Obs_json.Obj
    [
      ("chains", Obs_json.Int r.config.chains);
      ("rounds", Obs_json.Int r.config.rounds);
      ("swaps_attempted", Obs_json.Int r.swaps_attempted);
      ("swaps_accepted", Obs_json.Int r.swaps_accepted);
      ("cold_mean", Obs_json.Float r.cold_mean);
      ("cold_second_moment", Obs_json.Float r.cold_second_moment);
      ("second_moment_exact", Obs_json.Float (second_moment r.config));
      ("mode_balance", Obs_json.Float r.mode_balance);
      ("exchange_seconds", Obs_json.Float r.exchange_seconds);
      ("gather_seconds", Obs_json.Float r.gather_seconds);
      ( "bitwise",
        Obs_json.Obj
          (List.map (fun (k, v) -> (k, Obs_json.Bool v)) r.bitwise) );
    ]

let print r =
  Format.printf "Parallel tempering: %d chains, %d rounds@." r.config.chains
    r.config.rounds;
  Format.printf "  exchanges %d/%d accepted  (%.2e s simulated p2p)@."
    r.swaps_accepted r.swaps_attempted r.exchange_seconds;
  Format.printf "  cold chain: mean %+.3f (exact 0), E[x^2] %.3f (exact %.3f)@."
    r.cold_mean r.cold_second_moment (second_moment r.config);
  Format.printf "  mode balance %.2f  (collection all-gather %.2e s)@."
    r.mode_balance r.gather_seconds;
  List.iter
    (fun (arm, v) ->
      Format.printf "  bitwise vs pc: %-6s %s@." arm (if v then "ok" else "MISMATCH"))
    r.bitwise
