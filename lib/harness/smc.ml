(* Sequential Monte Carlo (bootstrap particle filter) on a 1-D
   linear-Gaussian state-space model, with host-side multinomial
   resampling implemented through the S20 lane-migration seam.

   The per-step transition + weighting program is *elaborated from the
   handler DSL* (Eff.run under the seed interpretation): the latent
   transition is drawn through the counter-based RNG primitives and the
   observation site becomes the incremental log weight. Because the
   model is linear-Gaussian, the Kalman filter gives the exact log
   marginal likelihood the particle estimate must approach — the
   closed-form gate for [bench eff]. *)

type params = {
  a : float;  (** transition coefficient *)
  q_sd : float;  (** transition noise sd *)
  r_sd : float;  (** observation noise sd *)
}

let default_params = { a = 0.9; q_sd = 1.; r_sd = 0.5 }

(* ---------- data + exact reference ---------- *)

let simulate_data ?(seed = 0x55CCL) ~steps p =
  let stream = Splitmix.Stream.create seed in
  let xs = Array.make steps 0. and ys = Array.make steps 0. in
  let x = ref 0. in
  for t = 0 to steps - 1 do
    x := (p.a *. !x) +. (p.q_sd *. Splitmix.Stream.normal stream);
    xs.(t) <- !x;
    ys.(t) <- !x +. (p.r_sd *. Splitmix.Stream.normal stream)
  done;
  (xs, ys)

let log_2pi = Stdlib.log (2. *. Float.pi)

(* Exact log marginal likelihood: Kalman prediction-error decomposition
   from the known initial state x_0 = 0. *)
let kalman_log_marginal p ys =
  let m = ref 0. and v = ref 0. and acc = ref 0. in
  Array.iter
    (fun y ->
      let m_pred = p.a *. !m in
      let v_pred = (p.a *. p.a *. !v) +. (p.q_sd *. p.q_sd) in
      let s = v_pred +. (p.r_sd *. p.r_sd) in
      let r = y -. m_pred in
      acc := !acc -. (0.5 *. (log_2pi +. Stdlib.log s)) -. (0.5 *. r *. r /. s);
      let k = v_pred /. s in
      m := m_pred +. (k *. r);
      v := (1. -. k) *. v_pred)
    ys;
  !acc

(* ---------- the per-step program, from the handler DSL ---------- *)

(* (x_prev, y_obs, __cnt0) -> (x, __lp, __cnt): draw the transition,
   score the observation. Every particle draws exactly one normal per
   step, so the counter advances in lockstep across the batch. *)
let step_elaborated ?(seed = 0x5EEDL) p =
  Eff.run ~seed ~fn_name:"smc_step" ~mode:`Draw ~score:`Observed (fun () ->
      let open Lang in
      let open Lang.Infix in
      let xp = Eff.param "x_prev" in
      let yv = Eff.param "y_obs" in
      let x = Eff.sample "x" (Dist.Normal (flt p.a * xp, flt p.q_sd)) in
      Eff.observe "y" (Dist.Normal (x, flt p.r_sd)) yv;
      [ x ])

(* ---------- host-side multinomial resampling ---------- *)

let logsumexp arr =
  let m = Array.fold_left Float.max Float.neg_infinity arr in
  if m = Float.neg_infinity then Float.neg_infinity
  else
    m
    +. Stdlib.log
         (Array.fold_left (fun acc v -> acc +. Stdlib.exp (v -. m)) 0. arr)

(* Multinomial ancestors by CDF inversion; draws come from a dedicated
   counter-based resampling key so the whole filter is a pure function
   of the seed. *)
let ancestors rkey ~step ~weights =
  let n = Array.length weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. weights.(i);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.init n (fun i ->
      let u = total *. Counter_rng.uniform rkey ~member:i ~counter:step ~slot:0 in
      let rec find j = if j >= n - 1 || u <= cdf.(j) then j else find (j + 1) in
      find 0)

(* ---------- the filter ---------- *)

type result = {
  n_particles : int;
  steps : int;
  log_z : float;  (** particle estimate of the log marginal *)
  log_z_exact : float;  (** Kalman closed form *)
  ess_min : float;  (** worst effective sample size over steps *)
  migrations : int;  (** resampling moves with ancestor <> self *)
  migrated_bytes : float;  (** lane-state payload moved through S20 *)
  migration_seconds : float;  (** priced as p2p transfers on [mesh] *)
  bitwise : (string * bool) list;  (** local/shard/lanes vs pc *)
}

let run ?(seed = 0x5EEDL) ?(n_particles = 256) ?(steps = 25)
    ?(p = default_params) ?(mesh = Mesh.gpu_pod ~n:2 ()) () =
  if n_particles < 2 then invalid_arg "Smc.run: need at least 2 particles";
  if steps < 1 then invalid_arg "Smc.run: need at least 1 step";
  let _, ys = simulate_data ~seed:(Int64.add seed 1L) ~steps p in
  let el = step_elaborated ~seed p in
  let compiled =
    Autobatch.compile ~registry:el.Eff.el_registry
      ~input_shapes:(Eff.input_shapes el) el.Eff.el_program
  in
  let shard_config =
    {
      Sched_vm.default_config with
      plan = Sched_plan.off;
      mesh = Mesh.gpu_pod ~n:(Mesh.size mesh) ();
    }
  in
  let rkey = Counter_rng.key (Int64.add seed 2L) in
  (* Particle state: value, per-particle draw counter, and the running
     bitwise agreement of each runtime arm against the pc baseline. *)
  let x = ref (Tensor.zeros [| n_particles |]) in
  let cnt = ref (Tensor.zeros [| n_particles |]) in
  let agree = [ "local"; "shard"; "lanes" ] in
  let ok = Hashtbl.create 4 in
  List.iter (fun a -> Hashtbl.replace ok a true) agree;
  let log_z = ref 0. in
  let ess_min = ref (float_of_int n_particles) in
  let migrations = ref 0 in
  let migrated_bytes = ref 0. in
  let migration_seconds = ref 0. in
  let lanes_src =
    Pc_vm.Lanes.create el.Eff.el_registry compiled.Autobatch.stack
      ~z:n_particles
  in
  for t = 0 to steps - 1 do
    let yv = Tensor.full [| n_particles |] ys.(t) in
    let batch = [ !x; yv; !cnt ] in
    let pc = Autobatch.run_pc compiled ~batch in
    let note arm outs =
      if not (List.for_all2 Tensor.equal pc outs) then
        Hashtbl.replace ok arm false
    in
    note "local" (Autobatch.run_local compiled ~batch);
    note "shard"
      (Autobatch.run_sharded ~config:shard_config compiled ~batch)
        .Sched_vm.outputs;
    let x_new = List.hd pc in
    let lp = List.nth pc el.Eff.el_lp_index in
    let cnt_new =
      match el.Eff.el_cnt_index with
      | Some i -> List.nth pc i
      | None -> !cnt
    in
    (* Incremental evidence and normalized weights. *)
    let lpa = Array.copy (Tensor.data lp) in
    let lse = logsumexp lpa in
    log_z := !log_z +. lse -. Stdlib.log (float_of_int n_particles);
    let w = Array.map (fun v -> Stdlib.exp (v -. lse)) lpa in
    let ess =
      1. /. Array.fold_left (fun acc v -> acc +. (v *. v)) 0. w
    in
    if ess < !ess_min then ess_min := ess;
    let anc = ancestors rkey ~step:t ~weights:w in
    (* Resampling through the lane-migration seam: run the same step on
       a lane pool, then move each surviving ancestor's complete lane
       state into the offspring's lane of a fresh pool (S20 payloads,
       priced as point-to-point transfers). Retired outputs must match
       the batched gather bitwise. *)
    let lanes_ok = ref (Hashtbl.find ok "lanes") in
    Array.iteri
      (fun lane xv ->
        Pc_vm.Lanes.load lanes_src ~lane ~member:lane
          ~inputs:
            [
              Tensor.scalar xv;
              Tensor.scalar ys.(t);
              Tensor.scalar (Tensor.data !cnt).(lane);
            ])
      (Tensor.data !x);
    while Pc_vm.Lanes.step lanes_src do () done;
    let lanes_dst =
      Pc_vm.Lanes.create el.Eff.el_registry compiled.Autobatch.stack
        ~z:n_particles
    in
    Array.iteri
      (fun i a ->
        let st = Pc_vm.Lanes.export_lane lanes_src ~lane:a in
        let bytes = Pc_vm.Lanes.lane_state_bytes st in
        if a <> i then begin
          incr migrations;
          migrated_bytes := !migrated_bytes +. bytes;
          migration_seconds :=
            !migration_seconds +. Collectives.p2p_time mesh ~bytes
        end;
        (* The offspring lane keeps its own member identity so future
           draws stay independent across duplicated ancestors. *)
        Pc_vm.Lanes.import_lane lanes_dst ~lane:i
          { st with Pc_vm.Lanes.ls_member = i })
      anc;
    Array.iteri
      (fun i a ->
        let outs = Pc_vm.Lanes.retire lanes_dst ~lane:i in
        let expect v = Tensor.item (List.nth outs 0) = v in
        if not (expect (Tensor.data x_new).(a)) then lanes_ok := false;
        ignore (List.nth outs el.Eff.el_lp_index))
      anc;
    Hashtbl.replace ok "lanes" !lanes_ok;
    (* Gather the resampled state for the next step. *)
    x := Tensor.init [| n_particles |] (fun i -> (Tensor.data x_new).(anc.(i.(0))));
    cnt := cnt_new
  done;
  {
    n_particles;
    steps;
    log_z = !log_z;
    log_z_exact = kalman_log_marginal p ys;
    ess_min = !ess_min;
    migrations = !migrations;
    migrated_bytes = !migrated_bytes;
    migration_seconds = !migration_seconds;
    bitwise = List.map (fun a -> (a, Hashtbl.find ok a)) agree;
  }

let log_z_error r = Float.abs (r.log_z -. r.log_z_exact)

let passes ?(tol = 1.0) r =
  Float.is_finite r.log_z
  && log_z_error r < tol
  && r.migrations > 0
  && List.for_all snd r.bitwise

let to_json r =
  Obs_json.Obj
    [
      ("n_particles", Obs_json.Int r.n_particles);
      ("steps", Obs_json.Int r.steps);
      ("log_z", Obs_json.Float r.log_z);
      ("log_z_exact", Obs_json.Float r.log_z_exact);
      ("log_z_error", Obs_json.Float (log_z_error r));
      ("ess_min", Obs_json.Float r.ess_min);
      ("migrations", Obs_json.Int r.migrations);
      ("migrated_bytes", Obs_json.Float r.migrated_bytes);
      ("migration_seconds", Obs_json.Float r.migration_seconds);
      ( "bitwise",
        Obs_json.Obj
          (List.map (fun (k, v) -> (k, Obs_json.Bool v)) r.bitwise) );
    ]

let print r =
  Format.printf "SMC bootstrap filter: %d particles, %d steps@." r.n_particles
    r.steps;
  Format.printf "  log Z  %.6f   (Kalman exact %.6f, error %.4f)@." r.log_z
    r.log_z_exact (log_z_error r);
  Format.printf "  min ESS %.1f@." r.ess_min;
  Format.printf "  lane migrations %d  (%.0f bytes, %.2e s simulated p2p)@."
    r.migrations r.migrated_bytes r.migration_seconds;
  List.iter
    (fun (arm, v) ->
      Format.printf "  bitwise vs pc: %-6s %s@." arm (if v then "ok" else "MISMATCH"))
    r.bitwise
