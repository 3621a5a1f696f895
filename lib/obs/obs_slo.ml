(* Multi-window burn-rate monitoring, SRE-workbook style, on the
   simulated clock. Each SLO class has an error budget (the fraction of
   requests allowed to miss their latency threshold or be dropped); the
   burn rate is the observed bad fraction divided by that budget. An
   alert fires only when BOTH a fast and a slow window burn hot — the
   fast window gives detection latency, the slow window immunity to
   blips — and resolves with hysteresis at half the firing threshold.
   Everything is deterministic: windows live on the simulated clock. *)

type class_config = {
  cls : string;
  threshold : float;
  budget : float;
  fast_window : float;
  slow_window : float;
  burn_threshold : float;
}

let class_config ?(budget = 0.05) ?(fast_window = 60.) ?(slow_window = 360.)
    ?(burn_threshold = 2.) ~cls ~threshold () =
  if threshold <= 0. then invalid_arg "Obs_slo.class_config: threshold must be positive";
  if not (budget > 0. && budget <= 1.) then
    invalid_arg "Obs_slo.class_config: budget must be in (0, 1]";
  if not (fast_window < slow_window) then
    invalid_arg "Obs_slo.class_config: fast_window must sit below slow_window";
  if burn_threshold <= 0. then
    invalid_arg "Obs_slo.class_config: burn_threshold must be positive";
  { cls; threshold; budget; fast_window; slow_window; burn_threshold }

type state = {
  config : class_config;
  fast_total : Obs_window.counter;
  fast_bad : Obs_window.counter;
  slow_total : Obs_window.counter;
  slow_bad : Obs_window.counter;
  mutable firing : bool;
  mutable fired_count : int;
  mutable resolved_count : int;
  mutable observed : int;
  mutable breached : int;
}

type t = { classes : (string * state) list }

let create ~classes () =
  if classes = [] then invalid_arg "Obs_slo.create: at least one class";
  let state config =
    {
      config;
      fast_total = Obs_window.counter ~window:config.fast_window ();
      fast_bad = Obs_window.counter ~window:config.fast_window ();
      slow_total = Obs_window.counter ~window:config.slow_window ();
      slow_bad = Obs_window.counter ~window:config.slow_window ();
      firing = false;
      fired_count = 0;
      resolved_count = 0;
      observed = 0;
      breached = 0;
    }
  in
  { classes = List.map (fun c -> (c.cls, state c)) classes }

let find t cls = List.assoc_opt cls t.classes

let observe t ~cls ~now ~ok =
  match find t cls with
  | None -> ()
  | Some s ->
    s.observed <- s.observed + 1;
    Obs_window.add s.fast_total ~now 1.;
    Obs_window.add s.slow_total ~now 1.;
    if not ok then begin
      s.breached <- s.breached + 1;
      Obs_window.add s.fast_bad ~now 1.;
      Obs_window.add s.slow_bad ~now 1.
    end

let burn total bad budget ~now =
  let n = Obs_window.total total ~now in
  if n <= 0. then 0. else Obs_window.total bad ~now /. n /. budget

let burn_rates t ~cls ~now =
  match find t cls with
  | None -> (0., 0.)
  | Some s ->
    ( burn s.fast_total s.fast_bad s.config.budget ~now,
      burn s.slow_total s.slow_bad s.config.budget ~now )

let firing t ~cls =
  match find t cls with None -> false | Some s -> s.firing

(* Evaluate every class at [now] and report its state transitions:
   steady states report nothing, so polling every round reports each
   edge once. *)
let poll t ~now ~alerts =
  List.iter
    (fun (cls, s) ->
      let bf = burn s.fast_total s.fast_bad s.config.budget ~now in
      let bs = burn s.slow_total s.slow_bad s.config.budget ~now in
      let thr = s.config.burn_threshold in
      let edge fired =
        alerts
          (Obs_sink.Slo_alert { slo = cls; fired; burn_fast = bf; burn_slow = bs; at = now })
      in
      if (not s.firing) && bf >= thr && bs >= thr then begin
        s.firing <- true;
        s.fired_count <- s.fired_count + 1;
        edge true
      end
      else if s.firing && bf < thr /. 2. && bs < thr /. 2. then begin
        s.firing <- false;
        s.resolved_count <- s.resolved_count + 1;
        edge false
      end)
    t.classes

let fired_total t =
  List.fold_left (fun acc (_, s) -> acc + s.fired_count) 0 t.classes

(* Only admission's own refusals burn the budget: a full queue or a
   ladder rung. Throttled, malformed and too-wide requests never
   reached the queue. *)
let admission_refused reason =
  String.equal reason "queue-full" || String.starts_with ~prefix:"overloaded:" reason

let sink t ~alerts = function
  | Obs_sink.Request_shed { cls; at; _ } -> observe t ~cls ~now:at ~ok:false
  | Obs_sink.Request_rejected { cls; reason; at; _ } when admission_refused reason ->
    observe t ~cls ~now:at ~ok:false
  | Obs_sink.Request_completed { cls; queued; finished; _ } -> (
    match find t cls with
    | Some s -> observe t ~cls ~now:finished ~ok:(finished -. queued <= s.config.threshold)
    | None -> ())
  | Obs_sink.Round { at; _ } -> poll t ~now:at ~alerts
  | _ -> ()

let to_json t ~now =
  Obs_json.Obj
    (List.map
       (fun (cls, s) ->
         let bf, bs = burn_rates t ~cls ~now in
         ( cls,
           Obs_json.Obj
             [
               ("threshold", Obs_json.Float s.config.threshold);
               ("budget", Obs_json.Float s.config.budget);
               ("fast_window", Obs_json.Float s.config.fast_window);
               ("slow_window", Obs_json.Float s.config.slow_window);
               ("burn_threshold", Obs_json.Float s.config.burn_threshold);
               ("observed", Obs_json.Int s.observed);
               ("breached", Obs_json.Int s.breached);
               ("burn_fast", Obs_json.Float bf);
               ("burn_slow", Obs_json.Float bs);
               ("firing", Obs_json.Bool s.firing);
               ("fired", Obs_json.Int s.fired_count);
               ("resolved", Obs_json.Int s.resolved_count);
             ] ))
       t.classes)
