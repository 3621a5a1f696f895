(* Wall-clock and GC telemetry. This is the one corner of lib/obs that
   reads real clocks, so it is fenced off from everything the simulated
   side computes: [time] never touches the simulated clock.

   Wall time uses the monotonic clock (immune to NTP steps); CPU time is
   the process total from Sys.time. GC numbers are Gc.quick_stat deltas:
   cheap (no heap walk) and exact for the word/collection counters we
   report. *)

type sample = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Allocated words = minor + major - promoted (promoted words would
   otherwise be counted in both generations). *)
let alloc_words s = s.minor_words +. s.major_words -. s.promoted_words

let alloc_rate s =
  if s.wall_s <= 0. then 0. else alloc_words s /. s.wall_s

let now_monotonic () =
  (* Monotonic nanoseconds; int64 wraps after ~292 years of uptime. *)
  Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let g0 = Gc.quick_stat () in
  let t0_cpu = Sys.time () in
  let t0_wall = now_monotonic () in
  let v = f () in
  let wall = now_monotonic () -. t0_wall in
  let cpu = Sys.time () -. t0_cpu in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      wall_s = Float.max 0. wall;
      cpu_s = Float.max 0. cpu;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let to_json s =
  Obs_json.Obj
    [
      ("wall_s", Obs_json.Float s.wall_s);
      ("cpu_s", Obs_json.Float s.cpu_s);
      ("minor_words", Obs_json.Float s.minor_words);
      ("major_words", Obs_json.Float s.major_words);
      ("promoted_words", Obs_json.Float s.promoted_words);
      ("minor_collections", Obs_json.Int s.minor_collections);
      ("major_collections", Obs_json.Int s.major_collections);
      ("alloc_words", Obs_json.Float (alloc_words s));
    ]

let span_of_seconds s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let words w =
  if w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let summary s =
  Printf.sprintf "wall %s  cpu %s  alloc %s (%s/s)  gc %d/%d"
    (span_of_seconds s.wall_s) (span_of_seconds s.cpu_s)
    (words (alloc_words s))
    (words (alloc_rate s))
    s.minor_collections s.major_collections
