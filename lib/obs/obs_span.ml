(* Request-scoped spans over the Obs_sink seam. The emitters (the tenant
   server, the program cache, ...) publish completed spans as
   [Obs_sink.Span] events and Obs_trace records and exports them; this
   module holds the span identity and the tree validator. *)

let no_parent = -1
let ops_trace = -1
let cache_trace = -2
let ops_track = -1

let sink tr =
  let track = Obs_trace.track tr "spans" in
  function
  | Obs_sink.Span { t0; _ } as ev -> Obs_trace.record tr ~track ~ts:t0 ev
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Validation. Request traces (trace >= 0) must each form one rooted
   tree: exactly one parentless span, every other span's parent present
   in the same trace, and every child's interval nested within its
   parent's (with a small absolute slack for float noise). Operational
   traces (negative ids) are streams of instants with no root, so only
   interval sanity applies to them. *)

type tree_stats = {
  traces : int;          (* request traces seen (trace >= 0) *)
  well_formed : int;     (* traces passing all three checks *)
  multi_root : int;      (* traces with zero or >1 roots *)
  orphans : int;         (* spans whose parent id is missing *)
  nest_violations : int; (* child intervals escaping their parent *)
  inverted : int;        (* spans with t1 < t0, any trace *)
}

type span = { id : int; parent : int; t0 : float; t1 : float }

let eps = 1e-9

let validate tr =
  let by_trace : (int, span list ref) Hashtbl.t = Hashtbl.create 256 in
  let inverted = ref 0 in
  Obs_trace.iter tr (fun e ->
      match e.ev with
      | Obs_sink.Span { trace; span = id; parent; t0; t1; _ } -> (
        if t1 < t0 -. eps then incr inverted;
        if trace >= 0 then
          let sp = { id; parent; t0; t1 } in
          match Hashtbl.find_opt by_trace trace with
          | Some cell -> cell := sp :: !cell
          | None -> Hashtbl.add by_trace trace (ref [ sp ]))
      | _ -> ());
  let traces = ref 0
  and well = ref 0
  and multi_root = ref 0
  and orphans = ref 0
  and nest = ref 0 in
  Hashtbl.iter
    (fun _trace cell ->
      incr traces;
      let spans = !cell in
      let ids = Hashtbl.create 8 in
      List.iter (fun sp -> Hashtbl.replace ids sp.id sp) spans;
      let roots =
        List.length (List.filter (fun sp -> sp.parent = no_parent) spans)
      in
      let trace_orphans = ref 0 and trace_nest = ref 0 in
      List.iter
        (fun sp ->
          if sp.parent <> no_parent then
            match Hashtbl.find_opt ids sp.parent with
            | None -> incr trace_orphans
            | Some parent ->
              if sp.t0 < parent.t0 -. eps || sp.t1 > parent.t1 +. eps then
                incr trace_nest)
        spans;
      if roots <> 1 then incr multi_root;
      orphans := !orphans + !trace_orphans;
      nest := !nest + !trace_nest;
      if roots = 1 && !trace_orphans = 0 && !trace_nest = 0 then incr well)
    by_trace;
  {
    traces = !traces;
    well_formed = !well;
    multi_root = !multi_root;
    orphans = !orphans;
    nest_violations = !nest;
    inverted = !inverted;
  }

let all_well_formed s =
  s.traces = s.well_formed && s.inverted = 0

let stats_to_json s =
  Obs_json.Obj
    [
      ("traces", Obs_json.Int s.traces);
      ("well_formed", Obs_json.Int s.well_formed);
      ("multi_root", Obs_json.Int s.multi_root);
      ("orphans", Obs_json.Int s.orphans);
      ("nest_violations", Obs_json.Int s.nest_violations);
      ("inverted", Obs_json.Int s.inverted);
    ]
