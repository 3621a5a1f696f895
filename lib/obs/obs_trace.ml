type entry = { track : int; ts : float; ev : Obs_sink.event }

type t = {
  mutex : Mutex.t;
  limit : int;
  mutable rev_entries : entry list;
  mutable n : int;
  mutable dropped : int;
  mutable rev_tracks : (int * string) list;
  mutable next_track : int;
}

let create ?(limit = 500_000) () =
  {
    mutex = Mutex.create ();
    limit;
    rev_entries = [];
    n = 0;
    dropped = 0;
    rev_tracks = [];
    next_track = 0;
  }

let track t name =
  Mutex.protect t.mutex (fun () ->
      let id = t.next_track in
      t.next_track <- id + 1;
      t.rev_tracks <- (id, name) :: t.rev_tracks;
      id)

let record t ~track ~ts ev =
  Mutex.protect t.mutex (fun () ->
      if t.n >= t.limit then t.dropped <- t.dropped + 1
      else begin
        t.rev_entries <- { track; ts; ev } :: t.rev_entries;
        t.n <- t.n + 1
      end)

let sink t ~track ~clock : Obs_sink.t =
 fun ev ->
  match ev with
  | Obs_sink.Launch _ -> ()
  | Obs_sink.Launched { t0; _ } | Obs_sink.Collective { t0; _ } ->
    record t ~track ~ts:t0 ev
  | Obs_sink.Request_enqueued { at; _ }
  | Obs_sink.Request_shed { at; _ }
  | Obs_sink.Request_rejected { at; _ } -> record t ~track ~ts:at ev
  | Obs_sink.Request_completed { queued; _ } -> record t ~track ~ts:queued ev
  | Obs_sink.Span { t0; _ } -> record t ~track ~ts:t0 ev
  | Obs_sink.Ladder { at; _ } | Obs_sink.Slo_alert { at; _ } ->
    record t ~track ~ts:at ev
  | Obs_sink.Step _ | Obs_sink.Checkpoint _ | Obs_sink.Restore _
  | Obs_sink.Occupancy _ | Obs_sink.Migration _ ->
    record t ~track ~ts:(clock ()) ev

let entries t = Mutex.protect t.mutex (fun () -> List.rev t.rev_entries)

let tracks t =
  Mutex.protect t.mutex (fun () ->
      List.sort (fun (a, _) (b, _) -> compare a b) t.rev_tracks)

let dropped t = Mutex.protect t.mutex (fun () -> t.dropped)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

(* Step events from shard [k] of track [n] render as Chrome thread
   [n * shard_stride + k], so per-shard superstep timelines don't
   interleave. All other events sit on the track's base thread. *)
let shard_stride = 64

let us ts = ts *. 1e6

let chrome_event ~name ~cat ~ph ~tid ~ts ?dur ?(args = []) () =
  let base =
    [
      ("name", Obs_json.Str name);
      ("cat", Obs_json.Str cat);
      ("ph", Obs_json.Str ph);
      ("pid", Obs_json.Int 0);
      ("tid", Obs_json.Int tid);
      ("ts", Obs_json.Float (us ts));
    ]
  in
  let dur = match dur with None -> [] | Some d -> [ ("dur", Obs_json.Float (us d)) ] in
  let args =
    match args with [] -> [] | args -> [ ("args", Obs_json.Obj args) ]
  in
  Obs_json.Obj (base @ dur @ args)

let instant ~name ~cat ~tid ~ts ?(args = []) () =
  let v = chrome_event ~name ~cat ~ph:"i" ~tid ~ts ~args () in
  match v with
  | Obs_json.Obj fields -> Obs_json.Obj (fields @ [ ("s", Obs_json.Str "t") ])
  | v -> v

let launch_cat = function
  | Obs_sink.Kernel -> "kernel"
  | Obs_sink.Fused_block -> "fused"

let to_chrome t =
  let entries = entries t in
  let tracks = tracks t in
  let track_name id =
    match List.assoc_opt id tracks with
    | Some name -> name
    | None -> Printf.sprintf "track%d" id
  in
  (* Group entries per Chrome thread, preserving recording order. *)
  let tid_of e =
    match e.ev with
    | Obs_sink.Step { shard; _ } | Obs_sink.Occupancy { shard; _ } ->
      (e.track * shard_stride) + shard
    | _ -> e.track * shard_stride
  in
  let by_tid : (int, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  let tid_order = ref [] in
  List.iter
    (fun e ->
      let tid = tid_of e in
      match Hashtbl.find_opt by_tid tid with
      | Some cell -> cell := e :: !cell
      | None ->
        Hashtbl.add by_tid tid (ref [ e ]);
        tid_order := tid :: !tid_order)
    entries;
  let tids = List.sort compare !tid_order in
  let meta =
    List.map
      (fun tid ->
        let base = tid / shard_stride and shard = tid mod shard_stride in
        let name =
          if shard = 0 then track_name base
          else Printf.sprintf "%s/shard%d" (track_name base) shard
        in
        Obs_json.Obj
          [
            ("name", Obs_json.Str "thread_name");
            ("ph", Obs_json.Str "M");
            ("pid", Obs_json.Int 0);
            ("tid", Obs_json.Int tid);
            ("args", Obs_json.Obj [ ("name", Obs_json.Str name) ]);
          ])
      tids
  in
  let events_of_tid tid =
    let entries = List.rev !(Hashtbl.find by_tid tid) in
    (* Chrome counters are keyed by (pid, name), so the counter name must
       carry the thread label for distinct tracks/shards to stay apart. *)
    let counter_label =
      let base = tid / shard_stride and shard = tid mod shard_stride in
      if shard = 0 then track_name base
      else Printf.sprintf "%s/shard%d" (track_name base) shard
    in
    (* Superstep spans: each Step closes the previous block's span and
       opens the next; the final span closes at the thread's last
       timestamp. *)
    let out = ref [] in
    let emit ev = out := ev :: !out in
    let open_span = ref None in
    let last_ts = ref 0. in
    let touch ts = if ts > !last_ts then last_ts := ts in
    let close_span ts =
      match !open_span with
      | None -> ()
      | Some name ->
        open_span := None;
        emit (chrome_event ~name ~cat:"superstep" ~ph:"E" ~tid ~ts ())
    in
    List.iter
      (fun e ->
        touch e.ts;
        match e.ev with
        | Obs_sink.Step { shard; step; block } ->
          close_span e.ts;
          let name = Printf.sprintf "block %d" block in
          open_span := Some name;
          emit
            (chrome_event ~name ~cat:"superstep" ~ph:"B" ~tid ~ts:e.ts
               ~args:
                 [
                   ("step", Obs_json.Int step);
                   ("block", Obs_json.Int block);
                   ("shard", Obs_json.Int shard);
                 ]
               ())
        | Obs_sink.Launch _ -> ()
        | Obs_sink.Launched { kind; name; t0; t1 } ->
          touch t1;
          emit
            (chrome_event ~name ~cat:(launch_cat kind) ~ph:"X" ~tid ~ts:t0
               ~dur:(t1 -. t0) ())
        | Obs_sink.Collective { name; bytes; t0; t1 } ->
          touch t1;
          emit
            (chrome_event ~name ~cat:"collective" ~ph:"X" ~tid ~ts:t0
               ~dur:(t1 -. t0)
               ~args:[ ("bytes", Obs_json.Float bytes) ]
               ())
        | Obs_sink.Request_enqueued { id; at } ->
          emit
            (instant
               ~name:(Printf.sprintf "enqueue r%d" id)
               ~cat:"request" ~tid ~ts:at ())
        | Obs_sink.Request_shed { id; at } ->
          emit
            (instant
               ~name:(Printf.sprintf "shed r%d" id)
               ~cat:"request" ~tid ~ts:at ())
        | Obs_sink.Request_rejected { id; at } ->
          emit
            (instant
               ~name:(Printf.sprintf "reject r%d" id)
               ~cat:"request" ~tid ~ts:at ())
        | Obs_sink.Request_completed { id; queued; started; finished } ->
          touch finished;
          emit
            (chrome_event
               ~name:(Printf.sprintf "queue r%d" id)
               ~cat:"request" ~ph:"X" ~tid ~ts:queued
               ~dur:(started -. queued) ());
          emit
            (chrome_event
               ~name:(Printf.sprintf "serve r%d" id)
               ~cat:"request" ~ph:"X" ~tid ~ts:started
               ~dur:(finished -. started) ())
        | Obs_sink.Checkpoint { step; bytes } ->
          emit
            (instant ~name:"checkpoint" ~cat:"resilience" ~tid ~ts:e.ts
               ~args:
                 [ ("step", Obs_json.Int step); ("bytes", Obs_json.Int bytes) ]
               ())
        | Obs_sink.Restore { step } ->
          emit
            (instant ~name:"restore" ~cat:"resilience" ~tid ~ts:e.ts
               ~args:[ ("step", Obs_json.Int step) ]
               ())
        | Obs_sink.Occupancy { active; live; total; _ } ->
          (* Stacked lane counter plus a utilization-percent track. *)
          emit
            (chrome_event
               ~name:(counter_label ^ " lanes")
               ~cat:"occupancy" ~ph:"C" ~tid ~ts:e.ts
               ~args:
                 [
                   ("active", Obs_json.Int active);
                   ("masked", Obs_json.Int (live - active));
                   ("halted", Obs_json.Int (total - live));
                 ]
               ());
          let pct =
            if total = 0 then 0.
            else 100. *. float_of_int active /. float_of_int total
          in
          emit
            (chrome_event
               ~name:(counter_label ^ " utilization %")
               ~cat:"occupancy" ~ph:"C" ~tid ~ts:e.ts
               ~args:[ ("pct", Obs_json.Float pct) ]
               ())
        | Obs_sink.Migration { src_shard; dst_shard; member; bytes; step } ->
          let name =
            if src_shard = dst_shard then "defrag move" else "steal"
          in
          emit
            (instant ~name ~cat:"migration" ~tid ~ts:e.ts
               ~args:
                 [
                   ("src_shard", Obs_json.Int src_shard);
                   ("dst_shard", Obs_json.Int dst_shard);
                   ("member", Obs_json.Int member);
                   ("bytes", Obs_json.Float bytes);
                   ("step", Obs_json.Int step);
                 ]
               ())
        | Obs_sink.Span { trace; span; parent; name; t0; t1; _ } ->
          let args =
            [
              ("trace", Obs_json.Int trace);
              ("span", Obs_json.Int span);
              ("parent", Obs_json.Int parent);
            ]
          in
          if t1 > t0 then begin
            touch t1;
            emit
              (chrome_event ~name ~cat:"span" ~ph:"X" ~tid ~ts:t0
                 ~dur:(t1 -. t0) ~args ())
          end
          else emit (instant ~name ~cat:"span" ~tid ~ts:t0 ~args ())
        | Obs_sink.Ladder { level; occupancy; cause; at } ->
          emit
            (instant
               ~name:(Printf.sprintf "ladder %s" level)
               ~cat:"admission" ~tid ~ts:at
               ~args:
                 [
                   ("occupancy", Obs_json.Float occupancy);
                   ("cause", Obs_json.Str cause);
                 ]
               ())
        | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ->
          emit
            (instant
               ~name:
                 (Printf.sprintf "slo %s %s" slo
                    (if fired then "fired" else "resolved"))
               ~cat:"slo" ~tid ~ts:at
               ~args:
                 [
                   ("burn_fast", Obs_json.Float burn_fast);
                   ("burn_slow", Obs_json.Float burn_slow);
                 ]
               ()))
      entries;
    close_span !last_ts;
    List.rev !out
  in
  let events = meta @ List.concat_map events_of_tid tids in
  Obs_json.Obj
    [
      ("traceEvents", Obs_json.List events);
      ("displayTimeUnit", Obs_json.Str "ms");
      ("otherData", Obs_json.Obj [ ("dropped", Obs_json.Int (dropped t)) ]);
    ]

let to_chrome_string t = Obs_json.to_string (to_chrome t)

let to_csv ?policy t =
  let buf = Buffer.create 1024 in
  (* The policy column is appended (not inserted) so consumers that index
     columns by position keep working when no policy is recorded. *)
  (match policy with
  | None -> Buffer.add_string buf "track,ts,kind,name,detail\n"
  | Some _ -> Buffer.add_string buf "track,ts,kind,name,detail,policy\n");
  let tracks = tracks t in
  let track_name id =
    match List.assoc_opt id tracks with
    | Some name -> name
    | None -> Printf.sprintf "track%d" id
  in
  List.iter
    (fun e ->
      let name, detail =
        match e.ev with
        | Obs_sink.Step { shard; step; block } ->
          ( Printf.sprintf "block %d" block,
            Printf.sprintf "step=%d shard=%d" step shard )
        | Obs_sink.Launch { name; _ } -> (name, "")
        | Obs_sink.Launched { name; t0; t1; kind } ->
          (name, Printf.sprintf "%s dur=%.9f" (launch_cat kind) (t1 -. t0))
        | Obs_sink.Collective { name; bytes; t0; t1 } ->
          (name, Printf.sprintf "bytes=%.0f dur=%.9f" bytes (t1 -. t0))
        | Obs_sink.Request_enqueued { id; _ }
        | Obs_sink.Request_shed { id; _ }
        | Obs_sink.Request_rejected { id; _ } -> (Printf.sprintf "r%d" id, "")
        | Obs_sink.Request_completed { id; queued; started; finished } ->
          ( Printf.sprintf "r%d" id,
            Printf.sprintf "queued=%.9f started=%.9f finished=%.9f" queued
              started finished )
        | Obs_sink.Checkpoint { step; bytes } ->
          ("checkpoint", Printf.sprintf "step=%d bytes=%d" step bytes)
        | Obs_sink.Restore { step } -> ("restore", Printf.sprintf "step=%d" step)
        | Obs_sink.Occupancy { shard; step; block; active; live; total; _ } ->
          ( Printf.sprintf "block %d" block,
            Printf.sprintf "step=%d shard=%d active=%d live=%d total=%d" step
              shard active live total )
        | Obs_sink.Migration { src_shard; dst_shard; member; bytes; step } ->
          ( (if src_shard = dst_shard then "defrag move" else "steal"),
            Printf.sprintf "src=%d dst=%d member=%d bytes=%.0f step=%d"
              src_shard dst_shard member bytes step )
        | Obs_sink.Span { trace; span; parent; name; t0; t1; _ } ->
          ( name,
            Printf.sprintf "trace=%d span=%d parent=%d t0=%.9f t1=%.9f" trace
              span parent t0 t1 )
        | Obs_sink.Ladder { level; occupancy; cause; _ } ->
          ( Printf.sprintf "ladder %s" level,
            Printf.sprintf "occupancy=%.3f cause=%s" occupancy cause )
        | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; _ } ->
          ( Printf.sprintf "slo %s" slo,
            Printf.sprintf "fired=%b burn_fast=%.3f burn_slow=%.3f" fired
              burn_fast burn_slow )
      in
      let suffix =
        match policy with None -> "" | Some p -> "," ^ p
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%.9f,%s,%s,%s%s\n" (track_name e.track) e.ts
           (Obs_sink.kind_name e.ev) name detail suffix))
    (entries t);
  Buffer.contents buf

let write t ~path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_chrome_string t);
      Out_channel.output_char oc '\n')
