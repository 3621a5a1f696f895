type launch_kind = Kernel | Fused_block

type event =
  | Step of { shard : int; step : int; block : int }
  | Launch of { kind : launch_kind; name : string }
  | Launched of { kind : launch_kind; name : string; t0 : float; t1 : float }
  | Collective of { name : string; bytes : float; t0 : float; t1 : float }
  | Request_enqueued of { id : int; at : float }
  | Request_shed of { id : int; cls : string; at : float }
  | Request_rejected of { id : int; cls : string; reason : string; at : float }
  | Request_completed of {
      id : int;
      cls : string;
      queued : float;
      started : float;
      finished : float;
    }
  | Checkpoint of { step : int; bytes : int }
  | Restore of { step : int; rolled_back : float }
  | Occupancy of {
      shard : int;
      step : int;
      block : int;
      active : int;
      live : int;
      total : int;
      width : int;
      depth : int;
    }
  | Migration of {
      src_shard : int;
      dst_shard : int;
      member : int;
      bytes : float;
      step : int;
    }
  | Span of {
      trace : int;
      span : int;
      parent : int;
      track : int;
      name : string;
      t0 : float;
      t1 : float;
    }
  | Ladder of { level : string; occupancy : float; at : float }
  | Slo_alert of {
      slo : string;
      fired : bool;
      burn_fast : float;
      burn_slow : float;
      at : float;
    }
  | Round of { round : int; at : float }

type t = event -> unit

let fanout sinks ev = List.iter (fun sink -> sink ev) sinks

let tag_shard shard sink ev =
  match ev with
  | Step s -> sink (Step { s with shard })
  | Occupancy o -> sink (Occupancy { o with shard })
  | ev -> sink ev

let kind_name = function
  | Step _ -> "step"
  | Launch _ -> "launch"
  | Launched _ -> "launched"
  | Collective _ -> "collective"
  | Request_enqueued _ -> "enqueue"
  | Request_shed _ -> "shed"
  | Request_rejected _ -> "reject"
  | Request_completed _ -> "complete"
  | Checkpoint _ -> "checkpoint"
  | Restore _ -> "restore"
  | Occupancy _ -> "occupancy"
  | Migration _ -> "migration"
  | Span _ -> "span"
  | Ladder _ -> "ladder"
  | Slo_alert _ -> "slo-alert"
  | Round _ -> "round"
