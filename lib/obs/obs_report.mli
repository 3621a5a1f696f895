(** Machine-readable report documents.

    A report is one JSON object merging whatever readouts a harness run
    produced — engine counter snapshots, profiler utilization, latency
    histograms, per-shard timelines. This module only standardizes the
    envelope and the output plumbing; each harness assembles its own
    fields. *)

val document : name:string -> (string * Obs_json.t) list -> Obs_json.t
(** [{"report": name, "schema_version": 1, ...fields}]. *)

val to_string : Obs_json.t -> string
(** Pretty-printed, newline-terminated. *)

val print : Obs_json.t -> unit
(** Write to stdout. *)

val write : path:string -> Obs_json.t -> unit
