(** Versioned, checksummed binary snapshots of execution state.

    A snapshot is an envelope

    {v magic | version | kind | payload | fnv1a-64 checksum v}

    around a typed payload built from the runtimes' plain-data images
    ({!Pc_vm.Lanes.image}, {!Engine.snapshot}); a lane pool travels as
    its occupied lanes' states ({!w_lane_state}). Decoding
    verifies the checksum before trusting a single length field and
    rejects wrong magic, unknown versions, mismatched kinds, truncation,
    and trailing bytes with a descriptive {!Codec.Corrupt}. Floats travel
    as IEEE-754 bit patterns, so a decoded state is bitwise identical to
    the captured one — the foundation of deterministic replay. *)

val version : int
(** 6: a pool is its lane states, with no register (class tag 0 is
    refused), and a lane's pc is a stack column like a stacked
    variable's, its block indices as float bits. Blobs of any other
    version (5 wrote registers, 4 the pc as integers, 3 a pool's whole
    storage) are {!Codec.Corrupt}. *)

val encode : kind:string -> (Buffer.t -> unit) -> string
(** Wrap a payload writer in the envelope. *)

val decode : kind:string -> string -> (Codec.reader -> 'a) -> 'a
(** Unwrap and verify, then run the payload reader. Raises
    {!Codec.Corrupt} on any integrity or format violation, including
    payload bytes left undecoded. *)

(** {1 Section codecs}

    Exposed so composite snapshots (and tests) can reuse them. Each
    [w_x]/[r_x] pair round-trips exactly. *)

val w_lane_state :
  Pc_vm.Lanes.lane_var array -> Buffer.t -> Pc_vm.Lanes.lane_state -> unit
(** [w_lane_state vars] writes one lane of a pool whose allocated
    variables are [vars] (the image's [li_vars]): member, pc column, the
    masked rows, then each stacked variable's column, every column in
    one format (depth, frames, top) — no names, shapes or lengths, which
    [vars] fixes through {!Pc_vm.Lanes.layout}. Raises [Invalid_argument] if the lane's variables are
    not [vars]. *)

val r_lane_state : Pc_vm.Lanes.lane_var array -> Codec.reader -> Pc_vm.Lanes.lane_state
(** The inverse, given the same [vars] (which the decoded lane shares);
    a truncated lane or an impossible stack depth is {!Codec.Corrupt}. *)

val w_lanes : Buffer.t -> Pc_vm.Lanes.image -> unit
(** The pool-level fields, the variable list once (name, storage class,
    element shape), then one optional {!w_lane_state} per lane. *)

val w_engine : Buffer.t -> Engine.snapshot -> unit

(** {1 Snapshot kinds} *)

(** A full single-VM checkpoint: the VM image plus the engine state, if
    any, so a recovered run reports true cumulative cost from time zero. *)
type 'vm checkpoint = { ck_vm : 'vm; ck_engine : Engine.snapshot option }

val encode_pc : Pc_vm.Lanes.image checkpoint -> string
val decode_pc : string -> Pc_vm.Lanes.image checkpoint

val encode_shards : Pc_vm.Lanes.image array -> string
(** One image per shard, shard order. *)

val decode_shards : string -> Pc_vm.Lanes.image array
