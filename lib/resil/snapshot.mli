(** Versioned, checksummed binary snapshots of execution state.

    A snapshot is an envelope

    {v magic | version | kind | payload | fnv1a-64 checksum v}

    around a typed payload built from the runtimes' plain-data images
    ({!Vm_image}, {!Pc_vm.Lanes.image}, {!Engine.snapshot}). Decoding
    verifies the checksum before trusting a single length field and
    rejects wrong magic, unknown versions, mismatched kinds, truncation,
    and trailing bytes with a descriptive {!Codec.Corrupt}. Floats travel
    as IEEE-754 bit patterns, so a decoded state is bitwise identical to
    the captured one — the foundation of deterministic replay. *)

val version : int

val encode : kind:string -> (Buffer.t -> unit) -> string
(** Wrap a payload writer in the envelope. *)

val decode : kind:string -> string -> (Codec.reader -> 'a) -> 'a
(** Unwrap and verify, then run the payload reader. Raises
    {!Codec.Corrupt} on any integrity or format violation, including
    payload bytes left undecoded. *)

val save_file : string -> string -> unit
(** [save_file path blob] writes the blob atomically enough for a
    single-writer checkpoint (binary mode, closed on error). *)

val load_file : string -> string
(** Read a whole snapshot file (binary mode). *)

(** {1 Section codecs}

    Exposed so composite snapshots (and tests) can reuse them. Each
    [w_x]/[r_x] pair round-trips exactly. *)

val w_shape : Buffer.t -> Shape.t -> unit
val r_shape : Codec.reader -> Shape.t
val w_stacked : Buffer.t -> Stacked.image -> unit
val r_stacked : Codec.reader -> Stacked.image
val w_pc : Buffer.t -> Vm_image.pc -> unit
val r_pc : Codec.reader -> Vm_image.pc
val w_storage : Buffer.t -> Vm_image.storage -> unit
val r_storage : Codec.reader -> Vm_image.storage
val w_store : Buffer.t -> Vm_image.store -> unit
val r_store : Codec.reader -> Vm_image.store
val w_lanes : Buffer.t -> Pc_vm.Lanes.image -> unit
val r_lanes : Codec.reader -> Pc_vm.Lanes.image
val w_counters : Buffer.t -> Engine.Counters.t -> unit
val r_counters : Codec.reader -> Engine.Counters.t
val w_engine : Buffer.t -> Engine.snapshot -> unit
val r_engine : Codec.reader -> Engine.snapshot

(** {1 Snapshot kinds} *)

(** A full single-VM checkpoint: the VM image plus the engine state, if
    any, so a recovered run reports true cumulative cost from time zero. *)
type 'vm checkpoint = { ck_vm : 'vm; ck_engine : Engine.snapshot option }

val encode_pc : Pc_vm.Lanes.image checkpoint -> string
val decode_pc : string -> Pc_vm.Lanes.image checkpoint

val encode_shards : Pc_vm.Lanes.image array -> string
(** One image per shard, shard order. *)

val decode_shards : string -> Pc_vm.Lanes.image array
