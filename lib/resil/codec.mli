(** Binary primitives for snapshot serialization.

    Everything is 8-byte little-endian: ints as int64, floats via their
    IEEE-754 bit pattern, so round trips are bitwise exact (NaN payloads
    and signed zeros included — the replay guarantee depends on it).
    Variable-length values are length-prefixed. Readers are
    bounds-checked: malformed input raises {!Corrupt} with a byte
    position, never an [Index_out_of_bounds] or a giant allocation. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

(** {1 Writers (over [Buffer])} *)

val w_i64 : Buffer.t -> int64 -> unit
val w_int : Buffer.t -> int -> unit
val w_float : Buffer.t -> float -> unit
val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
val w_int_array : Buffer.t -> int array -> unit
val w_float_array : Buffer.t -> float array -> unit
val w_bool_array : Buffer.t -> bool array -> unit
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

(** {1 Readers (over a string with a cursor)} *)

type reader = { src : string; mutable pos : int }

val reader : string -> reader
val remaining : reader -> int
val skip : reader -> int -> unit
val r_int : reader -> int
val r_float : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_int_array : reader -> int array
val r_float_array : reader -> float array
val r_bool_array : reader -> bool array
val r_list : (reader -> 'a) -> reader -> 'a list
val r_option : (reader -> 'a) -> reader -> 'a option

(** {1 Integrity} *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit hash — the snapshot envelope's integrity checksum
    (catches corruption and truncation; not cryptographic). *)
