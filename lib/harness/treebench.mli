(** Decision-tree inference — pure control flow elaborated through
    {!Eff.branch} into nested IR [If]s; the divergence-stress workload
    behind [experiments tree] and part of [bench eff].

    A random full binary tree of threshold tests is elaborated once; a
    batch of random feature vectors then takes a different root-to-leaf
    path in every lane. Every runtime is gated bitwise against direct
    host evaluation of the same tree. *)

type tree =
  | Leaf of float
  | Node of { feature : int; threshold : float; lo : tree; hi : tree }

type result = {
  depth : int;
  n_features : int;
  z : int;
  supersteps : int;  (** lane-pool basic blocks to drain the batch *)
  distinct_leaves : int;  (** paths actually taken by the batch *)
  bitwise : (string * bool) list;  (** pc/local/shard/lanes vs host *)
}

val run :
  ?seed:int64 -> ?depth:int -> ?n_features:int -> ?z:int -> unit -> result
(** Defaults: depth 6, 8 features, batch 64. Deterministic by [seed]. *)

val passes : result -> bool
(** Multiple paths exercised and every runtime bitwise-correct. *)

val to_json : result -> Obs_json.t
val print : result -> unit
