(** The primitive (kernel) vocabulary.

    Every computation a user program performs is a primitive from a
    registry: the autobatching runtimes execute primitives in batch (with a
    leading batch dimension over chains / batch members), while the
    single-example reference interpreter executes them per member. Each
    primitive also carries an element-shape inference rule (used by
    {!Shape_infer} to preallocate VM storage — the analogue of XLA's static
    shape requirement) and a flop estimate (used by the simulated
    accelerator's cost model).

    Element shapes never include the batch dimension: a primitive declared
    with shapes [[d] -> []] consumes a [z; d] tensor and produces a [z]
    tensor in batched execution.

    Randomness is counter-based (see {!Counter_rng}): the RNG primitives
    take a draw-counter *program variable* and the batch member index comes
    from the runtime, so masked execution cannot perturb any member's
    stream. *)

exception Shape_error of string

type t = {
  name : string;
  arity : int;
  deterministic : bool;
      (** Output depends only on the inputs (no batch-member identity, no
          randomness) — the licence for compile-time constant folding. *)
  shape : Shape.t list -> Shape.t;
      (** Element-shape rule; raises {!Shape_error} on invalid inputs. *)
  flops : Shape.t list -> float;
      (** Estimated flops per batch member. *)
  batched : members:int array -> Tensor.t list -> Tensor.t;
      (** Batched execution. [members.(i)] is the global batch-member index
          of row [i] (identity under masking; the gathered indices under
          gather/scatter execution). Must be row-separable: output row [i]
          depends only on row [i] of each argument and on [members.(i)],
          bitwise. Both batching runtimes rely on it: {!Local_vm}'s
          gather/scatter style, and {!Pc_vm}, which calls a flop-heavy
          primitive on the active rows only, run [batched] on a gathered
          subset of rows and expect exactly the rows the full-width call
          would give. *)
  single : member:int -> Tensor.t list -> Tensor.t;
      (** Single-example execution for batch member [member]. *)
}

type registry

val create_registry : unit -> registry
val register : registry -> t -> unit
(** Replaces any existing primitive of the same name. *)

val find : registry -> string -> t option
val find_exn : registry -> string -> t
(** Raises [Not_found_prim] via [Invalid_argument] with the name. *)

val names : registry -> string list
val copy : registry -> registry

val standard : ?seed:int64 -> unit -> registry
(** The standard vocabulary:

    Elementwise (element shapes broadcast):
    [add sub mul div pow min max logaddexp neg abs sign exp log sqrt square
    sigmoid log_sigmoid tanh tan log1p floor ceil round], comparisons
    [eq ne lt le gt ge] (0/1 result), logic [and or not], ternary
    [select].

    Reductions and products: [sum] (all element axes), [dot] (rank-1 pair),
    [sum_sq] (sum of squares).

    Dynamic vector access: [index v i] and functional [update v i x] on
    rank-1 values (indices clamped to range, so masked junk lanes cannot
    fail) — enough to express dynamic programming over fixed-size
    buffers.

    Randomness (counter-based, seeded by [?seed]): [uniform cnt],
    [exponential cnt] (scalar draws), [normal_like x cnt] (standard normals
    shaped like [x]). Each consumes one counter tick; programs must
    increment the counter variable themselves after each draw. *)

(** {1 Helpers for defining new primitives} *)

val elementwise : string -> ?flops_per_elem:float -> (Tensor.t -> Tensor.t) -> t
(** [elementwise name op]: a unary elementwise primitive whose batched and
    single forms both apply the tensor operation [op] (e.g. [Tensor.exp],
    or [Tensor.map f] for a custom float function [f]). Element shape is
    preserved; flops are [flops_per_elem] (default 1) per element. *)

val batch_rank_align : Tensor.t -> Tensor.t -> Tensor.t * Tensor.t
(** Insert size-1 axes after the batch axis of the lower-element-rank
    operand so that batched elementwise broadcasting matches the
    trailing-aligned broadcast of the element shapes. *)
