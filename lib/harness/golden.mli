(** Byte-exact golden documents.

    Every committed artifact a gate owns — the [BENCH_*.json] baselines,
    the paper-figures and scaling goldens, the test suite's export
    goldens — is one deterministic document compared byte for byte
    against its committed file by {!check}. One convention re-baselines
    all of them: with [AUTOBATCH_BLESS=<dir>] set, {!check} writes
    [<dir>/<path>] instead of comparing. *)

type outcome =
  | Matched            (** the document equals the committed file *)
  | Blessed of string  (** the document was written to this path *)

val check : ?bless:string option -> path:string -> string -> (outcome, string) result
(** [check ~path doc] compares [doc] with the contents of [path].
    A missing file or any difference is an [Error] naming [path] and,
    for a difference, the first differing line on both sides. With
    [bless] set to [Some dir], writes [doc] to [Filename.concat dir path],
    creating any missing directory on the way, and returns [Blessed]
    instead; a write that fails is an [Error] naming that path. [bless] defaults to [AUTOBATCH_BLESS]
    when that is set and non-empty, and to [None] otherwise. *)
