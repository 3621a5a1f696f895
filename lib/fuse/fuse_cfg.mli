(** CFG-level superblock fusion (the first half of {!module:Fuse}).

    Rewrites each function's control-flow graph so one scheduled superstep
    of the program-counter machine executes more straight-line work:

    - {b jump threading}: edges through empty jump-only blocks are
      retargeted past them, and branches whose arms agree collapse to
      jumps;
    - {b chain fusion}: a block ending [Jump j] where [j] has no other
      predecessor absorbs [j] — the single-predecessor/single-successor
      chains become one megablock;
    - {b if-conversion}: a branch over two straight-line arms (a diamond,
      or a triangle with one empty arm) that both rejoin is flattened
      into one block — both arms execute speculatively on every lane,
      arm definitions are renamed to fresh temporaries, and the join
      picks per lane with [select]. Legal only when every arm op is a
      call-free primitive, the arms fit 24 ops each, and every merged
      variable is either defined in both arms or definitely assigned
      before the branch (so no lane reads storage no lane ever wrote);
      arms containing non-deterministic (RNG) primitives are kept
      unfused unless [speculate_rng] — the default preserves the rule
      that RNG ops are never moved relative to each other;
    - {b latch rotation} (tail duplication): a block ending [Jump h]
      where [h] ends in a branch gets [h]'s ops appended and takes the
      branch itself, saving one superstep per loop iteration; the copies
      are bounded by 16 ops per site and the function-wide
      {!max_growth} (functions under 8 ops budget as if they had 8);
    - {b unreachable elimination}: blocks no path reaches are dropped
      and the graph renumbered (the entry stays block 0).

    Every rewrite preserves each lane's dynamic sequence of effective
    ops and values, so outputs are bitwise identical on every runtime
    (see DESIGN.md §S19 for the legality arguments).

    [func_weight] is the profile hook: functions with zero weight under
    a non-trivial profile skip the duplicating (growing) rewrites. *)

val max_growth : float
(** The code-size growth factor (1.6) bounding every duplicating rewrite,
    here and in {!Fuse_stack}. *)

type stats = {
  jumps_threaded : int;
  chains_fused : int;
  branches_converted : int;
  latches_rotated : int;
  blocks_removed : int;
}

val run :
  ?speculate_rng:bool ->
  ?func_weight:(string -> float) ->
  Prim.registry ->
  Cfg.program ->
  Cfg.program * (string * int list array) list * stats
(** Returns the fused program, the fusion provenance (per function, for
    every surviving block, the source block ids it absorbed in execution
    order — block [i] maps to [[i]] when untouched), and pass counters. *)
