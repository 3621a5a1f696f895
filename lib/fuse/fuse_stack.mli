(** Stack-level superblock fusion: call-site entry duplication.

    After {!Lower_stack}, a call costs two supersteps before any callee
    work runs: the call segment ends [Spushjump {ret; entry}] and the
    callee's entry block is a separate superstep. This pass copies the
    callee entry's ops into the call site and replaces the terminator:

    - entry ends [Sjump j]    → site ends [Spushjump {ret; entry = j}];
    - entry ends [Sbranch]    → site ends [Spushbranch] (the fused
      call-and-branch terminator), so the superstep that makes the call
      also executes the callee's first block and takes its branch;
    - entry ends [Sreturn]    → the call collapses to [Sjump ret] — the
      push/pop pair cancels entirely.

    Entries over 32 ops, entries that contain [Spop] and entries that
    themselves end in a call are left alone. Duplication never rewrites a
    dup source (sources end in [Sjump]/[Sbranch]/[Sreturn], sites in
    [Spushjump]), so sites are independent. Per-lane op sequences and values are unchanged — the
    copied ops run under the same lane mask one superstep earlier — so
    outputs stay bitwise identical on every runtime.

    With a profile, sites are processed hottest callee first (by
    {!Fuse_profile.func_weight} of the entry block's origin function) so
    the code-size budget ({!Fuse_cfg.max_growth} times the program's
    ops) goes to the call sites that run.

    Finally, blocks unreachable from the program entry and every
    function entry (serving seeds lanes there) are removed and the
    program renumbered; [origin] and [func_entries] are rebuilt. *)

type stats = {
  entries_duplicated : int;
  blocks_removed : int;
  ops_added : int;
}

val run : ?profile:Fuse_profile.t -> Stack_ir.program -> Stack_ir.program * stats
