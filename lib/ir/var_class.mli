(** Storage classes assigned to program variables by the stack-IR compiler,
    per the paper's optimizations O2 and O3.

    - [Temp]: never live across a basic-block boundary; the batching
      system ignores it entirely (plain unmasked batched storage — its
      junk lanes are never read).
    - [Masked]: live across blocks but never needs to survive a
      potentially re-entrant call; a single top value per batch member,
      updated under the active mask.
    - [Stacked]: must survive re-entrant calls; gets a per-member stack
      with a cached top (optimization O4). *)

type t = Temp | Masked | Stacked

val to_string : t -> string
