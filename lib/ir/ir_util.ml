(* Shared string-keyed containers for the IR passes, and the step-limit
   exception every runtime raises. *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let sset_of_list = Sset.of_list

exception Step_limit_exceeded
