type key = { seed : int64 }

let key seed = { seed }

let word k ~member ~counter ~slot =
  Splitmix.hash_list
    [ k.seed; Int64.of_int member; Int64.of_int counter; Int64.of_int slot ]

let uniform k ~member ~counter ~slot =
  Splitmix.to_unit_float (word k ~member ~counter ~slot)

let normal k ~member ~counter ~slot =
  (* Two derived uniforms per slot; Box–Muller, cosine branch only, so each
     (member, counter, slot) triple yields exactly one normal. *)
  let u1 = uniform k ~member ~counter ~slot:(2 * slot) in
  let u2 = uniform k ~member ~counter ~slot:((2 * slot) + 1) in
  Stdlib.sqrt (-2. *. Stdlib.log u1) *. Stdlib.cos (2. *. Float.pi *. u2)

let exponential k ~member ~counter ~slot =
  -.Stdlib.log (uniform k ~member ~counter ~slot)
