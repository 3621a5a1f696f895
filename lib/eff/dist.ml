type value = Lang.expr

type t =
  | Normal of value * value
  | Half_cauchy of value
  | Log_half_cauchy of value
  | Exponential of value
  | Uniform
  | Bernoulli_logit of value
  | Flat

let half_log_2pi = 0.5 *. Stdlib.log (2. *. Float.pi)
let log_2_over_pi = Stdlib.log (2. /. Float.pi)

let log_prob d x =
  let open Lang in
  let open Lang.Infix in
  match d with
  | Normal (loc, scale) ->
    (flt (-0.5) * prim "square" [ (x - loc) / scale ])
    - prim "log" [ scale ] - flt half_log_2pi
  | Half_cauchy scale ->
    flt log_2_over_pi - prim "log" [ scale ]
    - prim "log1p" [ prim "square" [ x / scale ] ]
  | Log_half_cauchy scale ->
    (* density of tau = exp x under Half_cauchy, plus the Jacobian x. *)
    flt log_2_over_pi - prim "log" [ scale ]
    - prim "log1p" [ prim "square" [ prim "exp" [ x ] / scale ] ]
    + x
  | Exponential rate -> prim "log" [ rate ] - (rate * x)
  | Uniform -> flt 0.
  | Bernoulli_logit logit -> prim "log_sigmoid" [ ~-logit ] + (x * logit)
  | Flat -> flt 0.

let to_string = function
  | Normal _ -> "normal"
  | Half_cauchy _ -> "half_cauchy"
  | Log_half_cauchy _ -> "log_half_cauchy"
  | Exponential _ -> "exponential"
  | Uniform -> "uniform"
  | Bernoulli_logit _ -> "bernoulli_logit"
  | Flat -> "flat"
