type t = {
  target_accept : float;
  gamma : float;
  t0 : float;
  kappa : float;
  mu : float;
  mutable log_eps : float;
  mutable log_eps_bar : float;
  mutable h_bar : float;
  mutable m : int;
}

let create ?(target_accept = 0.8) ?(gamma = 0.05) ?(t0 = 10.) ?(kappa = 0.75) ~mu () =
  if target_accept <= 0. || target_accept >= 1. then
    invalid_arg "Dual_averaging.create: target_accept must be in (0,1)";
  { target_accept; gamma; t0; kappa; mu; log_eps = mu -. Stdlib.log 10.;
    log_eps_bar = 0.; h_bar = 0.; m = 0 }

let update t ~accept_stat =
  let a = Float.max 0. (Float.min 1. accept_stat) in
  t.m <- t.m + 1;
  let m = float_of_int t.m in
  let w = 1. /. (m +. t.t0) in
  t.h_bar <- ((1. -. w) *. t.h_bar) +. (w *. (t.target_accept -. a));
  t.log_eps <- t.mu -. (Stdlib.sqrt m /. t.gamma *. t.h_bar);
  let eta = m ** -.t.kappa in
  t.log_eps_bar <- (eta *. t.log_eps) +. ((1. -. eta) *. t.log_eps_bar)

let current_eps t = Stdlib.exp t.log_eps
let adapted_eps t = if t.m = 0 then Stdlib.exp t.log_eps else Stdlib.exp t.log_eps_bar
