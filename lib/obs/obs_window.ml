(* Sliding windows on the simulated clock: a window of length [w] split
   into [k = 8] ring sub-buckets of width [w/k]. Advancing to time [t] zeros
   every sub-bucket the clock skipped, so state is constant regardless of
   how sparse or dense the observations are, and everything is a pure
   function of the observation sequence — no wall time, fully
   deterministic under replay. *)

let k = 8

type counter = {
  width : float;
  sums : float array;
  mutable epoch : int;  (* absolute sub-bucket index of the newest cell *)
}

let counter ~window () =
  if window <= 0. then invalid_arg "Obs_window.counter: window must be positive";
  { width = window /. float_of_int k; sums = Array.make k 0.; epoch = 0 }

let bucket_index c ~now =
  if now <= 0. then 0 else int_of_float (Float.floor (now /. c.width))

let advance_counter c idx =
  if idx > c.epoch then begin
    let steps = min k (idx - c.epoch) in
    for i = 1 to steps do
      c.sums.((c.epoch + i) mod k) <- 0.
    done;
    c.epoch <- idx
  end

let add c ~now v =
  let idx = bucket_index c ~now in
  advance_counter c idx;
  (* A late observation (idx < epoch) still lands in the window if its
     sub-bucket hasn't been recycled; older than that, it's dropped —
     the window has genuinely slid past it. *)
  if idx > c.epoch - k then c.sums.(idx mod k) <- c.sums.(idx mod k) +. v

let total c ~now =
  advance_counter c (bucket_index c ~now);
  Array.fold_left ( +. ) 0. c.sums
