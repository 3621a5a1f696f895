(* 8 buckets per power of two keeps quantile estimates within ~9% of the
   true value, which is plenty for latency distributions spanning decades. *)
let buckets_per_octave = 8
let n_buckets = 512

(* Bucket 0 is the zero/negative bucket; bucket [mid] holds values in
   [1, 2^(1/8)). *)
let mid = n_buckets / 2

type counter = { mutable count : int }

type histogram = {
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type t = {
  mutable counters : (string * counter) list;
  mutable histograms : (string * histogram) list;
}

let create () = { counters = []; histograms = [] }

let registered existing fresh register name =
  match List.assoc_opt name existing with
  | Some instrument -> instrument
  | None ->
    let instrument = fresh () in
    register (name, instrument);
    instrument

let counter t name =
  registered t.counters
    (fun () -> { count = 0 })
    (fun entry -> t.counters <- t.counters @ [ entry ])
    name

let incr ?(by = 1) c = c.count <- c.count + by
let count c = c.count

let histogram t name =
  registered t.histograms
    (fun () ->
      {
        buckets = Array.make n_buckets 0;
        n = 0;
        sum = 0.;
        lo = Float.infinity;
        hi = Float.neg_infinity;
      })
    (fun entry -> t.histograms <- t.histograms @ [ entry ])
    name

let bucket_of v =
  if v <= 0. then 0
  else
    let i =
      mid + int_of_float (Float.floor (float_of_int buckets_per_octave *. Float.log2 v))
    in
    if i < 1 then 1 else if i > n_buckets - 1 then n_buckets - 1 else i

let observe h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v

let hist_count h = h.n
let hist_sum h = h.sum
let hist_mean h = if h.n = 0 then Float.nan else h.sum /. float_of_int h.n
let hist_min h = if h.n = 0 then Float.nan else h.lo
let hist_max h = if h.n = 0 then Float.nan else h.hi

(* Geometric midpoint of a bucket, the minimax representative under
   relative error. *)
let bucket_value i =
  if i = 0 then 0.
  else
    Float.exp2
      ((float_of_int (i - mid) +. 0.5) /. float_of_int buckets_per_octave)

(* Quantiles interpolate buckets only where the buckets actually carry
   information. The edge cases are exact, not bucket artifacts: an empty
   histogram reads nan, a single observation reads itself at every q,
   and the extreme ranks read the exact tracked min/max (rank 1 is the
   minimum, rank n the maximum — both known precisely). Interior ranks
   read the geometric midpoint of the rank's bucket, clamped to the
   observed [lo, hi]. *)
let quantile h q =
  if h.n = 0 then Float.nan
  else if h.n = 1 then h.lo
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    if target <= 1 then h.lo
    else if target >= h.n then h.hi
    else begin
      let result = ref h.hi in
      let cum = ref 0 in
      (try
         for i = 0 to n_buckets - 1 do
           cum := !cum + h.buckets.(i);
           if !cum >= target then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      Float.min h.hi (Float.max h.lo !result)
    end
  end

let hist_to_json h =
  Obs_json.Obj
    [
      ("count", Obs_json.Int h.n);
      ("sum", Obs_json.Float h.sum);
      ("mean", Obs_json.Float (hist_mean h));
      ("min", Obs_json.Float (hist_min h));
      ("max", Obs_json.Float (hist_max h));
      ("p50", Obs_json.Float (quantile h 0.5));
      ("p90", Obs_json.Float (quantile h 0.9));
      ("p99", Obs_json.Float (quantile h 0.99));
    ]

let to_json t =
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  Obs_json.Obj
    [
      ( "counters",
        Obs_json.Obj
          (List.map (fun (name, c) -> (name, Obs_json.Int c.count)) (by_name t.counters))
      );
      ( "histograms",
        Obs_json.Obj
          (List.map (fun (name, h) -> (name, hist_to_json h)) (by_name t.histograms)) );
    ]
