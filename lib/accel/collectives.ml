type algorithm = Ring | Tree

let log2_ceil n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  go 0 1

let step_time (l : Mesh.link) ~bytes =
  (bytes /. l.Mesh.bytes_per_sec) +. l.Mesh.latency

let all_reduce_time mesh algo ~bytes =
  let n = Mesh.size mesh in
  if n <= 1 then 0.
  else begin
    let l = Mesh.link mesh in
    let nf = float_of_int n in
    match algo with
    | Ring ->
      (* Bandwidth-optimal ring: a reduce-scatter then an all-gather, each
         moving (N-1)/N of the payload in N-1 latency-bearing hops. *)
      (2. *. (nf -. 1.) /. nf *. bytes /. l.Mesh.bytes_per_sec)
      +. (float_of_int (2 * (n - 1)) *. l.Mesh.latency)
    | Tree ->
      (* Reduce up a binary tree then broadcast down: 2·ceil(log2 N) steps
         each carrying the full payload. *)
      float_of_int (2 * log2_ceil n) *. step_time l ~bytes
  end

let all_gather_time mesh algo ~bytes =
  (* [bytes] is the full gathered payload; each device starts with 1/N. *)
  let n = Mesh.size mesh in
  if n <= 1 then 0.
  else begin
    let l = Mesh.link mesh in
    let nf = float_of_int n in
    match algo with
    | Ring ->
      ((nf -. 1.) /. nf *. bytes /. l.Mesh.bytes_per_sec)
      +. (float_of_int (n - 1) *. l.Mesh.latency)
    | Tree ->
      (* Recursive doubling: step k exchanges 2^k/N of the payload. *)
      ((nf -. 1.) /. nf *. bytes /. l.Mesh.bytes_per_sec)
      +. (float_of_int (log2_ceil n) *. l.Mesh.latency)
  end

let p2p_time mesh ~bytes =
  if Mesh.size mesh <= 1 then 0. else step_time (Mesh.link mesh) ~bytes
