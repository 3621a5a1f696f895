let check_square name a =
  if Tensor.rank a <> 2 || (Tensor.shape a).(0) <> (Tensor.shape a).(1) then
    invalid_arg (Printf.sprintf "Cholesky.%s: square rank-2 tensor required" name);
  (Tensor.shape a).(0)

let factor a =
  let n = check_square "factor" a in
  let l = Array.make (n * n) 0. in
  let ad = Tensor.data a in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref ad.((i * n) + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (l.((i * n) + k) *. l.((j * n) + k))
      done;
      if i = j then begin
        if !acc <= 0. then
          failwith
            (Printf.sprintf "Cholesky.factor: non-positive pivot %g at %d" !acc i);
        l.((i * n) + j) <- Stdlib.sqrt !acc
      end
      else l.((i * n) + j) <- !acc /. l.((j * n) + j)
    done
  done;
  Tensor.create [| n; n |] l

let solve_lower l b =
  let n = check_square "solve_lower" l in
  if Tensor.rank b <> 1 || (Tensor.shape b).(0) <> n then
    invalid_arg "Cholesky.solve_lower: rank-1 rhs of matching size required";
  let ld = Tensor.data l and bd = Tensor.data b in
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref bd.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (ld.((i * n) + k) *. x.(k))
    done;
    x.(i) <- !acc /. ld.((i * n) + i)
  done;
  Tensor.create [| n |] x

let solve_upper u b =
  let n = check_square "solve_upper" u in
  if Tensor.rank b <> 1 || (Tensor.shape b).(0) <> n then
    invalid_arg "Cholesky.solve_upper: rank-1 rhs of matching size required";
  let ud = Tensor.data u and bd = Tensor.data b in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref bd.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (ud.((i * n) + k) *. x.(k))
    done;
    x.(i) <- !acc /. ud.((i * n) + i)
  done;
  Tensor.create [| n |] x

let inverse_from_factor l =
  let n = check_square "inverse_from_factor" l in
  let lt = Tensor.transpose l in
  let cols =
    List.init n (fun j ->
        let e = Tensor.init [| n |] (fun idx -> if idx.(0) = j then 1. else 0.) in
        solve_upper lt (solve_lower l e))
  in
  (* Columns of the inverse, stacked as rows then transposed; the inverse is
     symmetric so the transpose is a no-op mathematically, but keep it for
     exact layout correctness. *)
  Tensor.transpose (Tensor.stack_rows cols)

let log_det_from_factor l =
  let n = check_square "log_det_from_factor" l in
  let ld = Tensor.data l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Stdlib.log ld.((i * n) + i)
  done;
  2. *. !acc
