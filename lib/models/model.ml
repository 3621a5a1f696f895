type t = {
  name : string;
  dim : int;
  spec : (unit -> Lang.expr list) option;
  logp : Tensor.t -> float;
  grad : Tensor.t -> Tensor.t;
  logp_batch : Tensor.t -> Tensor.t;
  grad_batch : Tensor.t -> Tensor.t;
  logp_flops : float;
  grad_flops : float;
}

let make ~name ~dim ?spec ~logp ~grad ~logp_batch ~grad_batch ~logp_flops
    ~grad_flops () =
  { name; dim; spec; logp; grad; logp_batch; grad_batch; logp_flops; grad_flops }

let spec_exn m =
  match m.spec with
  | Some body -> body
  | None ->
    invalid_arg
      (Printf.sprintf "Model.%s: model has no handler-DSL spec" m.name)

let log_density ?seed m = Eff.log_density ?seed ~fn_name:m.name (spec_exn m)

let with_grad_counter m =
  let n = ref 0 in
  ( {
      m with
      grad =
        (fun q ->
          incr n;
          m.grad q);
    },
    n )

let check_dim m name s =
  match s with
  | [ q ] when Shape.equal q [| m.dim |] -> ()
  | [ q ] ->
    raise
      (Prim.Shape_error
         (Printf.sprintf "%s: position must have shape [%d], got %s" name m.dim
            (Shape.to_string q)))
  | ss ->
    raise
      (Prim.Shape_error
         (Printf.sprintf "%s: expected 1 argument, got %d" name (List.length ss)))

let register_prims reg m =
  Prim.register reg
    {
      Prim.name = "logp";
      arity = 1;
      deterministic = true;
      shape =
        (fun ss ->
          check_dim m "logp" ss;
          Shape.scalar);
      flops = (fun _ -> m.logp_flops);
      batched =
        (fun ~members:_ args ->
          match args with [ q ] -> m.logp_batch q | _ -> invalid_arg "logp: arity");
      single =
        (fun ~member:_ args ->
          match args with
          | [ q ] -> Tensor.scalar (m.logp q)
          | _ -> invalid_arg "logp: arity");
    };
  Prim.register reg
    {
      Prim.name = "grad";
      arity = 1;
      deterministic = true;
      shape =
        (fun ss ->
          check_dim m "grad" ss;
          [| m.dim |]);
      flops = (fun _ -> m.grad_flops);
      batched =
        (fun ~members:_ args ->
          match args with [ q ] -> m.grad_batch q | _ -> invalid_arg "grad: arity");
      single =
        (fun ~member:_ args ->
          match args with [ q ] -> m.grad q | _ -> invalid_arg "grad: arity");
    }

let check_shapes m =
  let stream = Splitmix.Stream.create 99L in
  for trial = 0 to 2 do
    let z = 3 in
    let q =
      Tensor.init [| z; m.dim |] (fun _ -> Splitmix.Stream.normal stream)
    in
    let lp = m.logp_batch q in
    let g = m.grad_batch q in
    if not (Shape.equal (Tensor.shape lp) [| z |]) then
      failwith (Printf.sprintf "%s: logp_batch shape wrong" m.name);
    if not (Shape.equal (Tensor.shape g) [| z; m.dim |]) then
      failwith (Printf.sprintf "%s: grad_batch shape wrong" m.name);
    for b = 0 to z - 1 do
      let qb = Tensor.slice_row q b in
      let lp1 = m.logp qb in
      if Float.abs (lp1 -. (Tensor.data lp).(b)) > 1e-8 *. (1. +. Float.abs lp1) then
        failwith
          (Printf.sprintf "%s: logp single/batch disagree at trial %d member %d"
             m.name trial b);
      let g1 = m.grad qb in
      if not (Tensor.allclose ~rtol:1e-8 ~atol:1e-10 g1 (Tensor.slice_row g b)) then
        failwith
          (Printf.sprintf "%s: grad single/batch disagree at trial %d member %d"
             m.name trial b)
    done
  done
