type data = { x : Tensor.t; y : Tensor.t; beta_true : Tensor.t }

let synth ?(seed = 0xDA7AL) ~n ~dim () =
  if n <= 0 || dim <= 0 then invalid_arg "Logistic_model: sizes must be positive";
  let stream = Splitmix.Stream.create seed in
  let beta_true = Tensor.init [| dim |] (fun _ -> Splitmix.Stream.normal stream) in
  let scale = 1. /. Stdlib.sqrt (float_of_int dim) in
  let x = Tensor.init [| n; dim |] (fun _ -> scale *. Splitmix.Stream.normal stream) in
  let logits = Tensor.matvec x beta_true in
  let y =
    Tensor.init [| n |] (fun idx ->
        if Splitmix.Stream.uniform stream < Tensor.sigmoid_f (Tensor.data logits).(idx.(0))
        then 1.
        else 0.)
  in
  { x; y; beta_true }

let model_of_data { x; y; beta_true = _ } =
  let n = (Tensor.shape x).(0) and dim = (Tensor.shape x).(1) in
  let xt = Tensor.transpose x in
  (* logp(β) = Σ [y log σ(z) + (1-y) log σ(-z)] − βᵀβ/2
             = Σ [log σ(-z) + y z] − βᵀβ/2   (algebraic merge) *)
  let logp beta =
    let z = Tensor.matvec x beta in
    let ll =
      Tensor.item
        (Tensor.sum (Tensor.add (Tensor.log_sigmoid (Tensor.neg z)) (Tensor.mul y z)))
    in
    ll -. (0.5 *. Tensor.item (Tensor.dot beta beta))
  in
  let grad beta =
    let z = Tensor.matvec x beta in
    let resid = Tensor.sub y (Tensor.sigmoid z) in
    Tensor.sub (Tensor.matvec xt resid) beta
  in
  (* The batched kernels keep the reference operations' order and
     operand order (see the interface): only the [+ - *] passes are
     fused here, while [exp]/[log1p] stay in [Tensor]'s own loops, where
     their floats stay unboxed. *)
  let yd = Tensor.data y in
  let logp_batch betas =
    (* z : [zb; n] with zb the batch size. *)
    let zb = Tensor.nrows betas in
    let z = Tensor.matmul betas xt in
    let ls = Tensor.log_sigmoid (Tensor.neg z) in
    let zd = Tensor.data z and lsd = Tensor.data ls and bd = Tensor.data betas in
    let out = Tensor.zeros [| zb |] in
    let od = Tensor.data out in
    for i = 0 to zb - 1 do
      let zo = i * n and bo = i * dim in
      let acc = ref 0. in
      for j = 0 to n - 1 do
        let l = lsd.(zo + j) and zj = zd.(zo + j) and yj = yd.(j) in
        acc := !acc +. (l +. (zj *. yj))
      done;
      let p = ref 0. in
      for l = 0 to dim - 1 do
        let b = bd.(bo + l) in
        p := !p +. (b *. b)
      done;
      od.(i) <- !acc +. (!p *. -0.5)
    done;
    out
  in
  let grad_batch betas =
    let zb = Tensor.nrows betas in
    let resid = Tensor.sigmoid (Tensor.matmul betas xt) in
    let rd = Tensor.data resid in
    for i = 0 to zb - 1 do
      let ro = i * n in
      for j = 0 to n - 1 do
        let yj = yd.(j) and s = rd.(ro + j) in
        rd.(ro + j) <- yj -. s
      done
    done;
    let g = Tensor.matmul resid x in
    let gd = Tensor.data g and bd = Tensor.data betas in
    for o = 0 to Array.length gd - 1 do
      let gi = gd.(o) and b = bd.(o) in
      gd.(o) <- gi -. b
    done;
    g
  in
  let y_data = Array.copy (Tensor.data y) in
  let spec () =
    let open Lang in
    let beta = Eff.sample_vec "beta" ~dim (Dist.Normal (flt 0., flt 1.)) in
    let z = Eff.data_matvec "design_mv" x beta in
    Eff.observe ~shape:[| n |] "y" (Dist.Bernoulli_logit z) (vec y_data);
    [ beta ]
  in
  let nf = float_of_int n and df = float_of_int dim in
  Model.make
    ~name:(Printf.sprintf "logistic-%dx%d" n dim)
    ~dim ~spec ~logp ~grad ~logp_batch ~grad_batch
    ~logp_flops:((2. *. nf *. df) +. (8. *. nf) +. (2. *. df))
    ~grad_flops:((4. *. nf *. df) +. (6. *. nf) +. df)
    ()

let model ?seed ~n ~dim () = model_of_data (synth ?seed ~n ~dim ())
