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
  let logp_batch betas =
    (* z : [zb; n] with zb the batch size. *)
    let z = Tensor.matmul betas xt in
    let ll =
      Tensor.sum ~axis:1
        (Tensor.add (Tensor.log_sigmoid (Tensor.neg z)) (Tensor.mul z y))
    in
    let prior = Tensor.mul_scalar (Tensor.sum ~axis:1 (Tensor.square betas)) (-0.5) in
    Tensor.add ll prior
  in
  let grad_batch betas =
    let z = Tensor.matmul betas xt in
    let resid = Tensor.sub (Tensor.broadcast_rows y (Tensor.nrows betas)) (Tensor.sigmoid z) in
    Tensor.sub (Tensor.matmul resid x) betas
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
