type node = {
  id : int;
  value : Tensor.t;
  mutable adjoint : Tensor.t option;
  (* Propagate this node's adjoint to its parents. *)
  backward : (Tensor.t -> unit) option;
}

type tape = { mutable nodes : node list; mutable next_id : int }
type var = { tape : tape; node : node }

let new_tape () = { nodes = []; next_id = 0 }

let mk_node tape value backward =
  let node = { id = tape.next_id; value; adjoint = None; backward } in
  tape.next_id <- tape.next_id + 1;
  tape.nodes <- node :: tape.nodes;
  node

let input tape value = { tape; node = mk_node tape value None }
let const = input
let value v = v.node.value

let accumulate node g =
  match node.adjoint with
  | None -> node.adjoint <- Some g
  | Some a -> node.adjoint <- Some (Tensor.add a g)

(* Sum an adjoint over broadcast axes so it matches the primal shape. *)
let reduce_to_shape g target =
  if Shape.equal (Tensor.shape g) target then g
  else begin
    (* Remove extra leading axes. *)
    let g = ref g in
    while Tensor.rank !g > Shape.rank target do
      g := Tensor.sum ~axis:0 !g
    done;
    (* Sum axes that were stretched from size 1 (keeping rank). *)
    Array.iteri
      (fun i d ->
        if d = 1 && (Tensor.shape !g).(i) <> 1 then begin
          let keep = Array.copy (Tensor.shape !g) in
          keep.(i) <- 1;
          g := Tensor.reshape (Tensor.sum ~axis:i !g) keep
        end)
      target;
    if not (Shape.equal (Tensor.shape !g) target) then
      invalid_arg
        (Printf.sprintf "Ad: cannot reduce adjoint %s to %s"
           (Shape.to_string (Tensor.shape !g))
           (Shape.to_string target));
    !g
  end

let lift1 f df a =
  let y = f a.node.value in
  let backward g = accumulate a.node (Tensor.mul g (df a.node.value y)) in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let lift2 f dfa dfb a b =
  if a.tape != b.tape then invalid_arg "Ad: operands from different tapes";
  let y = f a.node.value b.node.value in
  let backward g =
    accumulate a.node
      (reduce_to_shape (dfa g a.node.value b.node.value y) (Tensor.shape a.node.value));
    accumulate b.node
      (reduce_to_shape (dfb g a.node.value b.node.value y) (Tensor.shape b.node.value))
  in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let add = lift2 Tensor.add (fun g _ _ _ -> g) (fun g _ _ _ -> g)
let sub = lift2 Tensor.sub (fun g _ _ _ -> g) (fun g _ _ _ -> Tensor.neg g)

let mul =
  lift2 Tensor.mul (fun g _ b _ -> Tensor.mul g b) (fun g a _ _ -> Tensor.mul g a)

let div =
  lift2 Tensor.div
    (fun g _ b _ -> Tensor.div g b)
    (fun g a b _ -> Tensor.neg (Tensor.div (Tensor.mul g a) (Tensor.mul b b)))

let neg = lift1 Tensor.neg (fun _ _ -> Tensor.scalar (-1.))
let exp = lift1 Tensor.exp (fun _ y -> y)
let log = lift1 Tensor.log (fun x _ -> Tensor.map (fun v -> 1. /. v) x)

let sqrt =
  lift1 Tensor.sqrt (fun _ y -> Tensor.map (fun v -> 0.5 /. v) y)

let square = lift1 Tensor.square (fun x _ -> Tensor.mul_scalar x 2.)

let sigmoid =
  lift1 Tensor.sigmoid (fun _ y -> Tensor.mul y (Tensor.map (fun v -> 1. -. v) y))

let log_sigmoid =
  (* d/dx log σ(x) = σ(-x) = 1 - σ(x). *)
  lift1 Tensor.log_sigmoid (fun x _ ->
      Tensor.map (fun v -> 1. -. Tensor.sigmoid_f v) x)

let tanh = lift1 Tensor.tanh (fun _ y -> Tensor.map (fun v -> 1. -. (v *. v)) y)

let sum a =
  let y = Tensor.sum a.node.value in
  let backward g =
    accumulate a.node
      (Tensor.mul (Tensor.ones (Tensor.shape a.node.value)) g)
  in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let dot a b =
  if a.tape != b.tape then invalid_arg "Ad: operands from different tapes";
  let y = Tensor.dot a.node.value b.node.value in
  let backward g =
    let gv = Tensor.item g in
    accumulate a.node (Tensor.mul_scalar b.node.value gv);
    accumulate b.node (Tensor.mul_scalar a.node.value gv)
  in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let matvec a x =
  if a.tape != x.tape then invalid_arg "Ad: operands from different tapes";
  let y = Tensor.matvec a.node.value x.node.value in
  let backward g =
    (* d/dA (A x) ⊙ g = g xᵀ ;  d/dx = Aᵀ g *)
    accumulate a.node (Tensor.outer g x.node.value);
    accumulate x.node (Tensor.matvec (Tensor.transpose a.node.value) g)
  in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let matmul a b =
  if a.tape != b.tape then invalid_arg "Ad: operands from different tapes";
  let y = Tensor.matmul a.node.value b.node.value in
  let backward g =
    accumulate a.node (Tensor.matmul g (Tensor.transpose b.node.value));
    accumulate b.node (Tensor.matmul (Tensor.transpose a.node.value) g)
  in
  { tape = a.tape; node = mk_node a.tape y (Some backward) }

let mul_scalar a s =
  lift1 (fun x -> Tensor.mul_scalar x s) (fun _ _ -> Tensor.scalar s) a

let add_scalar a s =
  lift1 (fun x -> Tensor.add_scalar x s) (fun _ _ -> Tensor.scalar 1.) a

let grad ~output ~inputs =
  if Tensor.numel output.node.value <> 1 then
    invalid_arg "Ad.grad: output must be a one-element tensor";
  let tape = output.tape in
  List.iter
    (fun v ->
      if v.tape != tape then invalid_arg "Ad.grad: input from a different tape")
    inputs;
  output.node.adjoint <- Some (Tensor.ones (Tensor.shape output.node.value));
  (* Nodes were consed newest-first: that is already reverse topological
     order (children before parents), which the backward sweep needs. *)
  List.iter
    (fun node ->
      match (node.adjoint, node.backward) with
      | Some g, Some backward -> backward g
      | (None | Some _), _ -> ())
    tape.nodes;
  List.map
    (fun v ->
      match v.node.adjoint with
      | Some g -> g
      | None -> Tensor.zeros (Tensor.shape v.node.value))
    inputs

let grad1 f x =
  let tape = new_tape () in
  let v = input tape x in
  let y = f tape v in
  match grad ~output:y ~inputs:[ v ] with
  | [ g ] -> g
  | _ -> assert false

let finite_diff f ?(eps = 1e-6) x =
  let n = Tensor.numel x in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let bump h =
      let x' = Tensor.copy x in
      (Tensor.data x').(i) <- (Tensor.data x').(i) +. h;
      f x'
    in
    out.(i) <- (bump eps -. bump (-.eps)) /. (2. *. eps)
  done;
  Tensor.create (Tensor.shape x) out
