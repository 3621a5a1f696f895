exception Shape_error of string

type t = {
  name : string;
  arity : int;
  deterministic : bool;
  shape : Shape.t list -> Shape.t;
  flops : Shape.t list -> float;
  batched : members:int array -> Tensor.t list -> Tensor.t;
  single : member:int -> Tensor.t list -> Tensor.t;
}

type registry = (string, t) Hashtbl.t

let create_registry () : registry = Hashtbl.create 64
let register reg p = Hashtbl.replace reg p.name p
let find reg name = Hashtbl.find_opt reg name

let find_exn reg name =
  match Hashtbl.find_opt reg name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prim.find_exn: unknown primitive %S" name)

let names reg = Hashtbl.fold (fun k _ acc -> k :: acc) reg [] |> List.sort compare
let copy = Hashtbl.copy

(* Batched elementwise broadcasting: element shapes broadcast
   trailing-aligned, so the operand with the smaller element rank gets
   size-1 axes inserted right after the batch axis. *)
let batch_rank_align a b =
  let ra = Tensor.rank a and rb = Tensor.rank b in
  if ra = rb then (a, b)
  else if ra < rb then begin
    let sa = Tensor.shape a in
    let padded =
      Array.concat [ [| sa.(0) |]; Array.make (rb - ra) 1; Shape.drop_outer sa ]
    in
    (Tensor.reshape a padded, b)
  end
  else begin
    let sb = Tensor.shape b in
    let padded =
      Array.concat [ [| sb.(0) |]; Array.make (ra - rb) 1; Shape.drop_outer sb ]
    in
    (a, Tensor.reshape b padded)
  end

let shape_broadcast2 name a b =
  match Shape.broadcast2 a b with
  | s -> s
  | exception Invalid_argument _ ->
    raise
      (Shape_error
         (Printf.sprintf "%s: element shapes %s and %s do not broadcast" name
            (Shape.to_string a) (Shape.to_string b)))

let unary_shape name = function
  | [ s ] -> s
  | ss ->
    raise (Shape_error (Printf.sprintf "%s: expected 1 argument, got %d" name (List.length ss)))

let binary_shape name = function
  | [ a; b ] -> shape_broadcast2 name a b
  | ss ->
    raise (Shape_error (Printf.sprintf "%s: expected 2 arguments, got %d" name (List.length ss)))

let elementwise name ?(flops_per_elem = 1.) op =
  {
    name;
    arity = 1;
    deterministic = true;
    shape = unary_shape name;
    flops =
      (function
      | [ s ] -> flops_per_elem *. float_of_int (Shape.numel s)
      | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ x ] -> op x
      | _ -> invalid_arg (name ^ ": arity"));
    single = (fun ~member:_ args ->
      match args with
      | [ x ] -> op x
      | _ -> invalid_arg (name ^ ": arity"));
  }

let elementwise2 name ?(flops_per_elem = 1.) op =
  {
    name;
    arity = 2;
    deterministic = true;
    shape = binary_shape name;
    flops =
      (function
      | [ a; b ] -> flops_per_elem *. float_of_int (Shape.numel (shape_broadcast2 name a b))
      | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ a; b ] ->
        let a, b = batch_rank_align a b in
        op a b
      | _ -> invalid_arg (name ^ ": arity"));
    single = (fun ~member:_ args ->
      match args with
      | [ a; b ] -> op a b
      | _ -> invalid_arg (name ^ ": arity"));
  }

let select_prim =
  let shape = function
    | [ c; a; b ] ->
      shape_broadcast2 "select" (shape_broadcast2 "select" c a) b
    | ss ->
      raise (Shape_error (Printf.sprintf "select: expected 3 arguments, got %d" (List.length ss)))
  in
  {
    name = "select";
    arity = 3;
    deterministic = true;
    shape;
    flops = (fun ss -> match ss with [ _; _; _ ] -> float_of_int (Shape.numel (shape ss)) | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ c; a; b ] ->
        (* Pad every operand's element rank up to the maximum so batched
           broadcasting matches trailing-aligned element broadcasting. *)
        let r = List.fold_left (fun m t -> max m (Tensor.rank t)) 0 [ c; a; b ] in
        let pad t =
          let s = Tensor.shape t in
          Tensor.reshape t
            (Array.concat
               [ [| s.(0) |]; Array.make (r - Tensor.rank t) 1; Shape.drop_outer s ])
        in
        Tensor.where (pad c) (pad a) (pad b)
      | _ -> invalid_arg "select: arity");
    single = (fun ~member:_ args ->
      match args with
      | [ c; a; b ] -> Tensor.where c a b
      | _ -> invalid_arg "select: arity");
  }

(* Reduce every non-batch axis of a batched operand. *)
let batched_full_reduce reduce x =
  let z = (Tensor.shape x).(0) in
  let flat = Tensor.reshape x [| z; Tensor.numel x / z |] in
  reduce flat

let sum_prim =
  {
    name = "sum";
    arity = 1;
    deterministic = true;
    shape = (fun ss -> ignore (unary_shape "sum" ss); Shape.scalar);
    flops = (function [ s ] -> float_of_int (Shape.numel s) | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ x ] -> batched_full_reduce (fun t -> Tensor.sum ~axis:1 t) x
      | _ -> invalid_arg "sum: arity");
    single = (fun ~member:_ args ->
      match args with [ x ] -> Tensor.sum x | _ -> invalid_arg "sum: arity");
  }

let sum_sq_prim =
  {
    name = "sum_sq";
    arity = 1;
    deterministic = true;
    shape = (fun ss -> ignore (unary_shape "sum_sq" ss); Shape.scalar);
    flops = (function [ s ] -> 2. *. float_of_int (Shape.numel s) | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ x ] -> batched_full_reduce (fun t -> Tensor.sum ~axis:1 t) (Tensor.square x)
      | _ -> invalid_arg "sum_sq: arity");
    single = (fun ~member:_ args ->
      match args with
      | [ x ] -> Tensor.sum (Tensor.square x)
      | _ -> invalid_arg "sum_sq: arity");
  }

let dot_prim =
  let shape = function
    | [ a; b ] when Shape.rank a = 1 && Shape.equal a b -> Shape.scalar
    | [ a; b ] ->
      raise
        (Shape_error
           (Printf.sprintf "dot: wants two equal rank-1 element shapes, got %s and %s"
              (Shape.to_string a) (Shape.to_string b)))
    | ss ->
      raise (Shape_error (Printf.sprintf "dot: expected 2 arguments, got %d" (List.length ss)))
  in
  {
    name = "dot";
    arity = 2;
    deterministic = true;
    shape;
    flops = (function [ a; _ ] -> 2. *. float_of_int (Shape.numel a) | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ a; b ] -> Tensor.sum ~axis:1 (Tensor.mul a b)
      | _ -> invalid_arg "dot: arity");
    single = (fun ~member:_ args ->
      match args with [ a; b ] -> Tensor.dot a b | _ -> invalid_arg "dot: arity");
  }

(* Randomness: each draw consumes one tick of a per-member counter carried
   as an ordinary program variable (element shape []). *)

let counter_shape name = function
  | [ s ] when Shape.rank s = 0 -> Shape.scalar
  | [ s ] ->
    raise (Shape_error (Printf.sprintf "%s: counter must be scalar, got %s" name (Shape.to_string s)))
  | ss ->
    raise (Shape_error (Printf.sprintf "%s: expected 1 argument, got %d" name (List.length ss)))

let rng_flops_per_slot = 16.

let counter_of_single t =
  (* Junk lanes can carry NaN/inf counters; they only produce junk draws
     that masked execution discards, but the conversion must not trap. *)
  let v = Tensor.item t in
  if Float.is_nan v || Float.abs v > 1e15 then 0 else int_of_float v

let uniform_prim key =
  {
    name = "uniform";
    arity = 1;
    deterministic = false;
    shape = counter_shape "uniform";
    flops = (fun _ -> rng_flops_per_slot);
    batched = (fun ~members args ->
      match args with
      | [ counters ] ->
        Tensor.init [| Array.length members |] (fun idx ->
            let i = idx.(0) in
            let c = counter_of_single (Tensor.slice_row counters i) in
            Counter_rng.uniform key ~member:members.(i) ~counter:c ~slot:0)
      | _ -> invalid_arg "uniform: arity");
    single = (fun ~member args ->
      match args with
      | [ counter ] ->
        Tensor.scalar
          (Counter_rng.uniform key ~member ~counter:(counter_of_single counter) ~slot:0)
      | _ -> invalid_arg "uniform: arity");
  }

let exponential_prim key =
  {
    name = "exponential";
    arity = 1;
    deterministic = false;
    shape = counter_shape "exponential";
    flops = (fun _ -> rng_flops_per_slot +. 4.);
    batched = (fun ~members args ->
      match args with
      | [ counters ] ->
        Tensor.init [| Array.length members |] (fun idx ->
            let i = idx.(0) in
            let c = counter_of_single (Tensor.slice_row counters i) in
            Counter_rng.exponential key ~member:members.(i) ~counter:c ~slot:0)
      | _ -> invalid_arg "exponential: arity");
    single = (fun ~member args ->
      match args with
      | [ counter ] ->
        Tensor.scalar
          (Counter_rng.exponential key ~member ~counter:(counter_of_single counter) ~slot:0)
      | _ -> invalid_arg "exponential: arity");
  }

let normal_like_prim key =
  let shape = function
    | [ template; c ] when Shape.rank c = 0 -> template
    | [ _; c ] ->
      raise (Shape_error (Printf.sprintf "normal_like: counter must be scalar, got %s" (Shape.to_string c)))
    | ss ->
      raise (Shape_error (Printf.sprintf "normal_like: expected 2 arguments, got %d" (List.length ss)))
  in
  {
    name = "normal_like";
    arity = 2;
    deterministic = false;
    shape;
    flops = (function [ t; _ ] -> 2. *. rng_flops_per_slot *. float_of_int (Shape.numel t) | _ -> 0.);
    batched = (fun ~members args ->
      match args with
      | [ template; counters ] ->
        let z = Array.length members in
        let elem = Shape.drop_outer (Tensor.shape template) in
        let n = Shape.numel elem in
        let flat =
          Tensor.init [| z; n |] (fun idx ->
              let i = idx.(0) in
              let c = counter_of_single (Tensor.slice_row counters i) in
              Counter_rng.normal key ~member:members.(i) ~counter:c ~slot:idx.(1))
        in
        Tensor.reshape flat (Shape.concat_outer z elem)
      | _ -> invalid_arg "normal_like: arity");
    single = (fun ~member args ->
      match args with
      | [ template; counter ] ->
        let c = counter_of_single counter in
        let elem = Tensor.shape template in
        let n = Shape.numel elem in
        let flat =
          Tensor.init [| n |] (fun idx ->
              Counter_rng.normal key ~member ~counter:c ~slot:idx.(0))
        in
        Tensor.reshape flat elem
      | _ -> invalid_arg "normal_like: arity");
  }

(* Dynamic vector access: [index v i] reads element [i] of a rank-1
   value, [update v i x] functionally replaces it. Indices are clamped to
   the valid range: junk (masked-out) lanes routinely carry garbage
   indices, and clamping keeps them harmless without data-dependent
   failures (the static-shape platforms the paper targets behave the same
   way). *)

let clamp_index d v =
  if Float.is_nan v then 0
  else begin
    let i = int_of_float v in
    if i < 0 then 0 else if i >= d then d - 1 else i
  end

let index_prim =
  let shape = function
    | [ v; i ] when Shape.rank v = 1 && Shape.rank i = 0 -> Shape.scalar
    | [ v; i ] ->
      raise
        (Shape_error
           (Printf.sprintf "index: wants a rank-1 value and scalar index, got %s and %s"
              (Shape.to_string v) (Shape.to_string i)))
    | ss ->
      raise (Shape_error (Printf.sprintf "index: expected 2 arguments, got %d" (List.length ss)))
  in
  {
    name = "index";
    arity = 2;
    deterministic = true;
    shape;
    flops = (fun _ -> 2.);
    batched = (fun ~members:_ args ->
      match args with
      | [ v; i ] ->
        let z = (Tensor.shape v).(0) and d = (Tensor.shape v).(1) in
        Tensor.init [| z |] (fun idx ->
            let b = idx.(0) in
            Tensor.get v [| b; clamp_index d (Tensor.data i).(b) |])
      | _ -> invalid_arg "index: arity");
    single = (fun ~member:_ args ->
      match args with
      | [ v; i ] ->
        let d = (Tensor.shape v).(0) in
        Tensor.scalar (Tensor.data v).(clamp_index d (Tensor.item i))
      | _ -> invalid_arg "index: arity");
  }

let update_prim =
  let shape = function
    | [ v; i; x ] when Shape.rank v = 1 && Shape.rank i = 0 && Shape.rank x = 0 -> v
    | [ v; i; x ] ->
      raise
        (Shape_error
           (Printf.sprintf
              "update: wants rank-1 value, scalar index, scalar element; got %s, %s, %s"
              (Shape.to_string v) (Shape.to_string i) (Shape.to_string x)))
    | ss ->
      raise (Shape_error (Printf.sprintf "update: expected 3 arguments, got %d" (List.length ss)))
  in
  {
    name = "update";
    arity = 3;
    deterministic = true;
    shape;
    flops = (function [ v; _; _ ] -> float_of_int (Shape.numel v) | _ -> 0.);
    batched = (fun ~members:_ args ->
      match args with
      | [ v; i; x ] ->
        let out = Tensor.copy v in
        let z = (Tensor.shape v).(0) and d = (Tensor.shape v).(1) in
        for b = 0 to z - 1 do
          Tensor.set out [| b; clamp_index d (Tensor.data i).(b) |] (Tensor.data x).(b)
        done;
        out
      | _ -> invalid_arg "update: arity");
    single = (fun ~member:_ args ->
      match args with
      | [ v; i; x ] ->
        let out = Tensor.copy v in
        let d = (Tensor.shape v).(0) in
        Tensor.set out [| clamp_index d (Tensor.item i) |] (Tensor.item x);
        out
      | _ -> invalid_arg "update: arity");
  }

let standard ?(seed = 0x5EEDL) () =
  let reg = create_registry () in
  let key = Counter_rng.key seed in
  let add = register reg in
  List.iter add
    [
      elementwise2 "add" Tensor.add;
      elementwise2 "sub" Tensor.sub;
      elementwise2 "mul" Tensor.mul;
      elementwise2 "div" Tensor.div;
      elementwise2 "pow" ~flops_per_elem:8. Tensor.pow;
      elementwise2 "min" Tensor.minimum;
      elementwise2 "max" Tensor.maximum;
      elementwise2 "logaddexp" ~flops_per_elem:8. Tensor.logaddexp;
      elementwise "neg" Tensor.neg;
      elementwise "abs" Tensor.abs;
      elementwise "sign" Tensor.sign;
      elementwise "exp" ~flops_per_elem:4. Tensor.exp;
      elementwise "log" ~flops_per_elem:4. Tensor.log;
      elementwise "sqrt" ~flops_per_elem:2. Tensor.sqrt;
      elementwise "square" Tensor.square;
      elementwise "sigmoid" ~flops_per_elem:5. Tensor.sigmoid;
      elementwise "log_sigmoid" ~flops_per_elem:6. Tensor.log_sigmoid;
      elementwise "tanh" ~flops_per_elem:5. Tensor.tanh;
      elementwise "tan" ~flops_per_elem:5. Tensor.tan;
      elementwise "log1p" ~flops_per_elem:4. Tensor.log1p;
      elementwise "floor" Tensor.floor;
      elementwise "ceil" Tensor.ceil;
      elementwise "round" Tensor.round;
      elementwise2 "eq" Tensor.eq;
      elementwise2 "ne" Tensor.ne;
      elementwise2 "lt" Tensor.lt;
      elementwise2 "le" Tensor.le;
      elementwise2 "gt" Tensor.gt;
      elementwise2 "ge" Tensor.ge;
      elementwise2 "and" Tensor.logical_and;
      elementwise2 "or" Tensor.logical_or;
      elementwise "not" Tensor.logical_not;
      select_prim;
      index_prim;
      update_prim;
      sum_prim;
      sum_sq_prim;
      dot_prim;
      uniform_prim key;
      exponential_prim key;
      normal_like_prim key;
    ];
  reg
