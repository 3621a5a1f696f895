type op =
  | Prim_op of { dst : string; prim : string; args : string list }
  | Const_op of { dst : string; value : Tensor.t }
  | Mov of { dst : string; src : string }
  | Call_op of { dsts : string list; func : string; args : string list }

type terminator =
  | Jump of int
  | Branch of { cond : string; if_true : int; if_false : int }
  | Return

type block = { ops : op list; term : terminator }

type func = {
  name : string;
  params : string list;
  result_vars : string list;
  blocks : block array;
}

type program = { funcs : (string * func) list; entry : string }

let find_func p name = List.assoc_opt name p.funcs

let find_func_exn p name =
  match find_func p name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Cfg.find_func_exn: unknown function %S" name)

let entry_func p = find_func_exn p p.entry

let block_base p name =
  let rec go base = function
    | [] -> invalid_arg (Printf.sprintf "Cfg.block_base: unknown function %S" name)
    | (n, f) :: rest -> if n = name then base else go (base + Array.length f.blocks) rest
  in
  go 0 p.funcs

let op_defs = function
  | Prim_op { dst; _ } | Const_op { dst; _ } | Mov { dst; _ } -> [ dst ]
  | Call_op { dsts; _ } -> dsts

let op_uses = function
  | Prim_op { args; _ } -> args
  | Const_op _ -> []
  | Mov { src; _ } -> [ src ]
  | Call_op { args; _ } -> args

let term_uses f = function
  | Jump _ -> []
  | Branch { cond; _ } -> [ cond ]
  | Return -> f.result_vars

let successors = function
  | Jump j -> [ j ]
  | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Return -> []

let all_vars f =
  let acc = ref f.params in
  Array.iter
    (fun b ->
      List.iter
        (fun op -> acc := op_defs op @ op_uses op @ !acc)
        b.ops;
      acc := term_uses f b.term @ !acc)
    f.blocks;
  List.sort_uniq compare !acc

let n_ops f = Array.fold_left (fun acc b -> acc + List.length b.ops) 0 f.blocks

let pp_op ppf = function
  | Prim_op { dst; prim; args } ->
    Format.fprintf ppf "%s = %s(%s)" dst prim (String.concat ", " args)
  | Const_op { dst; value } -> Format.fprintf ppf "%s = const %a" dst Tensor.pp value
  | Mov { dst; src } -> Format.fprintf ppf "%s = %s" dst src
  | Call_op { dsts; func; args } ->
    Format.fprintf ppf "%s = call %s(%s)" (String.concat ", " dsts) func
      (String.concat ", " args)

let pp_term ppf = function
  | Jump j -> Format.fprintf ppf "jump %d" j
  | Branch { cond; if_true; if_false } ->
    Format.fprintf ppf "branch %s ? %d : %d" cond if_true if_false
  | Return -> Format.pp_print_string ppf "return"

let pp_block ppf (i, b) =
  Format.fprintf ppf "@[<v 2>block %d:@,%a%a@]" i
    (fun ppf ops ->
      List.iter (fun op -> Format.fprintf ppf "%a@," pp_op op) ops)
    b.ops pp_term b.term

let pp_func ppf f =
  Format.fprintf ppf "@[<v 2>func %s(%s) -> (%s):@,%a@]" f.name
    (String.concat ", " f.params)
    (String.concat ", " f.result_vars)
    (fun ppf blocks ->
      Array.iteri (fun i b -> Format.fprintf ppf "%a@," pp_block (i, b)) blocks)
    f.blocks

let pp_program ppf p =
  Format.fprintf ppf "@[<v>%a@,entry: %s@]"
    (fun ppf fs -> List.iter (fun (_, f) -> Format.fprintf ppf "%a@," pp_func f) fs)
    p.funcs p.entry
