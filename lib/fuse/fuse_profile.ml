type t = {
  blocks : ((string * int) * float) list;  (* ((fn, local block), weight) *)
  by_func : (string, float) Hashtbl.t;
}

let empty = { blocks = []; by_func = Hashtbl.create 1 }

let is_empty t = t.blocks = [] && Hashtbl.length t.by_func = 0

let add_func tbl fn w =
  Hashtbl.replace tbl fn (w +. Option.value ~default:0. (Hashtbl.find_opt tbl fn))

let of_entries entries =
  (* entries: (fn, block option, weight) *)
  let by_func = Hashtbl.create 16 in
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (fn, block, w) ->
      if w > 0. then begin
        add_func by_func fn w;
        match block with
        | Some b ->
          let key = (fn, b) in
          Hashtbl.replace blocks key
            (w +. Option.value ~default:0. (Hashtbl.find_opt blocks key))
        | None -> ()
      end)
    entries;
  {
    blocks =
      Hashtbl.fold (fun k w acc -> (k, w) :: acc) blocks []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    by_func;
  }

let of_blocks pairs = of_entries (List.map (fun ((fn, b), w) -> (fn, Some b, w)) pairs)

(* A folded-stacks line is "frame;frame;...;leaf <weight>"; the leaf frame
   is "fn#k" ({!Profile.flame_frames}), or a bare function name. *)
let parse_leaf leaf =
  match String.rindex_opt leaf '#' with
  | Some i -> (
    let fn = String.sub leaf 0 i in
    let rest = String.sub leaf (i + 1) (String.length leaf - i - 1) in
    match int_of_string_opt rest with
    | Some b when fn <> "" -> Some (fn, Some b)
    | Some _ | None -> if leaf = "" then None else Some (leaf, None))
  | None -> if leaf = "" then None else Some (leaf, None)

let of_folded contents =
  let entries = ref [] in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         let line = String.trim line in
         match String.rindex_opt line ' ' with
         | None -> ()
         | Some sp -> (
           let stack = String.sub line 0 sp in
           let value = String.sub line (sp + 1) (String.length line - sp - 1) in
           match float_of_string_opt value with
           | None -> ()
           | Some w ->
             let frames = String.split_on_char ';' stack in
             let leaf = List.nth_opt frames (List.length frames - 1) in
             (match Option.join (Option.map parse_leaf leaf) with
             | Some (fn, block) -> entries := (fn, block, w) :: !entries
             | None -> ())));
  of_entries (List.rev !entries)

let number = function
  | Obs_json.Int i -> Some (float_of_int i)
  | Obs_json.Float f -> Some f
  | _ -> None

let entry_of_obj o =
  match Obs_json.member "fn" o with
  | Some (Obs_json.Str fn) ->
    let block =
      match Obs_json.member "block" o with
      | Some (Obs_json.Int b) -> Some b
      | _ -> None
    in
    let weight =
      match Obs_json.member "weight" o with
      | Some v -> Option.value ~default:1. (number v)
      | None -> 1.
    in
    Ok (fn, block, weight)
  | _ -> Error "profile entry is missing a string \"fn\" field"

let of_json contents =
  match Obs_json.of_string contents with
  | Error e -> Error (Printf.sprintf "profile JSON: %s" e)
  | Ok doc -> (
    let entries =
      match doc with
      | Obs_json.List l -> Ok l
      | Obs_json.Obj _ as o -> (
        match Obs_json.member "blocks" o with
        | Some (Obs_json.List l) -> Ok l
        | Some _ -> Error "profile JSON: \"blocks\" is not a list"
        | None -> Error "profile JSON: expected a list or {\"blocks\": [...]}")
      | _ -> Error "profile JSON: expected a list or {\"blocks\": [...]}"
    in
    match entries with
    | Error e -> Error e
    | Ok l -> (
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | o :: rest -> (
          match entry_of_obj o with
          | Ok e -> collect (e :: acc) rest
          | Error e -> Error e)
      in
      match collect [] l with
      | Ok entries -> Ok (of_entries entries)
      | Error e -> Error e))

let parse contents =
  let rec first_nonblank i =
    if i >= String.length contents then None
    else
      match contents.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_nonblank (i + 1)
      | c -> Some c
  in
  match first_nonblank 0 with
  | Some ('{' | '[') -> of_json contents
  | Some _ -> Ok (of_folded contents)
  | None -> Ok empty

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error e -> Error e

let func_weight t fn = Option.value ~default:0. (Hashtbl.find_opt t.by_func fn)

let block_weight t ~fn ~block =
  Option.value ~default:0. (List.assoc_opt (fn, block) t.blocks)
