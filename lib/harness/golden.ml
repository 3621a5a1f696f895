let bless_dir () =
  match Sys.getenv_opt "AUTOBATCH_BLESS" with
  | Some dir when dir <> "" -> Some dir
  | _ -> None

type outcome = Matched | Blessed of string

(* 1-based number and both sides of the first line where [a] and [b]
   differ; a side that has already ended shows as <end of file>. *)
let first_difference a b =
  let a = Array.of_list (String.split_on_char '\n' a) in
  let b = Array.of_list (String.split_on_char '\n' b) in
  let line lines i =
    if i < Array.length lines then Printf.sprintf "%S" lines.(i) else "<end of file>"
  in
  let rec go i =
    if i < Array.length a && i < Array.length b && a.(i) = b.(i) then go (i + 1) else i
  in
  let i = go 0 in
  (i + 1, line a i, line b i)

let rec make_dirs dir =
  if not (Sys.file_exists dir) then begin
    make_dirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let check ?(bless = bless_dir ()) ~path doc =
  match bless with
  | Some dir -> (
    let out = Filename.concat dir path in
    try
      make_dirs (Filename.dirname out);
      Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc doc);
      Ok (Blessed out)
    with Sys_error msg -> Error (Printf.sprintf "%s: cannot bless (%s)" out msg))
  | None when not (Sys.file_exists path) ->
    Error (path ^ ": missing (rerun with AUTOBATCH_BLESS set to create it)")
  | None ->
    let committed = In_channel.with_open_bin path In_channel.input_all in
    if committed = doc then Ok Matched
    else begin
      let n, want, got = first_difference committed doc in
      Error
        (Printf.sprintf "%s: drifted at line %d\n  committed: %s\n  produced:  %s" path n
           want got)
    end
