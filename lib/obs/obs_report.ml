let document ~name fields =
  Obs_json.Obj
    (("report", Obs_json.Str name) :: ("schema_version", Obs_json.Int 1) :: fields)

let to_string doc = Obs_json.to_string_pretty doc ^ "\n"
let print doc = print_string (to_string doc)
