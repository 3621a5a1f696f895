(* Order statistics and the printed result. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]; 0 for no samples. *)
let percentile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = percentile a 0.5
let ratio a b = if b = 0. then 0. else a /. b

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;
  raw : float option;  (** the same measurement in raw host time *)
}

let metric ?raw ~samples name unit value = { name; value; unit; samples; raw }

let print_metrics title metrics =
  Printf.printf "\n%s\n  %-28s %16s %-6s %8s %14s\n" title "metric" "value" "unit" "samples"
    "raw";
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6g %-6s %8d %14s\n" m.name m.value m.unit m.samples
        (match m.raw with Some r -> Printf.sprintf "%.6g" r | None -> ""))
    metrics

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
          metrics))
