type t = Temp | Masked | Stacked

let to_string = function
  | Temp -> "temp"
  | Masked -> "masked"
  | Stacked -> "stacked"
