type t = {
  id : int;
  program : Autobatch.compiled;
  inputs : Tensor.t list;
  member : int;
  arrival : float;
  cost_hint : float;
  ctx : Obs_span.ctx;
}

let width_of_inputs inputs =
  match inputs with
  | [] -> invalid_arg "Request: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Request: inputs must carry a leading width dimension";
    let w = (Tensor.shape first).(0) in
    List.iter
      (fun x ->
        if Tensor.rank x = 0 || (Tensor.shape x).(0) <> w then
          invalid_arg "Request: inputs disagree on the width dimension")
      inputs;
    if w <= 0 then invalid_arg "Request: width must be positive";
    w

let make ?member ?(arrival = 0.) ?(cost_hint = 1.) ?ctx ~id ~program ~inputs () =
  ignore (width_of_inputs inputs);
  {
    id;
    program;
    inputs;
    member = Option.value ~default:id member;
    arrival;
    cost_hint;
    ctx =
      (match ctx with
      | Some c -> c
      | None -> { Obs_span.trace = id; parent = Obs_span.no_parent });
  }

let width t = width_of_inputs t.inputs

let lane_inputs t ~row = List.map (fun x -> Tensor.slice_row x row) t.inputs
