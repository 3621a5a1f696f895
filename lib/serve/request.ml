type t = {
  id : int;
  program : Autobatch.compiled;
  inputs : Tensor.t list;
  width : int;
  member : int;
  arrival : float;
  cost_hint : float;
}

let make ?member ?(arrival = 0.) ?(cost_hint = 1.) ~id ~program ~inputs () =
  {
    id;
    program;
    inputs;
    width = Vm_util.batch_size ~who:"Request" inputs;
    member = Option.value ~default:id member;
    arrival;
    cost_hint;
  }

let width t = t.width

let lane_inputs t ~row = List.map (fun x -> Tensor.slice_row x row) t.inputs
