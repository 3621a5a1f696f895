type t = {
  id : int;
  program : Autobatch.compiled;
  inputs : Tensor.t list;
  member : int;
  arrival : float;
  cost_hint : float;
}

let make ?member ?(arrival = 0.) ?(cost_hint = 1.) ~id ~program ~inputs () =
  ignore (Vm_util.batch_size ~who:"Request" inputs);
  {
    id;
    program;
    inputs;
    member = Option.value ~default:id member;
    arrival;
    cost_hint;
  }

let width t = Vm_util.batch_size ~who:"Request" t.inputs

let lane_inputs t ~row = List.map (fun x -> Tensor.slice_row x row) t.inputs
