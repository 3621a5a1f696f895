type link = { name : string; bytes_per_sec : float; latency : float }

let nvlink = { name = "nvlink"; bytes_per_sec = 300e9; latency = 2e-6 }
let pcie = { name = "pcie"; bytes_per_sec = 32e9; latency = 5e-6 }
let ethernet = { name = "ethernet"; bytes_per_sec = 12.5e9; latency = 30e-6 }

type t = { devices : Device.t array; link : link }

let create ~device ~link ~n () =
  if n <= 0 then invalid_arg "Mesh.create: need at least one device";
  { devices = Array.make n device; link }

let gpu_pod ?(link = nvlink) ~n () = create ~device:Device.gpu ~link ~n ()

let size t = Array.length t.devices
let device t i = t.devices.(i)
let link t = t.link
