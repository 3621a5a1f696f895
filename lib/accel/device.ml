type t = {
  name : string;
  kernel_launch_overhead : float;
  fused_launch_overhead : float;
  host_op_overhead : float;
  flops_per_sec : float;
  bytes_per_sec : float;
  fused_flops_multiplier : float;
}

(* Constants are calibrated so that the experiment harness reproduces the
   qualitative relationships of the paper's Figure 5 (see EXPERIMENTS.md):
   linear GPU scaling over three decades of batch size before arithmetic
   saturation, CPU overhead amortization crossing the Stan anchor, and
   XLA-style fusion shifting the crossover down by more than an order of
   magnitude. *)

let gpu =
  {
    name = "gpu";
    kernel_launch_overhead = 8e-6;
    fused_launch_overhead = 120e-6;
    host_op_overhead = 25e-6;
    flops_per_sec = 2e12;
    bytes_per_sec = 300e9;
    fused_flops_multiplier = 1.15;
  }

let cpu =
  {
    name = "cpu";
    kernel_launch_overhead = 3e-6;
    fused_launch_overhead = 15e-6;
    host_op_overhead = 25e-6;
    flops_per_sec = 2e10;
    bytes_per_sec = 40e9;
    fused_flops_multiplier = 1.5;
  }

(* Stan: hand-optimized native code with zero framework overhead, but a
   single-threaded process — one core's arithmetic throughput, no
   cross-chain fusion. The batched strategies get the whole machine
   ([cpu] above), which is exactly the asymmetry that lets them overtake
   Stan once dispatch overhead is amortized (paper §4.1). *)
let stan_cpu =
  {
    name = "stan-cpu";
    kernel_launch_overhead = 0.;
    fused_launch_overhead = 0.;
    host_op_overhead = 0.;
    flops_per_sec = 2.5e9;
    bytes_per_sec = 20e9;
    fused_flops_multiplier = 1.;
  }
