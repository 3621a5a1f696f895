(** Simulated accelerator devices.

    The paper's evaluation hardware (Tesla P100 GPU, an 88-core CPU host
    running TensorFlow, and Stan's single-core C++) is modelled by an
    analytic cost description per device. All kernels in this repository
    *really execute* on the host CPU; the device model only supplies the
    simulated clock that the throughput figures are computed against, so
    the reproduced curves have the paper's shape (dispatch overhead
    amortization, linear scaling, saturation) for transparent, documented
    reasons.

    Time for one kernel of [w] flops dispatched eagerly:
      [kernel_launch_overhead + w / flops_per_sec]
    Time for a fused (XLA-style) block of total [w] flops:
      [fused_launch_overhead + w / flops_per_sec]
    Host (Python-analogue) work is charged at [host_op_overhead] per
    dispatched operation / control action.

    Throughput of a batched sampler is then [z / (o + z * w * c)] per step:
    linear in the batch size [z] while dispatch overhead [o] dominates, and
    saturating at the device's arithmetic peak — exactly the behaviour in
    the paper's Figure 5. *)

type t = {
  name : string;
  kernel_launch_overhead : float;  (** seconds per eagerly dispatched kernel *)
  fused_launch_overhead : float;   (** seconds per fused-block launch *)
  host_op_overhead : float;        (** seconds of host-language dispatch per op *)
  flops_per_sec : float;           (** sustained arithmetic throughput *)
  bytes_per_sec : float;           (** memory bandwidth for gather/scatter traffic *)
  fused_flops_multiplier : float;
      (** effective-throughput gain of fused blocks over eager kernel
          chains: fusion keeps intermediates in registers/caches instead
          of round-tripping memory per op. This models the paper's
          hypothesis (§4.1) for why Eager-control + XLA-blocks eventually
          beats even hand-optimized native code on batched evaluation. *)
}

val gpu : t
(** Tesla-P100-like: expensive launches, very high parallel throughput. *)

val cpu : t
(** 88-core-host-like: cheaper launches, moderate vectorized throughput. *)

val stan_cpu : t
(** Single-core optimized native code: no framework overhead at all, scalar
    throughput. Used for the Stan baseline series. *)
