(* Batched adaptive ODE integration.

   The paper's introduction lists ordinary-differential-equation solvers
   among the classical algorithms that data-dependent control flow keeps
   off accelerators. This example integrates the Van der Pol oscillator

     y0' = y1,   y1' = mu (1 - y0^2) y1 - y0

   with an adaptive step-doubling Heun scheme written in the DSL: each
   batch member has its own stiffness mu, so the members' step sizes and
   loop counts diverge wildly — and the autobatcher runs them in lockstep
   anyway.

     dune exec examples/ode_batch.exe *)

let program =
  let open Lang in
  let open Lang.Infix in
  Lang.program ~main:"integrate"
    [
      (* One Heun (trapezoidal predictor-corrector) step of size h. *)
      func "heun" ~params:[ "y0"; "y1"; "mu"; "h" ]
        [
          assign "f0" (var "y1");
          assign "f1"
            ((var "mu" * (flt 1. - (var "y0" * var "y0")) * var "y1") - var "y0");
          assign "py0" (var "y0" + (var "h" * var "f0"));
          assign "py1" (var "y1" + (var "h" * var "f1"));
          assign "g0" (var "py1");
          assign "g1"
            ((var "mu" * (flt 1. - (var "py0" * var "py0")) * var "py1") - var "py0");
          assign "ny0" (var "y0" + (var "h" * flt 0.5 * (var "f0" + var "g0")));
          assign "ny1" (var "y1" + (var "h" * flt 0.5 * (var "f1" + var "g1")));
          return_ [ var "ny0"; var "ny1" ];
        ];
      (* Adaptive driver: compare one full step against two half steps,
         accept when they agree to tolerance, adapt the step size. *)
      func "integrate" ~params:[ "mu"; "t_end"; "tol" ]
        [
          assign "y0" (flt 2.);
          assign "y1" (flt 0.);
          assign "t" (flt 0.);
          assign "h" (flt 0.1);
          assign "steps" (flt 0.);
          while_
            (var "t" < var "t_end")
            [
              (* Do not step past the end. *)
              assign "h" (prim "min" [ var "h"; var "t_end" - var "t" ]);
              call [ "a0"; "a1" ] "heun"
                [ var "y0"; var "y1"; var "mu"; var "h" ];
              assign "half" (var "h" * flt 0.5);
              call [ "m0"; "m1" ] "heun"
                [ var "y0"; var "y1"; var "mu"; var "half" ];
              call [ "b0"; "b1" ] "heun"
                [ var "m0"; var "m1"; var "mu"; var "half" ];
              assign "err"
                (prim "max"
                   [ prim "abs" [ var "a0" - var "b0" ];
                     prim "abs" [ var "a1" - var "b1" ] ]);
              if_
                (var "err" <= var "tol")
                [
                  (* Accept the more accurate two-half-step result. *)
                  assign "y0" (var "b0");
                  assign "y1" (var "b1");
                  assign "t" (var "t" + var "h");
                  assign "steps" (var "steps" + flt 1.);
                  (* Grow cautiously when the error is far below tol. *)
                  if_
                    (var "err" < var "tol" * flt 0.1)
                    [ assign "h" (var "h" * flt 2.) ]
                    [];
                ]
                [ assign "h" (var "h" * flt 0.5) ];
            ];
          return_ [ var "y0"; var "y1"; var "steps" ];
        ];
    ]

(* Reference fixed-step integrator in plain OCaml for validation. *)
let reference_vdp ~mu ~t_end ~h =
  let y0 = ref 2. and y1 = ref 0. and t = ref 0. in
  while !t < t_end -. 1e-12 do
    let h = Float.min h (t_end -. !t) in
    let f0 = !y1 and f1 = (mu *. (1. -. (!y0 *. !y0)) *. !y1) -. !y0 in
    let py0 = !y0 +. (h *. f0) and py1 = !y1 +. (h *. f1) in
    let g0 = py1 and g1 = (mu *. (1. -. (py0 *. py0)) *. py1) -. py0 in
    y0 := !y0 +. (h *. 0.5 *. (f0 +. g0));
    y1 := !y1 +. (h *. 0.5 *. (f1 +. g1));
    t := !t +. h
  done;
  (!y0, !y1)

let () =
  let compiled =
    Autobatch.compile
      ~input_shapes:[ Shape.scalar; Shape.scalar; Shape.scalar ]
      program
  in
  let mus = [| 0.25; 1.; 4.; 10.; 25. |] in
  let z = Array.length mus in
  let t_end = 8. in
  let batch =
    [ Tensor.of_array [| z |] mus; Tensor.full [| z |] t_end; Tensor.full [| z |] 1e-6 ]
  in
  let prof = Obs_prof.create () in
  let config = { Pc_vm.default_config with sink = Some (Obs_prof.sink prof) } in
  let out = Autobatch.run_pc ~config compiled ~batch in
  let y0 = List.nth out 0 and y1 = List.nth out 1 and steps = List.nth out 2 in
  Format.printf "mu:      %a@." Tensor.pp (Tensor.of_array [| z |] mus);
  Format.printf "y0(T):   %a@." Tensor.pp y0;
  Format.printf "y1(T):   %a@." Tensor.pp y1;
  Format.printf "steps:   %a  (stiffer members subdivide much more)@." Tensor.pp steps;
  Format.printf "overall batch utilization: %.3f@."
    (Obs_prof.utilization prof);
  (* Validate against a fine fixed-step reference. *)
  Array.iteri
    (fun i mu ->
      let r0, _ = reference_vdp ~mu ~t_end ~h:1e-4 in
      let got = (Tensor.data y0).(i) in
      Format.printf "mu=%-5g adaptive y0=%9.5f  reference y0=%9.5f  |diff|=%.2e@."
        mu got r0
        (Float.abs (got -. r0)))
    mus;
  (* Both VMs agree bitwise, as always. *)
  let local = Autobatch.run_local compiled ~batch in
  Format.printf "local VM agrees bitwise: %b@."
    (List.for_all2 Tensor.equal out local)
