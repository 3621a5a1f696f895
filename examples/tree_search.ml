(* Adaptive recursive quadrature, autobatched.

   The paper's introduction argues that data-dependent control flow keeps
   classical algorithms (tree searches, ODE solvers, optimizers) off
   accelerators. This example batches one such algorithm: adaptive
   Simpson integration of f(x) = exp(-k x²), where every batch member
   integrates a differently-peaked function — so each takes a different
   recursion tree — yet they all run in lockstep under both autobatching
   strategies.

     dune exec examples/tree_search.exe *)

let program =
  let open Lang in
  let open Lang.Infix in
  let fx x k = prim "exp" [ ~-(var k * (var x * var x)) ] in
  Lang.program ~main:"integrate"
    [
      (* Adaptive Simpson: subdivide until the two-panel estimate agrees
         with the one-panel estimate, then apply Richardson correction. *)
      func "adapt" ~params:[ "a"; "b"; "fa"; "fb"; "fm"; "tol"; "k" ]
        [
          assign "m" ((var "a" + var "b") / flt 2.);
          assign "lm" ((var "a" + var "m") / flt 2.);
          assign "rm" ((var "m" + var "b") / flt 2.);
          assign "flm" (fx "lm" "k");
          assign "frm" (fx "rm" "k");
          assign "h" (var "b" - var "a");
          assign "s1"
            ((var "fa" + (flt 4. * var "fm") + var "fb") * var "h" / flt 6.);
          assign "s2"
            ((var "fa" + (flt 4. * var "flm") + (flt 2. * var "fm")
             + (flt 4. * var "frm") + var "fb")
            * var "h" / flt 12.);
          assign "err" (prim "abs" [ var "s2" - var "s1" ]);
          if_
            (var "err" < flt 15. * var "tol")
            [ return_ [ var "s2" + ((var "s2" - var "s1") / flt 15.) ] ]
            [
              call [ "left" ] "adapt"
                [ var "a"; var "m"; var "fa"; var "fm"; var "flm";
                  var "tol" / flt 2.; var "k" ];
              call [ "right" ] "adapt"
                [ var "m"; var "b"; var "fm"; var "fb"; var "frm";
                  var "tol" / flt 2.; var "k" ];
              return_ [ var "left" + var "right" ];
            ];
        ];
      func "integrate" ~params:[ "a"; "b"; "tol"; "k" ]
        [
          assign "fa" (fx "a" "k");
          assign "fb" (fx "b" "k");
          assign "m0" ((var "a" + var "b") / flt 2.);
          assign "fm" (fx "m0" "k");
          call [ "s" ] "adapt"
            [ var "a"; var "b"; var "fa"; var "fb"; var "fm"; var "tol"; var "k" ];
          return_ [ var "s" ];
        ];
    ]

let () =
  let compiled =
    Autobatch.compile
      ~input_shapes:[ Shape.scalar; Shape.scalar; Shape.scalar; Shape.scalar ]
      program
  in
  (* Batch: ∫₋₃³ exp(-k x²) dx for a spread of k — sharply peaked members
     recurse much deeper than smooth ones. *)
  let ks = [| 0.5; 1.; 4.; 16.; 64.; 256. |] in
  let z = Array.length ks in
  let batch =
    [
      Tensor.full [| z |] (-3.);
      Tensor.full [| z |] 3.;
      Tensor.full [| z |] 1e-8;
      Tensor.of_array [| z |] ks;
    ]
  in
  let prof = Obs_prof.create () in
  let config = { Pc_vm.default_config with sink = Some (Obs_prof.sink prof) } in
  let result = List.hd (Autobatch.run_pc ~config compiled ~batch) in
  Format.printf "k:          %a@." Tensor.pp (Tensor.of_array [| z |] ks);
  Format.printf "integral:   %a@." Tensor.pp result;
  (* Exact value ≈ sqrt(pi/k) for these bounds (tails are negligible for
     large k; for k = 0.5 the truncation error is still < 1e-3). *)
  let exact = Tensor.init [| z |] (fun i -> Stdlib.sqrt (Float.pi /. ks.(i.(0)))) in
  Format.printf "sqrt(pi/k): %a@." Tensor.pp exact;
  Format.printf "max recursion depth across the batch: %d@."
    (Obs_prof.max_depth prof);
  (* The local VM agrees exactly. *)
  let local = List.hd (Autobatch.run_local compiled ~batch) in
  Format.printf "local VM agrees bitwise: %b@." (Tensor.equal result local)
