(* Shared example programs for the test suites. *)

open Lang

(* The input shapes of a program whose entry function takes only
   scalars, as every program below except [vec_double] does. *)
let scalar_shapes (p : Lang.program) =
  List.map (fun _ -> Shape.scalar) (Option.get (Lang.find_func p p.main)).params

(* Recursive Fibonacci — the paper's Figure 1/3 running example. *)
let fib =
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

let rec fib_spec n = if n <= 1 then 1. else fib_spec (n - 2) +. fib_spec (n - 1)

(* Iterative factorial: loops, no recursion — must compile to a PC program
   with no data stacks. *)
let fact_loop =
  let open Lang.Infix in
  program ~main:"fact"
    [
      func "fact" ~params:[ "n" ]
        [
          assign "acc" (flt 1.);
          assign "i" (flt 1.);
          while_
            (var "i" <= var "n")
            [ assign "acc" (var "acc" * var "i"); assign "i" (var "i" + flt 1.) ];
          return_ [ var "acc" ];
        ];
    ]

let rec fact_spec n = if n <= 0 then 1. else float_of_int n *. fact_spec (n - 1)

(* Mutual recursion across two functions. *)
let even_odd =
  let open Lang.Infix in
  program ~main:"is_even"
    [
      func "is_even" ~params:[ "n" ]
        [
          if_ (var "n" <= flt 0.)
            [ return_ [ flt 1. ] ]
            [ call [ "r" ] "is_odd" [ var "n" - flt 1. ]; return_ [ var "r" ] ];
        ];
      func "is_odd" ~params:[ "n" ]
        [
          if_ (var "n" <= flt 0.)
            [ return_ [ flt 0. ] ]
            [ call [ "r" ] "is_even" [ var "n" - flt 1. ]; return_ [ var "r" ] ];
        ];
    ]

(* Collatz total stopping time: data-dependent while loop. *)
let collatz =
  let open Lang.Infix in
  program ~main:"collatz"
    [
      func "collatz" ~params:[ "n" ]
        [
          assign "steps" (flt 0.);
          while_
            (var "n" > flt 1.)
            [
              assign "half" (prim "floor" [ var "n" / flt 2. ]);
              if_
                (prim "eq" [ var "n" - (flt 2. * var "half"); flt 0. ])
                [ assign "n" (var "half") ]
                [ assign "n" ((flt 3. * var "n") + flt 1.) ];
              assign "steps" (var "steps" + flt 1.);
            ];
          return_ [ var "steps" ];
        ];
    ]

let rec collatz_spec n =
  if n <= 1 then 0.
  else if n mod 2 = 0 then 1. +. collatz_spec (n / 2)
  else 1. +. collatz_spec ((3 * n) + 1)

(* Multi-result function: integer division with remainder by repeated
   subtraction, used to exercise multi-destination calls. *)
let divmod =
  let open Lang.Infix in
  program ~main:"use_divmod"
    [
      func "divmod" ~params:[ "a"; "b" ]
        [
          assign "q" (flt 0.);
          assign "r" (var "a");
          while_ (var "r" >= var "b")
            [ assign "r" (var "r" - var "b"); assign "q" (var "q" + flt 1.) ];
          return_ [ var "q"; var "r" ];
        ];
      func "use_divmod" ~params:[ "a"; "b" ]
        [
          call [ "q"; "r" ] "divmod" [ var "a"; var "b" ];
          return_ [ (var "q" * flt 100.) + var "r" ];
        ];
    ]

(* Recursive program with a vector-valued variable: scale a vector by
   2^n with recursion, exercising stacked non-scalar variables. *)
let vec_double =
  let open Lang.Infix in
  program ~main:"vdouble"
    [
      func "vdouble" ~params:[ "v"; "n" ]
        [
          if_ (var "n" <= flt 0.)
            [ return_ [ var "v" ] ]
            [
              call [ "w" ] "vdouble" [ var "v" + var "v"; var "n" - flt 1. ];
              return_ [ var "w" ];
            ];
        ];
    ]

(* Ackermann (small inputs only): deep, genuinely nested recursion. *)
let ackermann =
  let open Lang.Infix in
  program ~main:"ack"
    [
      func "ack" ~params:[ "m"; "n" ]
        [
          if_ (prim "eq" [ var "m"; flt 0. ])
            [ return_ [ var "n" + flt 1. ] ]
            [
              if_ (prim "eq" [ var "n"; flt 0. ])
                [ call [ "r" ] "ack" [ var "m" - flt 1.; flt 1. ];
                  return_ [ var "r" ] ]
                [
                  call [ "inner" ] "ack" [ var "m"; var "n" - flt 1. ];
                  call [ "r" ] "ack" [ var "m" - flt 1.; var "inner" ];
                  return_ [ var "r" ];
                ];
            ];
        ];
    ]

let rec ack_spec m n =
  if m = 0 then n + 1
  else if n = 0 then ack_spec (m - 1) 1
  else ack_spec (m - 1) (ack_spec m (n - 1))

(* A program that draws randomness: sums [n] uniform draws, threading the
   counter variable exactly as NUTS does. *)
let random_walk =
  let open Lang.Infix in
  program ~main:"walk"
    [
      func "walk" ~params:[ "n" ]
        [
          assign "cnt" (flt 0.);
          assign "total" (flt 0.);
          assign "i" (flt 0.);
          while_ (var "i" < var "n")
            [
              assign "u" (prim "uniform" [ var "cnt" ]);
              assign "cnt" (var "cnt" + flt 1.);
              assign "total" (var "total" + var "u");
              assign "i" (var "i" + flt 1.);
            ];
          return_ [ var "total"; var "cnt" ];
        ];
    ]
