(* The shipped concrete-syntax program corpus: every program must parse,
   validate, agree across interpreter / local VM / PC VM on a grid of
   inputs, and match an OCaml specification. *)

let t = Alcotest.test_case
let reg = Prim.standard ()

let corpus_dir =
  (* Tests run inside _build/default/test; the corpus lives in the source
     tree three levels up. *)
  let candidates = [ "examples/programs"; "../../../examples/programs" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "cannot locate examples/programs"

let load name =
  match Parser.parse_file (Filename.concat corpus_dir name) with
  | Ok p ->
    Validate.check_exn reg p;
    p
  | Error e -> Alcotest.failf "%s: %s" name (Parser.string_of_error e)

(* Run the program on scalar input tuples through all engines; check the
   first output against [spec] and all engines against each other. *)
let check_program name ~inputs ~spec =
  let prog = load name in
  let n_args = List.length (List.hd inputs) in
  let compiled =
    Autobatch.compile ~registry:reg
      ~input_shapes:(List.init n_args (fun _ -> Shape.scalar))
      prog
  in
  let batch =
    List.init n_args (fun i ->
        Tensor.of_list (List.map (fun tuple -> List.nth tuple i) inputs))
  in
  let pc = Autobatch.run_pc compiled ~batch in
  let local = Autobatch.run_local compiled ~batch in
  List.iteri
    (fun idx (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "%s: local output %d" name idx) true
        (Tensor.equal a b))
    (List.combine pc local);
  List.iteri
    (fun b tuple ->
      let interp =
        Autobatch.run_single compiled ~member:b
          ~args:(List.map Tensor.scalar tuple)
      in
      Alcotest.(check bool) (Printf.sprintf "%s: interp member %d" name b) true
        (Tensor.equal (List.hd interp) (Tensor.scalar (Tensor.data (List.hd pc)).(b)));
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s(%s)" name (String.concat "," (List.map string_of_float tuple)))
        (spec tuple)
        (Tensor.data (List.hd pc)).(b))
    inputs

let rec gcd_spec a b = if b = 0 then a else gcd_spec b (a mod b)

let test_gcd () =
  check_program "gcd.ab"
    ~inputs:[ [ 252.; 105. ]; [ 17.; 5. ]; [ 8.; 12. ]; [ 7.; 0. ]; [ 100.; 100. ] ]
    ~spec:(fun t ->
      match t with
      | [ a; b ] -> float_of_int (gcd_spec (int_of_float a) (int_of_float b))
      | _ -> assert false)

let test_newton_sqrt () =
  let prog = load "newton_sqrt.ab" in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ] prog
  in
  let xs = [ 2.; 9.; 1e6; 0.25; 0. ] in
  let batch = [ Tensor.of_list xs; Tensor.full [| 5 |] 1e-9 ] in
  let out = Autobatch.run_pc compiled ~batch in
  List.iteri
    (fun i x ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "sqrt(%g)" x)
        (Stdlib.sqrt x)
        (Tensor.data (List.hd out)).(i))
    xs;
  (* Larger inputs take more iterations: divergent trip counts. *)
  let iters = Tensor.data (List.nth out 1) in
  Alcotest.(check bool) "iteration counts diverge" true (iters.(2) > iters.(0))

let mandel_spec cr ci =
  let zr = ref 0. and zi = ref 0. and n = ref 0 in
  while (!zr *. !zr) +. (!zi *. !zi) <= 4. && !n < 100 do
    let t = (!zr *. !zr) -. (!zi *. !zi) +. cr in
    zi := (2. *. !zr *. !zi) +. ci;
    zr := t;
    incr n
  done;
  float_of_int !n

let test_mandelbrot () =
  check_program "mandelbrot.ab"
    ~inputs:
      [ [ 0.; 0. ]; [ 2.; 2. ]; [ -1.; 0. ]; [ 0.3; 0.5 ]; [ -0.75; 0.1 ];
        [ 0.25; 0. ] ]
    ~spec:(fun t ->
      match t with [ cr; ci ] -> mandel_spec cr ci | _ -> assert false)

let rec choose_spec n k =
  if k <= 0 || k >= n then 1. else choose_spec (n - 1) (k - 1) +. choose_spec (n - 1) k

let test_binomial () =
  check_program "binomial.ab"
    ~inputs:[ [ 5.; 2. ]; [ 10.; 3. ]; [ 8.; 8. ]; [ 6.; 0. ]; [ 12.; 6. ] ]
    ~spec:(fun t ->
      match t with
      | [ n; k ] -> choose_spec (int_of_float n) (int_of_float k)
      | _ -> assert false)

let primes_spec n =
  let count = ref 0 in
  for k = 2 to n do
    let is_p = ref (k >= 2) in
    let d = ref 2 in
    while !d * !d <= k do
      if k mod !d = 0 then is_p := false;
      incr d
    done;
    if !is_p then incr count
  done;
  float_of_int !count

let test_primes () =
  check_program "primes.ab"
    ~inputs:[ [ 0. ]; [ 2. ]; [ 10. ]; [ 50. ]; [ 97. ] ]
    ~spec:(fun t ->
      match t with [ n ] -> primes_spec (int_of_float n) | _ -> assert false)

let test_corpus_parses_and_roundtrips () =
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".ab" then begin
        let prog = load file in
        (* Emit and re-parse: the corpus is round-trip stable. *)
        match Parser.parse_string (Parser.to_source prog) with
        | Ok p2 ->
          Alcotest.(check string) (file ^ " round trip") (Parser.to_source prog)
            (Parser.to_source p2)
        | Error e -> Alcotest.failf "%s reparse: %s" file (Parser.string_of_error e)
      end)
    (Sys.readdir corpus_dir)

let suites =
  [
    ( "corpus",
      [
        t "gcd.ab" `Quick test_gcd;
        t "newton_sqrt.ab" `Quick test_newton_sqrt;
        t "mandelbrot.ab" `Quick test_mandelbrot;
        t "binomial.ab" `Quick test_binomial;
        t "primes.ab" `Quick test_primes;
        t "corpus round trips" `Quick test_corpus_parses_and_roundtrips;
      ] );
  ]

let rec collatz_spec n = if n <= 1 then 0. else if n mod 2 = 0 then 1. +. collatz_spec (n / 2) else 1. +. collatz_spec ((3 * n) + 1)

let test_collatz_ab () =
  check_program "collatz.ab"
    ~inputs:[ [ 1. ]; [ 6. ]; [ 7. ]; [ 27. ]; [ 2. ] ]
    ~spec:(fun t ->
      match t with [ n ] -> collatz_spec (int_of_float n) | _ -> assert false)

let rec ack_spec m n =
  if m = 0 then n + 1
  else if n = 0 then ack_spec (m - 1) 1
  else ack_spec (m - 1) (ack_spec m (n - 1))

let test_ackermann_ab () =
  check_program "ackermann.ab"
    ~inputs:[ [ 0.; 4. ]; [ 1.; 3. ]; [ 2.; 3. ]; [ 3.; 3. ] ]
    ~spec:(fun t ->
      match t with
      | [ m; n ] -> float_of_int (ack_spec (int_of_float m) (int_of_float n))
      | _ -> assert false)

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            t "collatz.ab" `Quick test_collatz_ab;
            t "ackermann.ab" `Quick test_ackermann_ab;
          ] );
    ]
  | other -> other
