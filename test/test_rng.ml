(* Tests for the counter-based RNG and the sequential stream. *)

let t = Alcotest.test_case
let key = Counter_rng.key 42L

let test_determinism () =
  let a = Counter_rng.uniform key ~member:3 ~counter:17 ~slot:2 in
  let b = Counter_rng.uniform key ~member:3 ~counter:17 ~slot:2 in
  Alcotest.(check (float 0.)) "pure function of coordinates" a b;
  let c = Counter_rng.uniform (Counter_rng.key 43L) ~member:3 ~counter:17 ~slot:2 in
  Alcotest.(check bool) "seed changes stream" true (a <> c)

let test_coordinates_independent () =
  let base = Counter_rng.uniform key ~member:0 ~counter:0 ~slot:0 in
  Alcotest.(check bool) "member varies" true
    (base <> Counter_rng.uniform key ~member:1 ~counter:0 ~slot:0);
  Alcotest.(check bool) "counter varies" true
    (base <> Counter_rng.uniform key ~member:0 ~counter:1 ~slot:0);
  Alcotest.(check bool) "slot varies" true
    (base <> Counter_rng.uniform key ~member:0 ~counter:0 ~slot:1)

let test_uniform_range_and_moments () =
  let n = 20_000 in
  let acc = ref 0. and acc2 = ref 0. in
  for i = 0 to n - 1 do
    let u = Counter_rng.uniform key ~member:0 ~counter:i ~slot:0 in
    Alcotest.(check bool) "in (0,1)" true (u > 0. && u < 1.);
    acc := !acc +. u;
    acc2 := !acc2 +. (u *. u)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 1/2" true (Float.abs (mean -. 0.5) < 0.01);
  Alcotest.(check bool) "var ~ 1/12" true (Float.abs (var -. (1. /. 12.)) < 0.01)

let test_normal_moments () =
  let n = 20_000 in
  let acc = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
  for i = 0 to n - 1 do
    let x = Counter_rng.normal key ~member:1 ~counter:i ~slot:0 in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x);
    acc3 := !acc3 +. (x *. x *. x)
  done;
  let nf = float_of_int n in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs (!acc /. nf) < 0.03);
  Alcotest.(check bool) "var ~ 1" true (Float.abs ((!acc2 /. nf) -. 1.) < 0.05);
  Alcotest.(check bool) "skew ~ 0" true (Float.abs (!acc3 /. nf) < 0.1)

let test_exponential_moments () =
  let n = 20_000 in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let x = Counter_rng.exponential key ~member:2 ~counter:i ~slot:0 in
    Alcotest.(check bool) "positive" true (x > 0.);
    acc := !acc +. x
  done;
  Alcotest.(check bool) "mean ~ 1" true (Float.abs ((!acc /. float_of_int n) -. 1.) < 0.03)

let test_stream () =
  let s1 = Splitmix.Stream.create 1L in
  let s2 = Splitmix.Stream.create 1L in
  Alcotest.(check (float 0.)) "streams deterministic" (Splitmix.Stream.uniform s1)
    (Splitmix.Stream.uniform s2);
  for _ = 1 to 1000 do
    let k = Splitmix.Stream.int_below s1 7 in
    Alcotest.(check bool) "int_below in range" true (k >= 0 && k < 7)
  done;
  Alcotest.check_raises "int_below 0"
    (Invalid_argument "Splitmix.Stream.int_below: non-positive bound") (fun () ->
      ignore (Splitmix.Stream.int_below s1 0))

let test_stream_state_roundtrip () =
  (* state/of_state is the snapshot seam: a stream rebuilt from its state
     word draws the exact same tail, and capturing is effect-free. *)
  let s = Splitmix.Stream.create 0xFEEDFACEL in
  for _ = 1 to 17 do
    ignore (Splitmix.Stream.uniform s)
  done;
  let st = Splitmix.Stream.state s in
  let s' = Splitmix.Stream.of_state st in
  Alcotest.(check int64) "state survives the round trip" st
    (Splitmix.Stream.state s');
  for i = 1 to 50 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d identical" i)
      (Splitmix.Stream.next_int64 s)
      (Splitmix.Stream.next_int64 s')
  done

let test_mix64_bijective_sample () =
  (* Distinct inputs map to distinct outputs (spot check, mix64 is a
     permutation). *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    let w = Splitmix.mix64 (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen w);
    Hashtbl.add seen w ()
  done

let prop_unit_float_open =
  QCheck.Test.make ~name:"to_unit_float in (0,1)" ~count:500 QCheck.int64 (fun w ->
      let f = Splitmix.to_unit_float w in
      f > 0. && f < 1.)

let suites =
  [
    ( "rng",
      [
        t "determinism" `Quick test_determinism;
        t "coordinate independence" `Quick test_coordinates_independent;
        t "uniform range and moments" `Quick test_uniform_range_and_moments;
        t "normal moments" `Quick test_normal_moments;
        t "exponential moments" `Quick test_exponential_moments;
        t "sequential stream" `Quick test_stream;
        t "stream state round trip" `Quick test_stream_state_roundtrip;
        t "mix64 no collisions" `Quick test_mix64_bijective_sample;
        QCheck_alcotest.to_alcotest prop_unit_float_open;
      ] );
  ]
