(* Tests for the concrete-syntax frontend. *)

let t = Alcotest.test_case
let reg = Prim.standard ()

let parse_ok ?main src =
  match Parser.parse_string ?main src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.string_of_error e)

let parse_err src =
  match Parser.parse_string src with
  | Ok _ -> Alcotest.failf "expected a parse error for:\n%s" src
  | Error e -> e

let fib_src =
  {|
# Recursive Fibonacci - the paper's running example.
def fib(n) {
  if (n <= 1) { return 1; }
  else {
    left = fib(n - 2);
    right = fib(n - 1);
    return left + right;
  }
}
|}

let test_parse_fib () =
  let p = parse_ok fib_src in
  Alcotest.(check string) "entry" "fib" p.Lang.main;
  Validate.check_exn reg p;
  let compiled = Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar ] p in
  let out = Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 10. ] ] in
  Alcotest.(check (float 0.)) "fib(10)" 89. (Tensor.data (List.hd out)).(0)

let test_parse_precedence () =
  let p =
    parse_ok
      {| def main(x) { return 1 + 2 * x, (1 + 2) * x, -x * 3, !(x > 9) && x < 9; } |}
  in
  let run v =
    Interp.run reg p ~member:0 ~args:[ Tensor.scalar v ]
    |> List.map Tensor.item
  in
  Alcotest.(check (list (float 0.))) "precedence at x=4"
    [ 9.; 12.; -12.; 1. ] (run 4.)

let test_parse_multi_call_and_vectors () =
  let p =
    parse_ok
      {|
def main(v) {
  q, r = divmod(sum(v), 4);
  return q, r, dot(v, [1, 2, 3]);
}
def divmod(a, b) {
  q = 0; r = a;
  while (r >= b) { r = r - b; q = q + 1; }
  return q, r;
}
|}
  in
  Validate.check_exn reg p;
  let out =
    Interp.run reg p ~member:0 ~args:[ Tensor.of_list [ 3.; 4.; 7. ] ]
    |> List.map Tensor.item
  in
  (* sum = 14 -> q=3 r=2; dot = 3+8+21 = 32 *)
  Alcotest.(check (list (float 0.))) "values" [ 3.; 2.; 32. ] out

let test_entry_convention () =
  let src = {| def helper(x) { return x; } def main(x) { return x + 1; } |} in
  Alcotest.(check string) "named main wins" "main" (parse_ok src).Lang.main;
  let src2 = {| def first(x) { return x; } def second(x) { return x; } |} in
  Alcotest.(check string) "else first function" "first" (parse_ok src2).Lang.main;
  Alcotest.(check string) "override" "second"
    (parse_ok ~main:"second" src2).Lang.main

let test_comments_and_whitespace () =
  let p =
    parse_ok "def main(x) { # set y\n  y = x; # twice\n  return y * 2.5e-1; }"
  in
  let out = Interp.run reg p ~member:0 ~args:[ Tensor.scalar 8. ] in
  Alcotest.(check (float 0.)) "value" 2. (Tensor.item (List.hd out))

let test_parse_errors () =
  let check_mentions src fragment =
    let e = parse_err src in
    let msg = Parser.string_of_error e in
    let contains =
      let lm = String.length msg and lf = String.length fragment in
      let rec go i = i + lf <= lm && (String.sub msg i lf = fragment || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment msg) true contains
  in
  check_mentions "" "empty program";
  check_mentions "def main(x) { return x }" "';'";
  check_mentions "def main(x) { return x; " "statement";
  check_mentions "def main(x) { y = ; return y; }" "expression";
  check_mentions "def main(x) { @ }" "unexpected character";
  check_mentions "def main(x) { a, b = x + 1; return a; }" "function call";
  (* Program-function applications inside expressions are rejected with a
     position. *)
  check_mentions "def main(x) { return 1 + main(x); }" "control flow";
  let e = parse_err "def main(x) {\n  y = ;\n  return y;\n}" in
  Alcotest.(check int) "error line" 2 e.Parser.line

let test_roundtrip_fixpoint () =
  List.iter
    (fun prog ->
      let s1 = Parser.to_source prog in
      let p2 = parse_ok s1 in
      let s2 = Parser.to_source p2 in
      Alcotest.(check string) "emit/parse fixpoint" s1 s2;
      (* Behavioral equality on a few inputs via the interpreter. *)
      List.iter
        (fun v ->
          let args =
            List.map (fun _ -> Tensor.scalar v)
              (Option.get (Lang.find_func prog prog.Lang.main)).Lang.params
          in
          let a = Interp.run reg prog ~member:0 ~args in
          let b = Interp.run reg p2 ~member:0 ~args in
          List.iter2
            (fun x y -> Alcotest.(check bool) "same behavior" true (Tensor.equal x y))
            a b)
        [ 0.; 1.; 5.; 9. ])
    [ Test_programs.fib; Test_programs.fact_loop; Test_programs.collatz;
      Test_programs.even_odd ]

let prop_roundtrip_random_programs =
  QCheck.Test.make ~name:"parser round-trips generated programs" ~count:60
    Test_random_programs.arb_program (fun prog ->
      match Parser.parse_string (Parser.to_source prog) with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" (Parser.string_of_error e)
      | Ok p2 ->
        let s1 = Parser.to_source prog and s2 = Parser.to_source p2 in
        if s1 <> s2 then
          QCheck.Test.fail_reportf "fixpoint mismatch:\n%s\nvs\n%s" s1 s2;
        (* And behavior is preserved. *)
        let args = [ Tensor.scalar 2.; Tensor.scalar (-1.) ] in
        let a = Interp.run reg prog ~member:0 ~args in
        let b = Interp.run reg p2 ~member:0 ~args in
        List.for_all2 Tensor.equal a b)

(* ---------- fuzzing: the parser is total ---------- *)

(* Whatever the bytes, [parse_string] answers [Ok] or [Error]; it never
   raises. Random bytes exercise the lexer; strings over the language's
   own alphabet reach the statement and expression parsers. *)
let total src =
  match Parser.parse_string src with
  | Ok _ | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "parse_string raised %s on %S" (Printexc.to_string e) src

let prop_total_on_bytes =
  QCheck.Test.make ~name:"parser never raises on random bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 80))
    total

let syntax_char =
  QCheck.Gen.oneofl (List.of_seq (String.to_seq "def main(x,y){}[];=+-*/%<>!&|.#e1 0\nifelsewhilereturn"))

let prop_total_on_syntax_soup =
  QCheck.Test.make ~name:"parser never raises on syntax soup" ~count:500
    QCheck.(make ~print:Print.string Gen.(string_size ~gen:syntax_char (0 -- 80)))
    total

let corpus_sources () =
  let dir =
    List.find Sys.file_exists [ "examples/programs"; "../../../examples/programs" ]
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ab")
  |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

(* Every prefix of every corpus program: a realistic source cut off at
   any byte, inside a token, a comment or a nested block. *)
let test_total_on_truncated_corpus () =
  List.iter
    (fun src ->
      for cut = 0 to String.length src do
        ignore (total (String.sub src 0 cut))
      done)
    (corpus_sources ())

let suites =
  [
    ( "parser",
      [
        t "fib end to end" `Quick test_parse_fib;
        t "operator precedence" `Quick test_parse_precedence;
        t "multi-result calls and vectors" `Quick test_parse_multi_call_and_vectors;
        t "entry-point convention" `Quick test_entry_convention;
        t "comments and floats" `Quick test_comments_and_whitespace;
        t "error reporting" `Quick test_parse_errors;
        t "round trip fixpoint" `Quick test_roundtrip_fixpoint;
        QCheck_alcotest.to_alcotest prop_roundtrip_random_programs;
        QCheck_alcotest.to_alcotest prop_total_on_bytes;
        QCheck_alcotest.to_alcotest prop_total_on_syntax_soup;
        t "never raises on truncated corpus programs" `Quick test_total_on_truncated_corpus;
      ] );
  ]
