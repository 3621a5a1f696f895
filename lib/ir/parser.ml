type error = { line : int; col : int; message : string }

let string_of_error e = Printf.sprintf "%d:%d: %s" e.line e.col e.message

exception Parse_error of error

(* ---------- lexer ---------- *)

type token =
  | NUMBER of float
  | IDENT of string
  | KW_DEF
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | ASSIGN
  | EQ
  | NE
  | LE
  | GE
  | LT
  | GT
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | ANDAND
  | OROR
  | BANG
  | EOF

let token_to_string = function
  | NUMBER v -> Printf.sprintf "number %g" v
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW_DEF -> "'def'"
  | KW_IF -> "'if'"
  | KW_ELSE -> "'else'"
  | KW_WHILE -> "'while'"
  | KW_RETURN -> "'return'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | ASSIGN -> "'='"
  | EQ -> "'=='"
  | NE -> "'!='"
  | LE -> "'<='"
  | GE -> "'>='"
  | LT -> "'<'"
  | GT -> "'>'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | ANDAND -> "'&&'"
  | OROR -> "'||'"
  | BANG -> "'!'"
  | EOF -> "end of input"

type spanned = { tok : token; tline : int; tcol : int }

let lex source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let fail message = raise (Parse_error { line = !line; col = !col; message }) in
  let push tok tline tcol = tokens := { tok; tline; tcol } :: !tokens in
  let advance () =
    (if source.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = source.[!i] in
    let tline = !line and tcol = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !i < n && source.[!i] <> '\n' do
        advance ()
      done
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit source.[!i + 1]) then begin
      let start = !i in
      while
        !i < n
        && (is_digit source.[!i] || source.[!i] = '.' || source.[!i] = 'e'
           || source.[!i] = 'E'
           || ((source.[!i] = '+' || source.[!i] = '-')
              && !i > start
              && (source.[!i - 1] = 'e' || source.[!i - 1] = 'E')))
      do
        advance ()
      done;
      let text = String.sub source start (!i - start) in
      match float_of_string_opt text with
      | Some v -> push (NUMBER v) tline tcol
      | None -> fail (Printf.sprintf "malformed number %S" text)
    end
    else if is_ident_char c && not (is_digit c) then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do
        advance ()
      done;
      let text = String.sub source start (!i - start) in
      let tok =
        match text with
        | "def" -> KW_DEF
        | "if" -> KW_IF
        | "else" -> KW_ELSE
        | "while" -> KW_WHILE
        | "return" -> KW_RETURN
        | _ -> IDENT text
      in
      push tok tline tcol
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub source !i 2) else None
      in
      match two with
      | Some "==" -> push EQ tline tcol; advance (); advance ()
      | Some "!=" -> push NE tline tcol; advance (); advance ()
      | Some "<=" -> push LE tline tcol; advance (); advance ()
      | Some ">=" -> push GE tline tcol; advance (); advance ()
      | Some "&&" -> push ANDAND tline tcol; advance (); advance ()
      | Some "||" -> push OROR tline tcol; advance (); advance ()
      | _ -> (
        (match c with
        | '(' -> push LPAREN tline tcol
        | ')' -> push RPAREN tline tcol
        | '{' -> push LBRACE tline tcol
        | '}' -> push RBRACE tline tcol
        | '[' -> push LBRACKET tline tcol
        | ']' -> push RBRACKET tline tcol
        | ',' -> push COMMA tline tcol
        | ';' -> push SEMI tline tcol
        | '=' -> push ASSIGN tline tcol
        | '<' -> push LT tline tcol
        | '>' -> push GT tline tcol
        | '+' -> push PLUS tline tcol
        | '-' -> push MINUS tline tcol
        | '*' -> push STAR tline tcol
        | '/' -> push SLASH tline tcol
        | '!' -> push BANG tline tcol
        | _ -> fail (Printf.sprintf "unexpected character %C" c));
        advance ())
    end
  done;
  push EOF !line !col;
  Array.of_list (List.rev !tokens)

(* ---------- parser ---------- *)

(* Expressions parse applications [f(args)] uniformly; whether [f] is a
   primitive or a program function is resolved after the whole program is
   known (calls to program functions are only legal as statements). *)

type pexpr =
  | P_num of float
  | P_vec of float array
  | P_var of string
  | P_app of string * pexpr list * int * int  (* callee, args, line, col *)

type pstmt =
  | P_assign of string list * pexpr * int * int
  | P_if of pexpr * pstmt list * pstmt list
  | P_while of pexpr * pstmt list
  | P_return of pexpr list

type state = { toks : spanned array; mutable pos : int }

let peek st = st.toks.(st.pos)

let next st =
  let t = st.toks.(st.pos) in
  if t.tok <> EOF then st.pos <- st.pos + 1;
  t

let fail_at (sp : spanned) message =
  raise (Parse_error { line = sp.tline; col = sp.tcol; message })

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    fail_at t (Printf.sprintf "expected %s but found %s" (token_to_string tok)
                 (token_to_string t.tok))

let expect_ident st =
  let t = next st in
  match t.tok with
  | IDENT s -> s
  | other -> fail_at t (Printf.sprintf "expected an identifier, found %s" (token_to_string other))

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while (peek st).tok = OROR do
    ignore (next st);
    let rhs = parse_and st in
    lhs := P_app ("or", [ !lhs; rhs ], 0, 0)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_cmp st) in
  while (peek st).tok = ANDAND do
    ignore (next st);
    let rhs = parse_cmp st in
    lhs := P_app ("and", [ !lhs; rhs ], 0, 0)
  done;
  !lhs

and parse_cmp st =
  let lhs = parse_additive st in
  let op =
    match (peek st).tok with
    | EQ -> Some "eq"
    | NE -> Some "ne"
    | LE -> Some "le"
    | GE -> Some "ge"
    | LT -> Some "lt"
    | GT -> Some "gt"
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some name ->
    ignore (next st);
    let rhs = parse_additive st in
    P_app (name, [ lhs; rhs ], 0, 0)

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec go () =
    match (peek st).tok with
    | PLUS ->
      ignore (next st);
      lhs := P_app ("add", [ !lhs; parse_multiplicative st ], 0, 0);
      go ()
    | MINUS ->
      ignore (next st);
      lhs := P_app ("sub", [ !lhs; parse_multiplicative st ], 0, 0);
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match (peek st).tok with
    | STAR ->
      ignore (next st);
      lhs := P_app ("mul", [ !lhs; parse_unary st ], 0, 0);
      go ()
    | SLASH ->
      ignore (next st);
      lhs := P_app ("div", [ !lhs; parse_unary st ], 0, 0);
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  match (peek st).tok with
  | MINUS ->
    ignore (next st);
    P_app ("neg", [ parse_unary st ], 0, 0)
  | BANG ->
    ignore (next st);
    P_app ("not", [ parse_unary st ], 0, 0)
  | _ -> parse_primary st

and parse_primary st =
  let t = next st in
  match t.tok with
  | NUMBER v -> P_num v
  | LPAREN ->
    let e = parse_expr st in
    expect st RPAREN;
    e
  | LBRACKET ->
    let elems = ref [] in
    (if (peek st).tok <> RBRACKET then begin
       let rec go () =
         let e = next st in
         (match e.tok with
         | NUMBER v -> elems := v :: !elems
         | MINUS -> (
           let e2 = next st in
           match e2.tok with
           | NUMBER v -> elems := -.v :: !elems
           | other ->
             fail_at e2
               (Printf.sprintf "expected a number in vector literal, found %s"
                  (token_to_string other)))
         | other ->
           fail_at e
             (Printf.sprintf "expected a number in vector literal, found %s"
                (token_to_string other)));
         if (peek st).tok = COMMA then begin
           ignore (next st);
           go ()
         end
       in
       go ()
     end);
    expect st RBRACKET;
    P_vec (Array.of_list (List.rev !elems))
  | IDENT name ->
    if (peek st).tok = LPAREN then begin
      ignore (next st);
      let args = ref [] in
      (if (peek st).tok <> RPAREN then begin
         let rec go () =
           args := parse_expr st :: !args;
           if (peek st).tok = COMMA then begin
             ignore (next st);
             go ()
           end
         in
         go ()
       end);
      expect st RPAREN;
      P_app (name, List.rev !args, t.tline, t.tcol)
    end
    else P_var name
  | other -> fail_at t (Printf.sprintf "expected an expression, found %s" (token_to_string other))

let rec parse_stmt st =
  let t = peek st in
  match t.tok with
  | KW_IF ->
    ignore (next st);
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    let then_body = parse_block st in
    let else_body =
      if (peek st).tok = KW_ELSE then begin
        ignore (next st);
        parse_block st
      end
      else []
    in
    P_if (cond, then_body, else_body)
  | KW_WHILE ->
    ignore (next st);
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    let body = parse_block st in
    P_while (cond, body)
  | KW_RETURN ->
    ignore (next st);
    let values = ref [ parse_expr st ] in
    while (peek st).tok = COMMA do
      ignore (next st);
      values := parse_expr st :: !values
    done;
    expect st SEMI;
    P_return (List.rev !values)
  | IDENT _ ->
    let dsts = ref [ expect_ident st ] in
    while (peek st).tok = COMMA do
      ignore (next st);
      dsts := expect_ident st :: !dsts
    done;
    expect st ASSIGN;
    let rhs = parse_expr st in
    expect st SEMI;
    P_assign (List.rev !dsts, rhs, t.tline, t.tcol)
  | other ->
    fail_at t (Printf.sprintf "expected a statement, found %s" (token_to_string other))

and parse_block st =
  expect st LBRACE;
  let stmts = ref [] in
  while (peek st).tok <> RBRACE do
    stmts := parse_stmt st :: !stmts
  done;
  expect st RBRACE;
  List.rev !stmts

type pfunc = { pname : string; pparams : string list; pbody : pstmt list }

let parse_func st =
  expect st KW_DEF;
  let pname = expect_ident st in
  expect st LPAREN;
  let pparams = ref [] in
  (if (peek st).tok <> RPAREN then begin
     let rec go () =
       pparams := expect_ident st :: !pparams;
       if (peek st).tok = COMMA then begin
         ignore (next st);
         go ()
       end
     in
     go ()
   end);
  expect st RPAREN;
  let pbody = parse_block st in
  { pname; pparams = List.rev !pparams; pbody }

(* ---------- resolution: applications -> prims vs function calls ---------- *)

let resolve funcs =
  let fnames = List.map (fun f -> f.pname) funcs in
  let is_func name = List.mem name fnames in
  let rec expr (e : pexpr) : Lang.expr =
    match e with
    | P_num v -> Lang.Const v
    | P_vec a -> Lang.Vec a
    | P_var x -> Lang.Var x
    | P_app (name, args, line, col) ->
      if is_func name then
        raise
          (Parse_error
             {
               line;
               col;
               message =
                 Printf.sprintf
                   "function %S called inside an expression; calls are control \
                    flow and must be statements (d = %s(...);)"
                   name name;
             })
      else Lang.Prim (name, List.map expr args)
  in
  let rec stmt (s : pstmt) : Lang.stmt =
    match s with
    | P_assign (dsts, P_app (name, args, line, col), _, _) when is_func name ->
      ignore line;
      ignore col;
      Lang.Call_stmt (dsts, name, List.map expr args)
    | P_assign ([ dst ], rhs, _, _) -> Lang.Assign (dst, expr rhs)
    | P_assign (dsts, _, line, col) ->
      raise
        (Parse_error
           {
             line;
             col;
             message =
               Printf.sprintf
                 "%d destinations on the left of '=' but the right-hand side is \
                  not a function call"
                 (List.length dsts);
           })
    | P_if (c, t, e) -> Lang.If (expr c, List.map stmt t, List.map stmt e)
    | P_while (c, body) -> Lang.While (expr c, List.map stmt body)
    | P_return es -> Lang.Return (List.map expr es)
  in
  List.map
    (fun f -> { Lang.fname = f.pname; params = f.pparams; body = List.map stmt f.pbody })
    funcs

let parse_string ?main source =
  match
    let st = { toks = lex source; pos = 0 } in
    let funcs = ref [] in
    while (peek st).tok <> EOF do
      funcs := parse_func st :: !funcs
    done;
    let funcs = List.rev !funcs in
    if funcs = [] then
      raise (Parse_error { line = 1; col = 1; message = "empty program" });
    let lang_funcs = resolve funcs in
    let entry =
      match main with
      | Some m -> m
      | None ->
        if List.exists (fun f -> f.pname = "main") funcs then "main"
        else (List.hd funcs).pname
    in
    Lang.program ~main:entry lang_funcs
  with
  | program -> Ok program
  | exception Parse_error e -> Error e

(* Read to end of file rather than by [in_channel_length], so a pipe or
   a terminal (which cannot seek) reads like a regular file. *)
let parse_file ?main path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  parse_string ?main source

(* ---------- source emission ---------- *)

let infix_ops =
  [
    ("add", "+"); ("sub", "-"); ("mul", "*"); ("div", "/"); ("eq", "==");
    ("ne", "!="); ("le", "<="); ("ge", ">="); ("lt", "<"); ("gt", ">");
    ("and", "&&"); ("or", "||");
  ]

let rec emit_expr buf (e : Lang.expr) =
  match e with
  | Lang.Var x -> Buffer.add_string buf x
  | Lang.Const v ->
    if v < 0. then Buffer.add_string buf (Printf.sprintf "(-%.17g)" (-.v))
    else Buffer.add_string buf (Printf.sprintf "%.17g" v)
  | Lang.Vec a ->
    Buffer.add_char buf '[';
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf "%.17g" v))
      a;
    Buffer.add_char buf ']'
  | Lang.Prim ("neg", [ a ]) ->
    Buffer.add_string buf "(-";
    emit_expr buf a;
    Buffer.add_char buf ')'
  | Lang.Prim ("not", [ a ]) ->
    Buffer.add_string buf "(!";
    emit_expr buf a;
    Buffer.add_char buf ')'
  | Lang.Prim (name, [ a; b ]) when List.mem_assoc name infix_ops ->
    Buffer.add_char buf '(';
    emit_expr buf a;
    Buffer.add_string buf (Printf.sprintf " %s " (List.assoc name infix_ops));
    emit_expr buf b;
    Buffer.add_char buf ')'
  | Lang.Prim (name, args) ->
    Buffer.add_string buf name;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        emit_expr buf a)
      args;
    Buffer.add_char buf ')'

let rec emit_stmt buf indent (s : Lang.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Lang.Assign (x, e) ->
    Buffer.add_string buf (pad ^ x ^ " = ");
    emit_expr buf e;
    Buffer.add_string buf ";\n"
  | Lang.Call_stmt (dsts, f, args) ->
    Buffer.add_string buf (pad ^ String.concat ", " dsts ^ " = " ^ f ^ "(");
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        emit_expr buf a)
      args;
    Buffer.add_string buf ");\n"
  | Lang.Return es ->
    Buffer.add_string buf (pad ^ "return ");
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string buf ", ";
        emit_expr buf e)
      es;
    Buffer.add_string buf ";\n"
  | Lang.If (c, t, e) ->
    Buffer.add_string buf (pad ^ "if (");
    emit_expr buf c;
    Buffer.add_string buf ") {\n";
    List.iter (emit_stmt buf (indent + 2)) t;
    Buffer.add_string buf (pad ^ "}");
    if e <> [] then begin
      Buffer.add_string buf " else {\n";
      List.iter (emit_stmt buf (indent + 2)) e;
      Buffer.add_string buf (pad ^ "}")
    end;
    Buffer.add_char buf '\n'
  | Lang.While (c, body) ->
    Buffer.add_string buf (pad ^ "while (");
    emit_expr buf c;
    Buffer.add_string buf ") {\n";
    List.iter (emit_stmt buf (indent + 2)) body;
    Buffer.add_string buf (pad ^ "}\n")

let to_source (p : Lang.program) =
  let buf = Buffer.create 1024 in
  (* Emit the entry function first so the entry-point convention holds
     even when it is not named "main". *)
  let entry, rest =
    List.partition (fun f -> f.Lang.fname = p.Lang.main) p.Lang.funcs
  in
  List.iter
    (fun (f : Lang.func) ->
      Buffer.add_string buf
        (Printf.sprintf "def %s(%s) {\n" f.Lang.fname (String.concat ", " f.Lang.params));
      List.iter (emit_stmt buf 2) f.Lang.body;
      Buffer.add_string buf "}\n\n")
    (entry @ rest);
  Buffer.contents buf
