(* Structural program identity: one post-order walk, each node a left
   fold of [Splitmix.hash2] from [Splitmix.hash_list]'s seed over its
   constructor tag, its scalar payloads, its hashed strings and its
   children's digests, in that order. The tests pin the resulting
   values: digests break ties in the tenant server's shard placement,
   so changing the order or the tags would move scheduling. *)

let mix = Splitmix.hash2

let hash_string s =
  let h = ref (Int64.of_int (String.length s)) in
  String.iter (fun c -> h := mix !h (Int64.of_int (Char.code c))) s;
  !h

(* A node's fold state after its tag: [hash_list [tag]]. *)
let node tag = Splitmix.hash_list [ Int64.of_int tag ]
let str acc s = mix acc (hash_string s)
let strs acc l = List.fold_left str acc l
let kids f acc l = List.fold_left (fun acc x -> mix acc (f x)) acc l

let rec expr_digest (e : Lang.expr) =
  match e with
  | Lang.Var x -> str (node 1) x
  | Lang.Const v -> mix (node 2) (Int64.bits_of_float v)
  | Lang.Vec a ->
    Array.fold_left (fun acc v -> mix acc (Int64.bits_of_float v)) (node 3) a
  | Lang.Prim (name, args) -> kids expr_digest (str (node 4) name) args

let rec stmt_digest (s : Lang.stmt) =
  match s with
  | Lang.Assign (x, e) -> mix (str (node 10) x) (expr_digest e)
  | Lang.Call_stmt (dsts, f, args) ->
    kids expr_digest (strs (str (node 11) f) dsts) args
  | Lang.If (c, t, e) ->
    mix (mix (mix (node 12) (expr_digest c)) (body_digest t)) (body_digest e)
  | Lang.While (c, body) -> mix (mix (node 13) (expr_digest c)) (body_digest body)
  | Lang.Return es -> kids expr_digest (node 14) es

and body_digest stmts = kids stmt_digest (node 20) stmts

let func_digest (f : Lang.func) =
  mix (strs (str (node 30) f.Lang.fname) f.Lang.params) (body_digest f.Lang.body)

let digest_program (p : Lang.program) =
  kids func_digest (str (node 31) p.Lang.main) p.Lang.funcs

let digest ?input_shapes p =
  let base = digest_program p in
  match input_shapes with
  | None -> Splitmix.hash2 base 0x5eedL
  | Some shapes ->
    List.fold_left
      (fun acc (s : Shape.t) ->
        Array.fold_left
          (fun acc d -> Splitmix.hash2 acc (Int64.of_int d))
          (Splitmix.hash2 acc (Int64.of_int (Array.length s)))
          s)
      (Splitmix.hash2 base 0xcac4eL)
      shapes

(* ---------- the LRU of compiled programs ---------- *)

type entry = { compiled : Autobatch.compiled; mutable last_use : int }

(* A program looked up recently, with the shapes it came with, their
   digest and the entry the cache holds for it. *)
type seen = {
  s_program : Lang.program;
  s_shapes : Shape.t list;
  s_digest : int64;
  s_entry : entry;
}

type t = {
  capacity : int;
  registry : Prim.registry;
  entries : (int64, entry) Hashtbl.t;
  door : Doorkeeper.t;  (* digests that missed the full cache recently *)
  mutable tick : int;  (* bumps on every access; LRU = smallest tick *)
  mutable memo : seen array;  (* most recent first, at most [capacity] *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  sink : Obs_sink.t option;
  clock : unit -> float;
  mutable span_seq : int;
}

let create ?registry ?sink ?(clock = fun () -> 0.) ~capacity () =
  if capacity < 0 then invalid_arg "Prog_cache.create: negative capacity";
  {
    capacity;
    registry = (match registry with Some r -> r | None -> Prim.standard ());
    entries = Hashtbl.create (Stdlib.max 16 capacity);
    door = Doorkeeper.create ~capacity;
    tick = 0;
    memo = [||];
    n_hits = 0; n_misses = 0; n_evictions = 0;
    sink;
    clock;
    span_seq = 0;
  }

let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions
let length t = Hashtbl.length t.entries

let hit_rate t =
  let total = t.n_hits + t.n_misses in
  if total = 0 then nan else float_of_int t.n_hits /. float_of_int total

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

(* Cache-lifecycle instants live on the shared cache trace
   (Obs_span.cache_trace), outside any request's span tree. Charging no
   simulated cost, they are zero-width. *)
let emit_instant t name =
  match t.sink with
  | None -> ()
  | Some sink ->
    let span = t.span_seq in
    t.span_seq <- span + 1;
    let now = t.clock () in
    sink
      (Obs_sink.Span
         {
           trace = Obs_span.cache_trace;
           span;
           parent = Obs_span.no_parent;
           track = Obs_span.ops_track;
           name;
           t0 = now;
           t1 = now;
         })

let hit t e =
  touch t e;
  t.n_hits <- t.n_hits + 1;
  emit_instant t "cache-hit"

let miss t =
  t.n_misses <- t.n_misses + 1;
  emit_instant t "cache-miss"

(* Drop the least recently used entry, and the memo's programs with its
   digest. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.entries key;
    t.memo <-
      Array.of_list
        (List.filter (fun s -> not (Int64.equal s.s_digest key)) (Array.to_list t.memo));
    t.n_evictions <- t.n_evictions + 1

(* Keep a freshly compiled artifact: always below capacity; into a full
   cache only on the digest's second recent miss, evicting the least
   recently used entry. *)
let insert t key compiled =
  if Hashtbl.length t.entries < t.capacity || Doorkeeper.admit t.door key then begin
    if Hashtbl.length t.entries >= t.capacity then evict_lru t;
    t.tick <- t.tick + 1;
    let e = { compiled; last_use = t.tick } in
    Hashtbl.add t.entries key e;
    Some e
  end
  else None

let find t key =
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    hit t e;
    Some e.compiled
  | None ->
    miss t;
    None

(* The memo's entry for the same physical program with equal shapes,
   moved to the front. *)
let memo_find t ~input_shapes program =
  let memo = t.memo in
  let same e =
    e.s_program == program
    && (e.s_shapes == input_shapes || List.equal Shape.equal e.s_shapes input_shapes)
  in
  let rec find k =
    if k = Array.length memo then None
    else if same memo.(k) then begin
      let e = memo.(k) in
      Array.blit memo 0 memo 1 k;
      memo.(0) <- e;
      Some e.s_entry
    end
    else find (k + 1)
  in
  find 0

(* Remember [program] as the newest memo entry, dropping the least recent
   past [capacity]. *)
let remember t ~input_shapes program key e =
  let seen = { s_program = program; s_shapes = input_shapes; s_digest = key; s_entry = e } in
  t.memo <-
    Array.append [| seen |]
      (Array.sub t.memo 0 (Stdlib.min (Array.length t.memo) (t.capacity - 1)))

let find_or_compile t ?optimize ?fuse ~input_shapes program =
  match memo_find t ~input_shapes program with
  | Some e ->
    hit t e;
    (e.compiled, `Hit)
  | None -> (
    let key = digest ~input_shapes program in
    match Hashtbl.find_opt t.entries key with
    | Some e ->
      hit t e;
      remember t ~input_shapes program key e;
      (e.compiled, `Hit)
    | None ->
      miss t;
      let compiled =
        Autobatch.compile ~registry:t.registry ?optimize ?fuse ~input_shapes program
      in
      emit_instant t "compile";
      Option.iter (remember t ~input_shapes program key) (insert t key compiled);
      (compiled, `Miss))
