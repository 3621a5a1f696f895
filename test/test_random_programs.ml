(* Differential fuzzing: generate random well-formed programs and check
   that the single-example interpreter, the local static VM (both
   execution styles) and the program-counter VM agree bitwise on every
   batch member.

   Termination is guaranteed by construction: while loops only count a
   private counter down from a small constant, and the optional recursive
   function strictly decreases its first argument toward a base case. *)

module G = QCheck.Gen

(* The fixed mutable variable pool: all defined at entry, so any read is
   safe anywhere. *)
let pool = [ "a"; "b"; "c"; "d" ]

let arith_prims = [ "add"; "sub"; "mul"; "min"; "max" ]
let unary_prims = [ "neg"; "abs"; "sign"; "floor"; "tanh"; "sigmoid" ]
let cmp_prims = [ "le"; "lt"; "ge"; "gt"; "eq"; "ne" ]

let gen_const =
  G.oneof
    [
      G.map float_of_int (G.int_range (-4) 4);
      G.return 0.5;
      G.return (-1.5);
      G.return 2.25;
    ]

let ( let* ) g f = G.( >>= ) g f

let rec gen_expr vars depth =
  let leaf =
    G.oneof [ G.map Lang.var (G.oneofl vars); G.map Lang.flt gen_const ]
  in
  if depth = 0 then leaf
  else
    G.frequency
      [
        (2, leaf);
        ( 3,
          let* name = G.oneofl arith_prims in
          let* e1 = gen_expr vars (depth - 1) in
          let* e2 = gen_expr vars (depth - 1) in
          G.return (Lang.prim name [ e1; e2 ]) );
        ( 1,
          let* name = G.oneofl unary_prims in
          let* e = gen_expr vars (depth - 1) in
          G.return (Lang.prim name [ e ]) );
        ( 1,
          let* c = gen_cmp vars (depth - 1) in
          let* e1 = gen_expr vars (depth - 1) in
          let* e2 = gen_expr vars (depth - 1) in
          G.return (Lang.prim "select" [ c; e1; e2 ]) );
      ]

and gen_cmp vars depth =
  let* name = G.oneofl cmp_prims in
  let* e1 = gen_expr vars depth in
  let* e2 = gen_expr vars depth in
  G.return (Lang.prim name [ e1; e2 ])

(* Statement generators produce small statement lists plus a size cost. *)
let rec gen_stmts ~read_vars ~write_vars ~loop_id ~allow_call ~size =
  if size <= 0 then G.return []
  else
    let* stmts, cost = gen_stmt ~read_vars ~write_vars ~loop_id ~allow_call ~size in
    let* rest = gen_stmts ~read_vars ~write_vars ~loop_id ~allow_call ~size:(size - cost) in
    G.return (stmts @ rest)

and gen_stmt ~read_vars ~write_vars ~loop_id ~allow_call ~size =
  G.frequency
    ([
       ( 4,
         let* x = G.oneofl write_vars in
         let* e = gen_expr read_vars 3 in
         G.return ([ Lang.assign x e ], 1) );
       ( 2,
         let* c = gen_cmp read_vars 2 in
         let* then_body =
           gen_stmts ~read_vars ~write_vars ~loop_id ~allow_call ~size:(size / 2)
         in
         let* else_body =
           gen_stmts ~read_vars ~write_vars ~loop_id ~allow_call ~size:(size / 2)
         in
         G.return ([ Lang.if_ c then_body else_body ], 2) );
       ( 1,
         (* Bounded loop with a private counter variable. *)
         let* trips = G.int_range 0 3 in
         let* body =
           gen_stmts ~read_vars ~write_vars ~loop_id ~allow_call ~size:(size / 2)
         in
         let counter = Printf.sprintf "loop%d" !loop_id in
         incr loop_id;
         let open Lang in
         G.return
           ( [
               assign counter (flt (float_of_int trips));
               while_
                 (prim "gt" [ var counter; flt 0. ])
                 (body @ [ assign counter (prim "sub" [ var counter; flt 1. ]) ]);
             ],
             3 ) );
     ]
    @
    if allow_call then
      [
        ( 1,
          let* n = G.int_range 0 4 in
          let* arg = gen_expr read_vars 2 in
          let* dst = G.oneofl write_vars in
          G.return ([ Lang.call [ dst ] "rec" [ Lang.flt (float_of_int n); arg ] ], 2)
        );
      ]
    else [])

let loop_seed = ref 0

let gen_program =
  let* with_rec = G.bool in
  let* main_body =
    gen_stmts ~read_vars:pool ~write_vars:pool ~loop_id:loop_seed
      ~allow_call:with_rec ~size:8
  in
  let* r1 = gen_expr pool 3 in
  let* r2 = gen_expr pool 3 in
  let open Lang in
  let main =
    func "main" ~params:[ "p"; "q" ]
      ([ assign "a" (var "p"); assign "b" (var "q");
         assign "c" (prim "add" [ var "p"; var "q" ]); assign "d" (flt 1.) ]
      @ main_body
      @ [ return_ [ r1; r2 ] ])
  in
  if not with_rec then G.return (program ~main:"main" [ main ])
  else
    (* Inside the recursive function only [acc] is writable: [n] must
       strictly decrease toward the base case for termination. *)
    let* rec_body =
      gen_stmts ~read_vars:[ "n"; "acc" ] ~write_vars:[ "acc" ]
        ~loop_id:loop_seed ~allow_call:false ~size:4
    in
    let* combine = gen_expr [ "n"; "acc"; "sub_result" ] 2 in
    let recf =
      func "rec" ~params:[ "n"; "acc" ]
        [
          if_
            (prim "le" [ var "n"; flt 0. ])
            [ return_ [ var "acc" ] ]
            (rec_body
            @ [
                call [ "sub_result" ] "rec"
                  [ prim "sub" [ var "n"; flt 1. ]; var "acc" ];
                return_ [ combine ];
              ]);
        ]
    in
    G.return (program ~main:"main" [ main; recf ])

let print_program p = Format.asprintf "%a" Lang.pp_program p

let arb_program = QCheck.make ~print:print_program gen_program

(* One fixed input batch; member index also seeds nothing here (these
   programs draw no randomness), but exercising several members checks
   lane independence. *)
let batch_inputs =
  [
    Tensor.of_list [ -2.; 0.; 1.; 3.; 0.5 ];
    Tensor.of_list [ 4.; -1.; 0.; 2.; -0.5 ];
  ]

let runs_agree prog =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error msgs ->
    QCheck.Test.fail_reportf "generator produced invalid program: %s"
      (String.concat "; " msgs)
  | Ok () ->
    let compiled =
      Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ]
        prog
    in
    let z = 5 in
    let expected =
      List.init z (fun b ->
          Autobatch.run_single compiled ~member:b
            ~args:(List.map (fun t -> Tensor.slice_row t b) batch_inputs))
    in
    let check_run label outputs =
      List.iteri
        (fun b per_member ->
          List.iteri
            (fun i expect ->
              let got = Tensor.slice_row (List.nth outputs i) b in
              if not (Tensor.equal expect got) then
                QCheck.Test.fail_reportf
                  "%s disagrees with interpreter on member %d output %d:\n\
                   expected %s, got %s\nprogram:\n%s"
                  label b i (Tensor.to_string expect) (Tensor.to_string got)
                  (print_program prog))
            per_member)
        expected
    in
    (* CFG-level interpreter: localizes lowering bugs. *)
    List.iteri
      (fun b per_member ->
        let args = List.map (fun t -> Tensor.slice_row t b) batch_inputs in
        let got = Interp_cfg.run reg compiled.Autobatch.cfg ~member:b ~args in
        List.iter2
          (fun expect g ->
            if not (Tensor.equal expect g) then
              QCheck.Test.fail_reportf
                "CFG interpreter disagrees with AST interpreter on member %d\nprogram:\n%s"
                b (print_program prog))
          per_member got)
      expected;
    check_run "local/mask" (Autobatch.run_local compiled ~batch:batch_inputs);
    check_run "local/gather"
      (Autobatch.run_local
         ~config:{ Local_vm.default_config with style = Local_vm.Gather_scatter }
         compiled ~batch:batch_inputs);
    check_run "pc/earliest" (Autobatch.run_pc compiled ~batch:batch_inputs);
    check_run "pc/most-active"
      (Autobatch.run_pc
         ~config:{ Pc_vm.default_config with sched = Sched_policy.Most_active }
         compiled ~batch:batch_inputs);
    check_run "pc/round-robin"
      (Autobatch.run_pc
         ~config:{ Pc_vm.default_config with sched = Sched_policy.Round_robin }
         compiled ~batch:batch_inputs);
    true

let prop_differential =
  QCheck.Test.make ~name:"random programs: interpreter = local VM = pc VM"
    ~count:120 arb_program runs_agree


(* ---------- vector-valued fuzzing ----------

   A second generator covering tensor-shaped variables: two vector
   variables of dimension 3 flow through elementwise arithmetic,
   [select], functional [update]; scalars observe them through [index],
   [dot] and [sum]. Same differential check across all engines. *)

let vpool = [ "va"; "vb" ]

let rec gen_vexpr depth =
  let leaf =
    G.oneof
      [
        G.map Lang.var (G.oneofl vpool);
        G.map (fun l -> Lang.vec (Array.of_list l)) (G.list_size (G.return 3) gen_const);
      ]
  in
  if depth = 0 then leaf
  else
    G.frequency
      [
        (2, leaf);
        ( 2,
          let* name = G.oneofl [ "add"; "sub"; "mul"; "min"; "max" ] in
          let* a = gen_vexpr (depth - 1) in
          let* b = gen_vexpr (depth - 1) in
          G.return (Lang.prim name [ a; b ]) );
        ( 1,
          (* scalar broadcast against a vector *)
          let* s = gen_expr pool 1 in
          let* v = gen_vexpr (depth - 1) in
          G.return (Lang.prim "mul" [ s; v ]) );
        ( 1,
          let* v = gen_vexpr (depth - 1) in
          let* i = gen_sindex in
          let* x = gen_expr pool 1 in
          G.return (Lang.prim "update" [ v; i; x ]) );
        ( 1,
          let* c = gen_cmp pool 1 in
          let* a = gen_vexpr (depth - 1) in
          let* b = gen_vexpr (depth - 1) in
          G.return (Lang.prim "select" [ c; a; b ]) );
      ]

and gen_sindex =
  (* Indices stay in [0, 2]; out-of-range behaviour (clamping) is checked
     by direct unit tests, not by the differential (all engines clamp
     identically anyway). *)
  G.map (fun i -> Lang.flt (float_of_int i)) (G.int_bound 2)

let gen_vscalar =
  (* A scalar expression observing a vector. *)
  G.frequency
    [
      ( 2,
        let* v = gen_vexpr 1 in
        let* i = gen_sindex in
        G.return (Lang.prim "index" [ v; i ]) );
      ( 1,
        let* a = gen_vexpr 1 in
        let* b = gen_vexpr 1 in
        G.return (Lang.prim "dot" [ a; b ]) );
      ( 1,
        let* v = gen_vexpr 1 in
        G.return (Lang.prim "sum" [ v ]) );
    ]

let gen_vector_program =
  let* n_stmts = G.int_range 2 6 in
  let* body =
    G.list_size (G.return n_stmts)
      (G.frequency
         [
           ( 2,
             let* dst = G.oneofl vpool in
             let* e = gen_vexpr 2 in
             G.return (Lang.assign dst e) );
           ( 2,
             let* dst = G.oneofl pool in
             let* e = gen_vscalar in
             G.return (Lang.assign dst e) );
           ( 1,
             let* c = gen_cmp (pool @ []) 1 in
             let* dst = G.oneofl vpool in
             let* e1 = gen_vexpr 1 in
             let* e2 = gen_vexpr 1 in
             G.return (Lang.if_ c [ Lang.assign dst e1 ] [ Lang.assign dst e2 ]) );
         ])
  in
  let* r1 = gen_vscalar in
  let open Lang in
  G.return
    (program ~main:"main"
       [
         func "main" ~params:[ "p"; "q" ]
           ([
              assign "a" (var "p");
              assign "b" (var "q");
              assign "c" (prim "add" [ var "p"; var "q" ]);
              assign "d" (flt 1.);
              assign "va" (vec [| 1.; -2.; 0.5 |]);
              assign "vb" (prim "mul" [ var "q"; vec [| 2.; 0.; -1. |] ]);
            ]
           @ body
           @ [ return_ [ r1; prim "sum" [ var "va" ]; prim "sum" [ var "vb" ] ] ]);
       ])

let arb_vector_program = QCheck.make ~print:print_program gen_vector_program

let vector_runs_agree prog =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error msgs ->
    QCheck.Test.fail_reportf "invalid vector program: %s" (String.concat "; " msgs)
  | Ok () ->
    let compiled =
      Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ]
        prog
    in
    let z = 5 in
    let expected =
      List.init z (fun b ->
          Autobatch.run_single compiled ~member:b
            ~args:(List.map (fun t -> Tensor.slice_row t b) batch_inputs))
    in
    let check label outputs =
      List.iteri
        (fun b per_member ->
          List.iteri
            (fun i expect ->
              let got = Tensor.slice_row (List.nth outputs i) b in
              if not (Tensor.equal expect got) then
                QCheck.Test.fail_reportf "%s member %d output %d:\n%s" label b i
                  (print_program prog))
            per_member)
        expected
    in
    check "local" (Autobatch.run_local compiled ~batch:batch_inputs);
    check "local-gather"
      (Autobatch.run_local
         ~config:{ Local_vm.default_config with style = Local_vm.Gather_scatter }
         compiled ~batch:batch_inputs);
    check "pc" (Autobatch.run_pc compiled ~batch:batch_inputs);
    check "pc-optimized"
      (Autobatch.run_pc
         (Autobatch.compile ~registry:reg ~optimize:true
            ~input_shapes:[ Shape.scalar; Shape.scalar ] prog)
         ~batch:batch_inputs);
    true

let prop_vector_differential =
  QCheck.Test.make ~name:"vector programs: all engines agree" ~count:100
    arb_vector_program vector_runs_agree

(* Fusion differential: a compile with superblock fusion (DESIGN.md §S19)
   must stay bitwise equal to the reference interpreter on every engine —
   megablocks change scheduling, never values. The scalar generator's
   ifs, bounded loops and recursion exercise if-conversion, chain fusion,
   latch rotation and call-entry duplication. *)
let fused_runs_agree prog =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error msgs ->
    QCheck.Test.fail_reportf "generator produced invalid program: %s"
      (String.concat "; " msgs)
  | Ok () ->
    let input_shapes = [ Shape.scalar; Shape.scalar ] in
    let plain = Autobatch.compile ~registry:reg ~input_shapes prog in
    let fused =
      Autobatch.compile ~registry:reg ~fuse:Fuse.default_options ~input_shapes
        prog
    in
    let z = 5 in
    let expected =
      List.init z (fun b ->
          Autobatch.run_single plain ~member:b
            ~args:(List.map (fun t -> Tensor.slice_row t b) batch_inputs))
    in
    let check label outputs =
      List.iteri
        (fun b per_member ->
          List.iteri
            (fun i expect ->
              let got = Tensor.slice_row (List.nth outputs i) b in
              if not (Tensor.equal expect got) then
                QCheck.Test.fail_reportf
                  "%s disagrees with interpreter on member %d output %d:\n\
                   expected %s, got %s\nprogram:\n%s"
                  label b i (Tensor.to_string expect) (Tensor.to_string got)
                  (print_program prog))
            per_member)
        expected
    in
    check "fused pc" (Autobatch.run_pc fused ~batch:batch_inputs);
    check "fused local" (Autobatch.run_local fused ~batch:batch_inputs);
    check "fused shard"
      (Autobatch.run_sharded
         ~config:{ Shard_vm.default_config with mesh = Mesh.gpu_pod ~n:2 () }
         fused ~batch:batch_inputs)
        .Shard_vm.outputs;
    true

let prop_fused_differential =
  QCheck.Test.make ~name:"random programs: fused compile stays bitwise"
    ~count:120 arb_program fused_runs_agree

let prop_fused_vector_differential =
  QCheck.Test.make ~name:"vector programs: fused compile stays bitwise"
    ~count:80 arb_vector_program fused_runs_agree

(* Migration differential (DESIGN.md §S20): every runtime under every
   scheduling policy — plus the defragmenting Sched_vm under no-migration
   and aggressive migration plans, and the server as width-1 requests —
   must agree bitwise with the Earliest program-counter baseline.
   Sched_sweep.bitwise_matrix is the same matrix the bench sched gate
   scores. *)
let migration_runs_agree prog =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error msgs ->
    QCheck.Test.fail_reportf "generator produced invalid program: %s"
      (String.concat "; " msgs)
  | Ok () ->
    let compiled =
      Autobatch.compile ~registry:reg ~input_shapes:[ Shape.scalar; Shape.scalar ]
        prog
    in
    let checks = Sched_sweep.bitwise_matrix compiled ~batch:batch_inputs in
    (match Sched_sweep.failures checks with
    | [] -> true
    | bad ->
      QCheck.Test.fail_reportf "migration matrix bitwise failures: %s\nprogram:\n%s"
        (String.concat ", "
           (List.map
              (fun (c : Sched_sweep.check) ->
                Printf.sprintf "%s/%s/%s" c.Sched_sweep.c_runtime c.c_policy
                  c.c_plan)
              bad))
        (print_program prog))

let prop_migration_differential =
  QCheck.Test.make ~name:"random programs: migration matrix stays bitwise"
    ~count:40 arb_program migration_runs_agree

let prop_migration_vector_differential =
  QCheck.Test.make ~name:"vector programs: migration matrix stays bitwise"
    ~count:30 arb_vector_program migration_runs_agree

(* Active-row differential: a copy of the standard registry whose every
   primitive claims huge flops, with the same [batched]/[single], makes
   the program-counter VM gather every primitive op on every masked
   superstep. Its outputs must equal the plain registry's [run_pc] and
   the reference interpreter bitwise — and stay so under every policy,
   under Sched_vm with and without migration, and on a one-shard
   Tenant_server (the matrix compares each against the gathered pc
   baseline). *)
let inflated_registry reg =
  let out = Prim.copy reg in
  List.iter
    (fun name ->
      let p = Prim.find_exn reg name in
      Prim.register out { p with Prim.flops = (fun ss -> 1e9 +. p.Prim.flops ss) })
    (Prim.names reg);
  out

let gathered_runs_agree prog =
  let reg = Prim.standard () in
  match Validate.check_program reg prog with
  | Error msgs ->
    QCheck.Test.fail_reportf "generator produced invalid program: %s"
      (String.concat "; " msgs)
  | Ok () ->
    let input_shapes = [ Shape.scalar; Shape.scalar ] in
    let plain = Autobatch.compile ~registry:reg ~input_shapes prog in
    let gathered =
      Autobatch.compile ~registry:(inflated_registry reg) ~input_shapes prog
    in
    let reference =
      List.init 5 (fun b ->
          Autobatch.run_single plain ~member:b
            ~args:(List.map (fun t -> Tensor.slice_row t b) batch_inputs))
    in
    let baseline = Autobatch.run_pc plain ~batch:batch_inputs in
    let got = Autobatch.run_pc gathered ~batch:batch_inputs in
    let check label outputs =
      List.iteri
        (fun b per_member ->
          List.iteri
            (fun i expect ->
              if not (Tensor.equal expect (Tensor.slice_row (List.nth outputs i) b)) then
                QCheck.Test.fail_reportf
                  "%s disagrees with interpreter on member %d output %d\nprogram:\n%s"
                  label b i (print_program prog))
            per_member)
        reference
    in
    check "gathered pc" got;
    (* Without temporaries, primitive results land in masked and stacked
       storage too, not only in registers. *)
    check "gathered pc, no stack optimizations"
      (Autobatch.run_pc
         (Autobatch.compile ~registry:(inflated_registry reg)
            ~options:{ Lower_stack.detect_temporaries = false; save_live_only = false }
            ~input_shapes prog)
         ~batch:batch_inputs);
    if not (List.for_all2 Tensor.equal baseline got) then
      QCheck.Test.fail_reportf "gathered pc disagrees with plain pc\nprogram:\n%s"
        (print_program prog);
    (match Sched_sweep.failures (Sched_sweep.bitwise_matrix gathered ~batch:batch_inputs) with
    | [] -> true
    | bad ->
      QCheck.Test.fail_reportf "gathered matrix bitwise failures: %s\nprogram:\n%s"
        (String.concat ", "
           (List.map
              (fun (c : Sched_sweep.check) ->
                Printf.sprintf "%s/%s/%s" c.Sched_sweep.c_runtime c.c_policy c.c_plan)
              bad))
        (print_program prog))

let prop_gathered_differential =
  QCheck.Test.make ~name:"random programs: active-row execution stays bitwise"
    ~count:40 arb_program gathered_runs_agree

let prop_gathered_vector_differential =
  QCheck.Test.make ~name:"vector programs: active-row execution stays bitwise"
    ~count:30 arb_vector_program gathered_runs_agree

let suites =
  [
    ( "random-programs",
      [
        QCheck_alcotest.to_alcotest prop_differential;
        QCheck_alcotest.to_alcotest prop_vector_differential;
        QCheck_alcotest.to_alcotest prop_fused_differential;
        QCheck_alcotest.to_alcotest prop_fused_vector_differential;
        QCheck_alcotest.to_alcotest prop_migration_differential;
        QCheck_alcotest.to_alcotest prop_migration_vector_differential;
        QCheck_alcotest.to_alcotest prop_gathered_differential;
        QCheck_alcotest.to_alcotest prop_gathered_vector_differential;
      ] );
  ]
