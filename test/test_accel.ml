(* Tests for the simulated accelerator engine: the cost arithmetic is the
   basis of the Figure 5 reproduction, so check it exactly. *)

let t = Alcotest.test_case
let check_f = Alcotest.(check (float 1e-15))

let tiny_device =
  {
    Device.name = "tiny";
    kernel_launch_overhead = 1.;
    fused_launch_overhead = 10.;
    host_op_overhead = 0.5;
    flops_per_sec = 100.;
    bytes_per_sec = 50.;
    fused_flops_multiplier = 2.;
  }

let test_eager_block_cost () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Eager () in
  Engine.charge_block e ~ops:[ ("a", 200.); ("b", 100.) ] ~control_ops:2 ~traffic_bytes:100.;
  (* 4 launches × (1 + 0.5) + 300/100 + 100/50 = 6 + 3 + 2 = 11 *)
  check_f "eager time" 11. (Engine.elapsed e);
  let c = (Engine.snapshot e).Engine.at in
  Alcotest.(check int) "kernels" 4 c.Engine.Counters.kernel_launches;
  Alcotest.(check int) "host ops" 4 c.Engine.Counters.host_ops;
  Alcotest.(check int) "blocks" 1 c.Engine.Counters.blocks;
  check_f "flops" 300. c.Engine.Counters.flops;
  check_f "traffic" 100. c.Engine.Counters.traffic_bytes

let test_fused_block_cost () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Fused () in
  Engine.charge_block e ~ops:[ ("a", 200.); ("b", 100.) ] ~control_ops:5 ~traffic_bytes:100.;
  (* 10 + 300/(100×2) + 2 = 13.5; control free inside fusion. *)
  check_f "fused time" 13.5 (Engine.elapsed e);
  Alcotest.(check int) "one fused launch" 1 ((Engine.snapshot e).Engine.at).Engine.Counters.fused_launches;
  Alcotest.(check int) "no eager kernels" 0 ((Engine.snapshot e).Engine.at).Engine.Counters.kernel_launches

let test_hybrid_block_cost () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Hybrid () in
  Engine.charge_block e ~ops:[ ("a", 200.) ] ~control_ops:2 ~traffic_bytes:0.;
  (* 10 + 2×(1+0.5) + 200/200 = 14 *)
  check_f "hybrid time" 14. (Engine.elapsed e);
  Alcotest.(check int) "fused" 1 ((Engine.snapshot e).Engine.at).Engine.Counters.fused_launches;
  Alcotest.(check int) "control kernels" 2 ((Engine.snapshot e).Engine.at).Engine.Counters.kernel_launches

let test_kernel_and_call () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Eager () in
  Engine.charge_kernel e ~name:"k" ~flops:100.;
  (* 1 + 0.5 + 1 = 2.5 *)
  check_f "kernel time" 2.5 (Engine.elapsed e);
  Engine.charge_host_call e;
  (* + 4 × 0.5 *)
  check_f "host call time" 4.5 (Engine.elapsed e);
  Alcotest.(check int) "host calls" 1 ((Engine.snapshot e).Engine.at).Engine.Counters.host_calls

let test_traffic_and_reset () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Fused () in
  Engine.charge_traffic e ~bytes:25.;
  check_f "traffic time" 0.5 (Engine.elapsed e);
  Engine.reset e;
  check_f "reset time" 0. (Engine.elapsed e);
  Alcotest.(check int) "reset counters" 0 ((Engine.snapshot e).Engine.at).Engine.Counters.blocks

let test_tally () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Eager () in
  Engine.charge_block e ~ops:[ ("grad", 1.); ("grad", 1.); ("add", 1.) ] ~control_ops:0
    ~traffic_bytes:0.;
  Engine.charge_kernel e ~name:"grad" ~flops:1.;
  Alcotest.(check (list (pair string int))) "tally sorted by name"
    [ ("add", 1); ("grad", 3) ] (Engine.snapshot e).Engine.ops

let test_device_presets () =
  List.iter
    (fun (d : Device.t) ->
      Alcotest.(check bool) (d.Device.name ^ " overheads nonneg") true
        (d.Device.kernel_launch_overhead >= 0.
        && d.Device.fused_launch_overhead >= 0.
        && d.Device.host_op_overhead >= 0.);
      Alcotest.(check bool) (d.Device.name ^ " throughput positive") true
        (d.Device.flops_per_sec > 0. && d.Device.bytes_per_sec > 0.
       && d.Device.fused_flops_multiplier >= 1.))
    [ Device.gpu; Device.cpu; Device.stan_cpu ];
  Alcotest.(check bool) "gpu out-throughputs cpu" true
    (Device.gpu.Device.flops_per_sec > Device.cpu.Device.flops_per_sec);
  Alcotest.(check bool) "stan has zero overhead" true
    (Device.stan_cpu.Device.kernel_launch_overhead = 0.)

let prop_time_monotone =
  QCheck.Test.make ~name:"engine time is monotone in work" ~count:100
    (QCheck.pair QCheck.(float_range 0. 1e6) QCheck.(float_range 0. 1e6))
    (fun (f1, f2) ->
      let time_for f =
        let e = Engine.create ~device:tiny_device ~mode:Engine.Fused () in
        Engine.charge_block e ~ops:[ ("x", f) ] ~control_ops:1 ~traffic_bytes:0.;
        Engine.elapsed e
      in
      (f1 <= f2) = (time_for f1 <= time_for f2) || time_for f1 = time_for f2)

(* The interned tally against a model with the semantics the tally had
   as a name-keyed hash table: a bump adds one to the name's count (from 0
   when absent), [reset] empties it, [restore] empties it and writes each
   entry (the last duplicate wins), [merge] adds each entry (an absent name
   starts at 0), and a readout lists every entry by name. A name a restore
   or merge wrote stays in the readout even at count zero. *)
module Model = struct
  let bump m name =
    (name, 1 + Option.value ~default:0 (List.assoc_opt name m)) :: List.remove_assoc name m

  let restore ops =
    List.fold_left (fun m (name, n) -> (name, n) :: List.remove_assoc name m) [] ops

  let merge m ops =
    List.fold_left
      (fun m (name, n) ->
        (name, n + Option.value ~default:0 (List.assoc_opt name m)) :: List.remove_assoc name m)
      m ops

  let readout m = List.sort (fun (a, _) (b, _) -> compare a b) m
end

type tally_op =
  | Block of string list * int
  | Priced of int
  | Kernel of string
  | Reset
  | Restore of (string * int) list
  | Merge of (string * int) list

let op_names = [| "a"; "add"; "b"; "grad"; "mov"; "const" |]

(* Blocks the [Priced] steps charge through handles priced up front, so a
   handle outlives every reset/restore/merge that follows it. *)
let priced_blocks = [| [ "grad"; "add"; "grad" ]; [ "mov" ]; []; [ "b"; "const" ] |]

let gen_tally_op =
  let open QCheck.Gen in
  let name = map (fun i -> op_names.(i)) (int_bound (Array.length op_names - 1)) in
  let entries = list_size (int_bound 4) (pair name (int_bound 3)) in
  frequency
    [
      (4, map2 (fun ops c -> Block (ops, c)) (list_size (int_bound 4) name) (int_bound 3));
      (4, map (fun i -> Priced i) (int_bound (Array.length priced_blocks - 1)));
      (2, map (fun n -> Kernel n) name);
      (1, return Reset);
      (1, map (fun e -> Restore e) entries);
      (1, map (fun e -> Merge e) entries);
    ]

let show_entries e =
  "[" ^ String.concat ";" (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) e) ^ "]"

let show_tally_op = function
  | Block (ops, c) -> Printf.sprintf "block[%s]/%d" (String.concat "," ops) c
  | Priced i -> Printf.sprintf "priced#%d" i
  | Kernel n -> "kernel " ^ n
  | Reset -> "reset"
  | Restore e -> "restore" ^ show_entries e
  | Merge e -> "merge" ^ show_entries e

let encode snap =
  let b = Buffer.create 64 in
  Snapshot.w_engine b snap;
  Buffer.contents b

(* Runs the steps on two engines and reads both out after every step: [e]
   charges the [Priced] steps through its handles and [twin] charges the
   same blocks with [charge_block], so beyond the model the two must read
   out bitwise-equal snapshots. *)
let prop_tally_model =
  QCheck.Test.make ~name:"interned tally matches the name-keyed model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_tally_op ops))
       QCheck.Gen.(list_size (int_bound 40) gen_tally_op))
    (fun steps ->
      let e = Engine.create ~device:Device.gpu ~mode:Engine.Hybrid () in
      let twin = Engine.create ~device:Device.gpu ~mode:Engine.Hybrid () in
      let flops_of = List.mapi (fun i n -> (n, float_of_int (i + 1) *. 1.5e3)) in
      let handles =
        Array.map
          (fun ops ->
            let ops = flops_of ops in
            Engine.price e ~ops:(List.map fst ops)
              ~flops:(List.fold_left (fun acc (_, f) -> acc +. f) 0. ops)
              ~control_ops:2 ~traffic_bytes:96.)
          priced_blocks
      in
      let both f = f e; f twin in
      let snap_at blocks = { Engine.Counters.zero with blocks; elapsed_seconds = 0.25 } in
      let model = ref [] in
      let agree () =
        let s = Engine.snapshot e in
        let expected = Model.readout !model in
        if s.Engine.ops <> expected then
          QCheck.Test.fail_reportf "tally %s, model %s" (show_entries s.Engine.ops)
            (show_entries expected);
        if encode s <> encode { s with Engine.ops = expected } then
          QCheck.Test.fail_report "snapshot encodes differently from the model's";
        if Engine.snapshot twin <> s then
          QCheck.Test.fail_report "priced and per-call charging diverged"
      in
      List.iter
        (fun step ->
          (match step with
          | Block (ops, control_ops) ->
            both (fun e ->
                Engine.charge_block e ~ops:(flops_of ops) ~control_ops ~traffic_bytes:32.);
            model := List.fold_left Model.bump !model ops
          | Priced i ->
            Engine.charge_priced e handles.(i);
            Engine.charge_block twin ~ops:(flops_of priced_blocks.(i)) ~control_ops:2
              ~traffic_bytes:96.;
            model := List.fold_left Model.bump !model priced_blocks.(i)
          | Kernel name ->
            both (fun e -> Engine.charge_kernel e ~name ~flops:7.);
            model := Model.bump !model name
          | Reset ->
            both Engine.reset;
            model := []
          | Restore ops ->
            both (fun e -> Engine.restore e { Engine.at = snap_at 3; ops });
            model := Model.restore ops
          | Merge ops ->
            both (fun e -> Engine.merge ~into:e { Engine.at = snap_at 1; ops });
            model := Model.merge !model ops);
          agree ())
        steps;
      true)

let test_zero_counts_kept () =
  let e = Engine.create ~device:tiny_device ~mode:Engine.Fused () in
  Engine.restore e { Engine.at = Engine.Counters.zero; ops = [ ("b", 0) ] };
  Engine.merge ~into:e { Engine.at = Engine.Counters.zero; ops = [ ("a", 0) ] };
  Alcotest.(check (list (pair string int))) "zero entries survive"
    [ ("a", 0); ("b", 0) ] (Engine.snapshot e).Engine.ops;
  Engine.reset e;
  Alcotest.(check (list (pair string int))) "reset drops them" [] (Engine.snapshot e).Engine.ops

(* Everything a charge makes visible: counters, clock bits and events. *)
let charged mode charge =
  let e = Engine.create ~device:Device.gpu ~mode () in
  let events = ref [] in
  Engine.set_sink e (fun ev -> events := ev :: !events);
  charge e;
  ( (Engine.snapshot e).Engine.at,
    Int64.bits_of_float (Engine.elapsed e),
    (Engine.snapshot e).Engine.ops,
    List.rev !events )

(* The simulated clock after [blocks], by the per-call pricing formula
   term for term, so a handle's precomputed terms must add up bitwise. *)
let reference_clock mode (d : Device.t) blocks =
  List.fold_left
    (fun time (ops, control_ops, traffic_bytes) ->
      let flops = List.fold_left (fun acc (_, f) -> acc +. f) 0. ops in
      let per_kernel = d.Device.kernel_launch_overhead +. d.Device.host_op_overhead in
      let fused = flops /. (d.Device.flops_per_sec *. d.Device.fused_flops_multiplier) in
      let traffic = traffic_bytes /. d.Device.bytes_per_sec in
      match mode with
      | Engine.Eager ->
        time
        +. (float_of_int (List.length ops + control_ops) *. per_kernel)
        +. (flops /. d.Device.flops_per_sec) +. traffic
      | Engine.Fused -> time +. d.Device.fused_launch_overhead +. fused +. traffic
      | Engine.Hybrid ->
        time +. d.Device.fused_launch_overhead
        +. (float_of_int control_ops *. per_kernel)
        +. fused +. traffic)
    0. blocks

let prop_priced_equivalence =
  let gen_block =
    QCheck.Gen.(
      triple
        (list_size (int_bound 6) (pair (map (fun i -> op_names.(i)) (int_bound 5)) (float_range 0. 1e7)))
        (int_bound 5) (float_range 0. 1e6))
  in
  QCheck.Test.make ~name:"charge_priced equals charge_block in every mode" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) gen_block))
    (fun blocks ->
      List.for_all
        (fun mode ->
          let per_call e =
            List.iter
              (fun (ops, control_ops, traffic_bytes) ->
                Engine.charge_block e ~ops ~control_ops ~traffic_bytes)
              blocks
          in
          let priced e =
            (* Priced once up front, then charged twice, as a VM reuses it. *)
            let handles =
              List.map
                (fun (ops, control_ops, traffic_bytes) ->
                  Engine.price e ~ops:(List.map fst ops)
                    ~flops:(List.fold_left (fun acc (_, f) -> acc +. f) 0. ops)
                    ~control_ops ~traffic_bytes)
                blocks
            in
            List.iter (Engine.charge_priced e) handles;
            List.iter (Engine.charge_priced e) handles
          in
          let ((_, bits, _, _) as expected) = charged mode (fun e -> per_call e; per_call e) in
          bits = Int64.bits_of_float (reference_clock mode Device.gpu (blocks @ blocks))
          && expected = charged mode priced)
        [ Engine.Eager; Engine.Fused; Engine.Hybrid ])

let test_priced_on_other_engine () =
  let e1 = Engine.create ~device:tiny_device ~mode:Engine.Eager () in
  let e2 = Engine.create ~device:tiny_device ~mode:Engine.Eager () in
  let p = Engine.price e1 ~ops:[ "a" ] ~flops:1. ~control_ops:0 ~traffic_bytes:0. in
  Alcotest.check_raises "handle from another engine"
    (Invalid_argument "Engine.charge_priced: priced by another engine")
    (fun () -> Engine.charge_priced e2 p);
  check_f "other engine untouched" 0. (Engine.elapsed e2);
  Engine.reset e1;
  Engine.restore e1 { Engine.at = Engine.Counters.zero; ops = [ ("z", 2) ] };
  Engine.charge_priced e1 p;
  Alcotest.(check (list (pair string int))) "handle outlives reset and restore"
    [ ("a", 1); ("z", 2) ] (Engine.snapshot e1).Engine.ops

let suites =
  [
    ( "accel",
      [
        t "eager block cost" `Quick test_eager_block_cost;
        t "fused block cost" `Quick test_fused_block_cost;
        t "hybrid block cost" `Quick test_hybrid_block_cost;
        t "kernel and host call" `Quick test_kernel_and_call;
        t "traffic and reset" `Quick test_traffic_and_reset;
        t "per-op tally" `Quick test_tally;
        t "device presets" `Quick test_device_presets;
        QCheck_alcotest.to_alcotest prop_time_monotone;
        QCheck_alcotest.to_alcotest prop_tally_model;
        t "zero counts kept until reset" `Quick test_zero_counts_kept;
        QCheck_alcotest.to_alcotest prop_priced_equivalence;
        t "priced handle is bound to its engine" `Quick test_priced_on_other_engine;
      ] );
  ]
