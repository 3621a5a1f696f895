(* Host clock and the reference-time unit.

   Raw wall-clock medians on a shared VM drift between processes (host
   frequency scaling, noisy neighbours). Every host-time metric is
   therefore reported in reference time: a fixed pure-OCaml loop runs
   between measurements, each measurement is divided by the loop's
   duration measured around it, and multiplied by [reference_s], the
   loop's duration on the machine the baseline was taken on. A host that is
   uniformly 20% slower slows the loop and the workload alike, so the
   ratio stays put. The loop calls no library code, so no change to the
   program under test can move it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Median duration of [spin ()] on the 2-core x86-64 container the
   baseline was taken on (OCaml 5.1.1, native code). *)
let reference_s = 1.25e-3

let table = Array.make 1024 0
let result = ref 0.

(* Two halves, because host slowdowns hit compute and memory traffic
   unequally: a dependent walk over a small table with integer hashing
   and float accumulation, then a stream of freshly allocated 64-float
   arrays, the way the runtimes allocate tensors. Measured against the
   workloads in fast and slow host periods, the sum tracked them better
   than either half alone. *)
let spin () =
  let x = ref 0x2545F491 and acc = ref 0. in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = (!x lxor table.(!x land 1023)) land 1023 in
    table.(j) <- table.(j) + i;
    acc := !acc +. (float_of_int (table.(j) land 0xFF) *. 0.5)
  done;
  let v = ref (Array.make 64 1.0) in
  for i = 1 to 6_000 do
    let a = !v and b = Array.make 64 0. in
    for j = 0 to 63 do
      b.(j) <- (a.(j) *. 0.999) +. float_of_int (i land 7)
    done;
    v := b;
    acc := !acc +. b.(i land 63)
  done;
  result := !acc

let measure () =
  let t0 = now () in
  spin ();
  now () -. t0

(* [run f] times [f] right after a calibration measurement; returns
   [(raw seconds, calibration seconds, f's result)]. *)
let run f =
  let calib = measure () in
  let t0 = now () in
  let r = f () in
  (now () -. t0, calib, r)

(* Host speed changes from one run to the next, so each run is
   normalized by the mean of the calibrations taken just before and just
   after it: [calibs] holds one more measurement than [raws], the last
   taken after the last run. *)
let normalize raws calibs =
  Array.mapi (fun i raw -> raw /. ((calibs.(i) +. calibs.(i + 1)) /. 2.) *. reference_s) raws
