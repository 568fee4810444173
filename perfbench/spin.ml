(* The spin work model of native_spin: the library's calibrated spin at
   1 ns per modeled cycle, the rate bench_native uses.

   [Work.calibrated_spin] times the machine once, when the process first
   spins, so the real cost of a modeled cycle differs from run to run by
   as much as that one timing is off.  [burn_rate] measures it, so that a
   calibration that drifts is not read as an engine change. *)

module Work = Xinv_native.Work

let ns_per_cycle = 1.0

let work () = Work.calibrated_spin ~ns_per_cycle

let note () = Printf.sprintf "calibrated spin, %.1f ns per modeled cycle" ns_per_cycle

(* What a modeled cycle of [work ()] really costs now, in nanoseconds. *)
let burn_rate () =
  let w = work () and cycles = 2e6 in
  let one () =
    let a = Trace.now () in
    Work.burn w cycles;
    (Trace.now () -. a) *. 1e9 /. cycles
  in
  Pstats.median (List.init 5 (fun _ -> one ()))
