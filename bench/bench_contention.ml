(* Cache-line contention microbenchmark for the native backend's shared
   state (satellite of the hot-path overhaul): quantifies exactly the two
   effects the data plane was rebuilt around.

     1. false sharing — two domains hammering adjacent [Atomic.t] cells in
        one array versus two [Pad.atomic] cells on their own lines.  On a
        real multicore the padded variant wins by an order of magnitude; on
        a single core both degenerate to the same uncontended cost (the
        printout says which situation was measured).

     2. publish batching — streaming N words through an {!Xinv_native.Spsc}
        ring with per-word [push]/[pop] (two seq_cst stores per word) versus
        [Batch]/[pop_chunk] (one store per burst).

     3. barrier round trip ([nbar.round_trip]) — two domains of a
        {!Xinv_native.Pool} run cross one {!Xinv_native.Nbar} N times with
        no work in between: the per-episode cost of a wait, which the
        {!Xinv_native.Backoff} policy sets.

   Modes:
     bench_contention           full measurement, table on stdout
     bench_contention --smoke   tiny iteration counts, correctness only
                                (runtest alias: exercises both code paths) *)

module Nat = Xinv_native

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* -------- false sharing: adjacent vs padded atomic increments -------- *)

let bump_loop (a : int Atomic.t) iters =
  for _ = 1 to iters do
    Atomic.incr a
  done

let two_domains f0 f1 =
  let d = Domain.spawn f1 in
  f0 ();
  Domain.join d

let adjacent_ns iters =
  (* one flat array: cells 0 and 1 share a cache line by construction *)
  let cells = Array.init 8 (fun _ -> Atomic.make 0) in
  let ns =
    time (fun () ->
        two_domains
          (fun () -> bump_loop cells.(0) iters)
          (fun () -> bump_loop cells.(1) iters))
  in
  assert (Atomic.get cells.(0) = iters && Atomic.get cells.(1) = iters);
  ns

let padded_ns iters =
  let cells = Nat.Pad.atomic_array 2 0 in
  let ns =
    time (fun () ->
        two_domains
          (fun () -> bump_loop cells.(0) iters)
          (fun () -> bump_loop cells.(1) iters))
  in
  assert (Atomic.get cells.(0) = iters && Atomic.get cells.(1) = iters);
  ns

(* -------- ring throughput: per-word vs batched publish -------- *)

let consume_sum q words =
  let sum = ref 0 in
  for _ = 1 to words do
    sum := !sum + Nat.Spsc.pop q
  done;
  !sum

let spsc_per_word_ns words =
  let q = Nat.Spsc.create ~dummy:0 ~capacity:1024 in
  let sum = ref 0 in
  let ns =
    time (fun () ->
        two_domains
          (fun () ->
            for w = 1 to words do
              Nat.Spsc.push q w
            done)
          (fun () -> sum := consume_sum q words))
  in
  assert (!sum = words * (words + 1) / 2);
  ns

let spsc_batched_ns words =
  let q = Nat.Spsc.create ~dummy:0 ~capacity:1024 in
  let sum = ref 0 in
  let ns =
    time (fun () ->
        two_domains
          (fun () ->
            let b = Nat.Spsc.Batch.create ~size:64 q in
            for w = 1 to words do
              Nat.Spsc.Batch.push b w
            done;
            Nat.Spsc.Batch.flush b)
          (fun () ->
            let buf = Array.make 64 0 in
            let got = ref 0 and sum' = ref 0 in
            while !got < words do
              let n = Nat.Spsc.pop_chunk q buf ~pos:0 ~len:64 in
              if n = 0 then Domain.cpu_relax ()
              else begin
                for i = 0 to n - 1 do
                  sum' := !sum' + buf.(i)
                done;
                got := !got + n
              end
            done;
            sum := !sum'))
  in
  assert (!sum = words * (words + 1) / 2);
  ns

(* -------- barrier round trip: what one episode costs -------- *)

(* Through [Pool.run], as the engines do, so the active-domain count that
   guards Backoff's long spin sees both parties. *)
let nbar_round_trip_ns pool episodes =
  let bar = Nat.Nbar.create ~parties:2 in
  let cross () =
    for _ = 1 to episodes do
      Nat.Nbar.wait bar
    done
  in
  let ns = time (fun () -> Nat.Pool.run pool [| cross; cross |]) in
  assert (Nat.Nbar.waits bar = episodes);
  ns /. float_of_int episodes

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let () =
  let smoke = Array.mem "--smoke" Sys.argv in
  let iters = if smoke then 10_000 else 2_000_000 in
  let words = if smoke then 10_000 else 2_000_000 in
  let cores = Domain.recommended_domain_count () in
  let adj = adjacent_ns iters and pad = padded_ns iters in
  let pw = spsc_per_word_ns words and ba = spsc_batched_ns words in
  let episodes = if smoke then 1_000 else 20_000 and repeats = if smoke then 1 else 5 in
  let trips =
    Nat.Pool.with_pool ~workers:1 (fun pool ->
        ignore (nbar_round_trip_ns pool episodes) (* warm-up *);
        List.init repeats (fun _ -> nbar_round_trip_ns pool episodes))
  in
  if smoke then
    Printf.printf "bench contention smoke: ok (%d cores)\n" cores
  else begin
    Printf.printf "contention (%d cores, 2 domains, %d ops/side)\n" cores iters;
    Printf.printf "  atomic incr, adjacent cells   %7.2f ns/op\n"
      (adj /. float_of_int iters);
    Printf.printf "  atomic incr, padded cells     %7.2f ns/op  (%.2fx)\n"
      (pad /. float_of_int iters) (adj /. pad);
    if cores < 2 then
      print_string "  (single core: both variants uncontended, ratio ~1x expected)\n";
    Printf.printf "spsc throughput (%d words)\n" words;
    Printf.printf "  per-word push/pop             %7.2f ns/word\n"
      (pw /. float_of_int words);
    Printf.printf "  batched push/pop_chunk        %7.2f ns/word  (%.2fx)\n"
      (ba /. float_of_int words) (pw /. ba);
    Printf.printf "nbar.round_trip (%d cores, 2 domains, %d episodes, 1 warm-up + %d repeats)\n"
      cores episodes repeats;
    Printf.printf "  ns/episode median %.0f  min %.0f  max %.0f\n" (median trips)
      (List.fold_left Float.min infinity trips)
      (List.fold_left Float.max 0. trips)
  end
