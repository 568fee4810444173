(* The benchmark's own tests: statistics, seeded mixes, the sweep digest
   check, tracing that changes nothing but the spans, and the metric
   lists' consistency. *)

open Perfbench

let close a b = Float.abs (a -. b) < 1e-9

let test_quantile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 1e-12)) "median" 3. (Pstats.median xs);
  Alcotest.(check (float 1e-12)) "p90 interpolates" 4.6 (Pstats.quantile xs 0.9);
  Alcotest.(check (float 1e-12)) "p0 is min" 1. (Pstats.quantile xs 0.);
  Alcotest.(check (float 1e-12)) "p100 is max" 5. (Pstats.quantile xs 1.);
  Alcotest.(check (float 1e-12)) "p25 between ranks" 1.5 (Pstats.quantile [ 3.; 1.; 2. ] 0.25);
  Alcotest.(check (float 1e-12)) "single sample" 7. (Pstats.quantile [ 7. ] 0.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pstats.quantile [] 0.5));
  Alcotest.(check (float 1e-12)) "geomean" 4. (Pstats.geomean [ 2.; 8. ])

let names g n = List.init n (fun _ -> Jobs.item_name (Jobs.next g))

let test_mix_seeded () =
  let mk seed = Jobs.gen ~stats_share:0.125 ~seed ~stream:0 Jobs.serve_classes in
  Alcotest.(check (list string)) "same seed, same mix" (names (mk 7) 300) (names (mk 7) 300);
  Alcotest.(check bool) "another seed, another mix" false (names (mk 7) 300 = names (mk 8) 300);
  let other = Jobs.gen ~stats_share:0.125 ~seed:7 ~stream:1 Jobs.serve_classes in
  Alcotest.(check bool) "clients get distinct streams" false (names (mk 7) 300 = names other 300);
  let all = names (mk 3) 8000 in
  let stats = List.length (List.filter (( = ) "stats") all) in
  let share = float_of_int stats /. 8000. in
  Alcotest.(check bool) (Printf.sprintf "Stats share %.3f near 1/8" share) true
    (share > 0.11 && share < 0.14);
  (* Every round deals every class exactly once. *)
  let g = Jobs.gen ~seed:11 ~stream:0 Jobs.native_classes in
  let n = List.length Jobs.native_classes in
  for _ = 1 to 3 do
    let round = List.sort compare (names g n) in
    Alcotest.(check (list string)) "round covers each class once"
      (List.sort compare (List.map Jobs.cls_name Jobs.native_classes))
      round
  done

let test_digest () =
  let text = (Xinv_experiments.Experiments.find "tab5.3").Xinv_experiments.Experiments.render () in
  Alcotest.(check bool) "rendered artifact matches its recorded digest" true
    (Jobs.check_digest "tab5.3" text = Ok ());
  let altered = Bytes.of_string text in
  let i = String.index text '0' in
  Bytes.set altered i '1';
  Alcotest.(check bool) "one altered character fails the check" true
    (Result.is_error (Jobs.check_digest "tab5.3" (Bytes.to_string altered)));
  Alcotest.(check bool) "unknown artifact fails" true
    (Result.is_error (Jobs.check_digest "fig9.9" text))

let test_traced_equals_untraced () =
  let classes =
    List.filter
      (fun (c : Jobs.cls) -> List.mem c.Jobs.wl.Xinv_workloads.Workload.name [ "CG"; "ECLAT" ])
      Jobs.serve_classes
  in
  let env, warm = Bench.warm_native ~work:Xinv_native.Work.Off "test" classes in
  Fun.protect ~finally:(fun () -> Bench.drop_native_env env) (fun () ->
      Alcotest.(check bool) "warm-up verified" true (List.for_all snd warm);
      let view (r : Loops.result) =
        List.map
          (fun (s : Loops.sample) ->
            Printf.sprintf "%s ok=%b ran=%s hits=%d misses=%d" s.Loops.item s.Loops.ok
              s.Loops.executed s.Loops.hits s.Loops.misses)
          r.Loops.samples
      in
      let run tr = Loops.native_loop ~tr ~env ~seed:5 ~classes ~until:(Loops.Count 12) () in
      let plain = run Trace.off in
      let tr = Trace.create ~on:true in
      let traced = run tr in
      Alcotest.(check (list string)) "same jobs, same outcomes" (view plain) (view traced);
      Alcotest.(check int) "untraced recorder holds nothing" 0 (Trace.count Trace.off);
      Alcotest.(check int) "one span per request" 12 (Trace.count tr);
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check bool) "span carries its request id" true (s.Trace.req > 0))
        (Trace.spans tr))

let test_self_time () =
  let tr = Trace.create ~on:true in
  Trace.span tr "outer" (fun parent ->
      Trace.span tr ~parent "inner" (fun _ -> Unix.sleepf 0.002);
      Unix.sleepf 0.001);
  match Trace.self_times tr with
  | [ (inner, si); (outer, so) ] ->
      Alcotest.(check string) "child first" "inner" inner.Trace.name;
      Alcotest.(check bool) "leaf self = duration" true (close si (inner.Trace.t1 -. inner.Trace.t0));
      Alcotest.(check bool) "parent self = duration - child" true
        (close so (outer.Trace.t1 -. outer.Trace.t0 -. (inner.Trace.t1 -. inner.Trace.t0)))
  | _ -> Alcotest.fail "expected two spans"

let valid_name n =
  String.length n <= 64
  && String.for_all
       (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let test_metric_lists () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  let names = List.map (fun m -> m.Metrics.name) all in
  Alcotest.(check int) "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) names;
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Metrics.per_layer <= 128);
  List.iter
    (fun m ->
      Alcotest.(check bool) ("prediction for " ^ m.Metrics.name) true
        (Metrics.prediction_of m.Metrics.name <> None))
    Metrics.per_layer;
  List.iter
    (fun pr ->
      List.iter
        (fun mv ->
          Alcotest.(check bool) ("prediction names an end-to-end metric: " ^ mv) true
            (List.exists (fun m -> m.Metrics.name = mv) Metrics.end_to_end))
        pr.Metrics.moves)
    Metrics.layer_map

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "quantile on known samples" `Quick test_quantile;
          Alcotest.test_case "same seed, same request mix" `Quick test_mix_seeded;
          Alcotest.test_case "altered figure text fails the digest" `Quick test_digest;
          Alcotest.test_case "traced run differs only by spans" `Quick test_traced_equals_untraced;
          Alcotest.test_case "self time excludes children" `Quick test_self_time;
          Alcotest.test_case "metric lists are consistent" `Quick test_metric_lists ] ) ]
