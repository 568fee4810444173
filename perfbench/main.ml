(* perfbench: the repository benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1 --daemon EXE [--rev R]

   Prints a human report (one line per metric, by name, with unit and
   sample count) and, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
   output was incorrect.  --spec prints perfbench/spec.json instead. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_small|native_spin --seed N \
     --seconds S --trace 0|1 --daemon PATH/crossinv.exe [--rev REV] | --spec";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--spec" args then begin
    print_string (Perfbench.Metrics.spec_json ());
    exit 0
  end;
  let rec get k = function
    | k' :: v :: _ when k = k' -> Some v
    | _ :: rest -> get k rest
    | [] -> None
  in
  let req k = match get k args with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (req k) with Some n -> n | None -> usage () in
  let opts =
    { Perfbench.Bench.workload = req "--workload";
      seed = int_arg "--seed";
      seconds = float_of_int (int_arg "--seconds");
      trace = (match req "--trace" with "0" -> false | "1" -> true | _ -> usage ());
      daemon = req "--daemon" }
  in
  if not (List.mem opts.workload Perfbench.Bench.workloads) then usage ();
  Perfbench.Proc.mkdir_p Perfbench.Proc.root;
  let line k v = Printf.printf "%-34s %s\n%!" k v in
  line "workload" opts.workload;
  line "seed" (string_of_int opts.seed);
  line "seconds" (Printf.sprintf "%g" opts.seconds);
  line "trace" (if opts.trace then "1" else "0");
  line "nproc" (string_of_int (Domain.recommended_domain_count ()));
  line "rev" (Option.value ~default:"unknown" (get "--rev" args));
  let r = Perfbench.Bench.run opts in
  List.iter (fun (k, v) -> line k v) r.Perfbench.Bench.notes;
  List.iter
    (fun ((m : Perfbench.Metrics.metric), v, n) ->
      line m.Perfbench.Metrics.name (Printf.sprintf "%.6g %s  (n=%d)" v m.Perfbench.Metrics.unit_ n))
    r.Perfbench.Bench.metrics;
  line "failed_ratio"
    (Printf.sprintf "%.6g  (%d failed of %d attempted)"
       (float_of_int r.Perfbench.Bench.failed /. float_of_int (max 1 r.Perfbench.Bench.attempted))
       r.Perfbench.Bench.failed r.Perfbench.Bench.attempted);
  List.iter (fun e -> line "ERROR" e) r.Perfbench.Bench.errors;
  line "correct" (string_of_bool r.Perfbench.Bench.correct);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Perfbench.Bench.correct r.Perfbench.Bench.attempted r.Perfbench.Bench.failed
    (String.concat ", "
       (List.map
          (fun ((m : Perfbench.Metrics.metric), v, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Perfbench.Metrics.name v
              m.Perfbench.Metrics.unit_)
          r.Perfbench.Bench.metrics));
  exit (if r.Perfbench.Bench.correct then 0 else 1)
