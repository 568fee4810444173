(* Wall-clock scaling of the native (real OCaml domains) backend.

   Measures sequential vs barrier vs DOMORE vs SPECCROSS at 1/2/4 domains on
   the two workloads both engines support (SYMM, LLUBENCH), with the
   calibrated spin work model so statement costs from the simulator's cost
   model become real nanoseconds.

   Modes:
     bench_native                   print a table of wall ms per configuration
     bench_native --smoke           one tiny run per engine plus an analysis
                                    cache round-trip (runtest alias)
     bench_native --cache-bench     cold vs warm analysis cache: run each
                                    workload x technique with --cache rw in a
                                    scratch directory twice and report the
                                    analysis-phase time of both runs; with
                                    --json OUT writes schema xinv-cache/1
     bench_native --perf-smoke      CI gate: time SYMM seq vs barrier.d2 and
                                    assert the parallel run stays inside a
                                    sanity envelope of sequential; with --json
                                    it also writes the two rows as an artifact
     bench_native --grain N         dispatch grain for all parallel rows
     bench_native --raw FILE        append "name wall_ns cause=ns,... analysis_ns"
                                    to FILE
     bench_native --obs-smoke       CI gate: alternating off/on pair timing
                                    of SYMM domore.d2 with the flight
                                    recorder; fails when the median pair
                                    ratio exceeds 1.05 (5%% wall time)
     bench_native --json OUT [--from-raw RAWFILE]
                                    emit BENCH json (schema xinv-bench-native/4);
                                    with --from-raw, read the numbers from a raw
                                    file instead of re-timing.  Repeated lines
                                    per configuration merge by minimum wall
                                    time, so alternating appended runs cancel
                                    machine drift (same protocol as
                                    bench_primitives)

   Each configuration is timed [repeats] times after a warmup run and the
   minimum wall time is kept; the stall breakdown reported is the one from
   that fastest run, so causes explain the number beside them.  One extra
   non-timed run per configuration records a flight recording, and its
   critical-path verdict (anchored to the fastest run's wall time and
   authoritative stall totals, so dominant causes agree) rides along in the
   JSON rows.  Speedups are computed against the same workload's
   native-sequential row.  The JSON records the machine's core count:
   scaling beyond 1.0x needs at least as many cores as domains, so a
   single-core container measures (honest) slowdowns — which is exactly
   what the stall column is for. *)

module Nat = Xinv_native
module Wl = Xinv_workloads
module C = Xinv_core.Crossinv

let workloads = [ "SYMM"; "LLUBENCH" ]
let domain_counts = [ 1; 2; 4 ]
let techniques = [ ("barrier", C.Barrier); ("domore", C.Domore); ("speccross", C.Speccross) ]

(* ns of real spinning per simulated cycle: large enough that task work
   dominates queue/atomic traffic, small enough to keep the matrix fast. *)
let ns_per_cycle = 1.0

let repeats = 3

type row = {
  name : string;
  wall_ns : float;
  analysis_ns : float;
  stalls : (string * float) list;
  critpath : Xinv_obs.Critpath.verdict option;
}

let backend ~work = `Native { C.native_defaults with C.work }

let dominant stalls =
  match List.sort (fun (_, a) (_, b) -> compare b a) stalls with
  | (c, ns) :: _ when ns > 0. -> Some c
  | _ -> None

let stall_note stalls =
  match dominant stalls with
  | Some c -> Printf.sprintf "[mostly %s]" c
  | None -> "[no stalls]"

let time_config ~work ~grain ~input (wl : Wl.Workload.t) technique domains =
  let best = ref infinity and best_stalls = ref [] and best_analysis = ref 0. in
  for i = 0 to repeats do
    let o =
      C.run_request @@ C.Request.make ~backend:(backend ~work) ~grain ~input ~verify:(i = 0)
        ~technique ~threads:domains wl
    in
    (* i = 0 is the warmup (and the verified run); the rest are timed. *)
    let wall = C.cost_value o.C.cost in
    if i > 0 && wall < !best then begin
      best := wall;
      best_analysis := o.C.analysis_ns;
      best_stalls :=
        (match o.C.nrun with Some n -> n.Nat.Nrun.stalls | None -> [])
    end;
    if not o.C.verified then begin
      Printf.eprintf "FATAL: %s under %s failed verification\n"
        wl.Wl.Workload.name (C.technique_name technique);
      exit 1
    end
  done;
  (* One extra, non-timed run records the flight; anchoring the verdict to
     the fastest timed run's wall and stall totals keeps the recorder's
     overhead out of the numbers and the dominant cause consistent with
     the row's dominant_stall. *)
  let critpath =
    match technique with
    | C.Sequential -> None
    | _ -> (
        let o =
          C.run_request @@ C.Request.make
            ~backend:
              (`Native { C.native_defaults with C.work; flight = true })
            ~grain ~input ~verify:false ~technique ~threads:domains wl
        in
        match o.C.flight with
        | Some fl ->
            Some
              (Xinv_obs.Critpath.analyze ~wall_ns:!best ~stalls:!best_stalls fl)
        | None -> None)
  in
  (!best, !best_analysis, !best_stalls, critpath)

let measure ~grain =
  let work = Nat.Work.Spin ns_per_cycle in
  let input = Wl.Workload.Train in
  List.concat_map
    (fun wname ->
      let wl = Wl.Registry.find wname in
      let seq, seq_an, seq_st, _ = time_config ~work ~grain ~input wl C.Sequential 1 in
      Printf.printf "%-28s %10.2f ms              %s\n%!" (wname ^ ".seq")
        (seq /. 1e6) (stall_note seq_st);
      {
        name = wname ^ ".seq";
        wall_ns = seq;
        analysis_ns = seq_an;
        stalls = seq_st;
        critpath = None;
      }
      :: List.concat_map
           (fun (tname, tech) ->
             List.map
               (fun d ->
                 let ns, an, st, cp = time_config ~work ~grain ~input wl tech d in
                 let name = Printf.sprintf "%s.%s.d%d" wname tname d in
                 Printf.printf "%-28s %10.2f ms  (%.2fx)    %s\n%!" name
                   (ns /. 1e6) (seq /. ns) (stall_note st);
                 (match cp with
                 | Some v ->
                     Printf.printf "%-28s   %s\n%!" ""
                       v.Xinv_obs.Critpath.v_bottleneck
                 | None -> ());
                 { name; wall_ns = ns; analysis_ns = an; stalls = st;
                   critpath = cp })
               domain_counts)
           techniques)
    workloads

(* ---------- raw-file merge (same protocol as bench_primitives) ---------- *)

let stalls_to_string stalls =
  String.concat ","
    (List.map (fun (c, ns) -> Printf.sprintf "%s=%.0f" c ns) stalls)

let stalls_of_string s =
  if s = "" then []
  else
    List.filter_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ c; ns ] -> ( try Some (c, float_of_string ns) with _ -> None)
        | _ -> None)
      (String.split_on_char ',' s)

let read_raw_ordered path =
  let ic = open_in path in
  let order = ref [] and tbl = Hashtbl.create 16 in
  (try
     while true do
       let line = input_line ic in
       let record name v st an =
         match Hashtbl.find_opt tbl name with
         | None ->
             order := name :: !order;
             Hashtbl.replace tbl name (v, st, an)
         | Some (prev, _, _) ->
             if v < prev then Hashtbl.replace tbl name (v, st, an)
       in
       match String.split_on_char ' ' (String.trim line) with
       | [ name; ns ] -> record name (float_of_string ns) [] 0.
       | [ name; ns; st ] ->
           record name (float_of_string ns) (stalls_of_string st) 0.
       | [ name; ns; st; an ] ->
           record name (float_of_string ns) (stalls_of_string st)
             (float_of_string an)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map
    (fun name ->
      let wall_ns, stalls, analysis_ns = Hashtbl.find tbl name in
      (* Raw files carry no flight recording, so merged rows have no
         critical-path verdict. *)
      { name; wall_ns; analysis_ns; stalls; critpath = None })
    !order

(* ---------- JSON ---------- *)

let seq_of rows name =
  (* "SYMM.domore.d4" -> the "SYMM.seq" row *)
  match String.index_opt name '.' with
  | None -> None
  | Some i ->
      List.find_map
        (fun r ->
          if r.name = String.sub name 0 i ^ ".seq" then Some r.wall_ns else None)
        rows

let is_seq name =
  String.length name >= 4
  && String.sub name (String.length name - 4) 4 = ".seq"

let emit_json ~out ~grain rows =
  let cores = Domain.recommended_domain_count () in
  let oc = open_out out in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"xinv-bench-native/4\",\n";
  Buffer.add_string b "  \"unit\": \"wall_ns\",\n";
  Buffer.add_string b (Printf.sprintf "  \"cores\": %d,\n" cores);
  Buffer.add_string b (Printf.sprintf "  \"grain\": %d,\n" grain);
  Buffer.add_string b
    (Printf.sprintf "  \"work_ns_per_cycle\": %.2f,\n" ns_per_cycle);
  Buffer.add_string b "  \"input\": \"train\",\n";
  Buffer.add_string b (Printf.sprintf "  \"repeats_min_of\": %d,\n" repeats);
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"wall_ns\": %.0f, \"analysis_ns\": %.0f, \"cores\": %d, \"grain\": %d"
           r.name r.wall_ns r.analysis_ns cores grain);
      (match seq_of rows r.name with
      | Some seq when not (is_seq r.name) ->
          Buffer.add_string b
            (Printf.sprintf ", \"speedup_vs_seq\": %.3f" (seq /. r.wall_ns))
      | _ -> ());
      Buffer.add_string b ", \"stall_causes\": {";
      List.iteri
        (fun k (c, ns) ->
          Buffer.add_string b
            (Printf.sprintf "%s%S: %.0f" (if k = 0 then "" else ", ") c ns))
        r.stalls;
      Buffer.add_string b "}";
      Buffer.add_string b
        (Printf.sprintf ", \"dominant_stall\": %S"
           (match dominant r.stalls with Some c -> c | None -> "none"));
      Buffer.add_string b
        (Printf.sprintf ", \"critpath\": %s"
           (match r.critpath with
           | Some v -> Xinv_obs.Critpath.to_json v
           | None -> "null"));
      Buffer.add_string b (if i = n - 1 then "}\n" else "},\n"))
    rows;
  Buffer.add_string b "  ]\n}\n";
  output_string oc (Buffer.contents b);
  close_out oc

(* ---------- smoke ---------- *)

let smoke () =
  let input = Wl.Workload.Train in
  let wl = Wl.Registry.find "SYMM" in
  List.iter
    (fun (tname, tech) ->
      let o =
        C.run_request @@ C.Request.make
          ~backend:(backend ~work:Nat.Work.Off)
          ~input ~technique:tech ~threads:2 wl
      in
      if not o.C.verified then begin
        Printf.eprintf "smoke %s: verification failed\n" tname;
        exit 1
      end;
      let nrun = Option.get o.C.nrun in
      Printf.printf "smoke native.%-10s ok (%d tasks, %.1f ms)\n" tname
        nrun.Nat.Nrun.tasks
        (nrun.Nat.Nrun.wall_ns /. 1e6))
    (("sequential", C.Sequential) :: techniques);
  (* Flight recorder round-trip: a recorded run must surface events and a
     critical-path verdict without disturbing verification. *)
  let fo =
    C.run_request @@ C.Request.make
      ~backend:(`Native { C.native_defaults with C.flight = true })
      ~input ~technique:C.Domore ~threads:2 wl
  in
  (match fo.C.flight with
  | Some fl when fo.C.verified && Xinv_obs.Flight.total_length fl > 0 ->
      let v = Xinv_obs.Critpath.analyze fl in
      Printf.printf "smoke flight ok (%d events, bottleneck: %s)\n"
        (Xinv_obs.Flight.total_length fl)
        v.Xinv_obs.Critpath.v_bottleneck
  | _ ->
      prerr_endline "smoke flight: no events recorded or verification failed";
      exit 1);
  (* Analysis cache round-trip: second run with the same scratch directory
     must be served entirely from the cache and still verify. *)
  let cdir = Filename.temp_file "xinv-smoke-cache" "" in
  Sys.remove cdir;
  Unix.mkdir cdir 0o755;
  let cached () =
    C.run_request @@ C.Request.make
      ~backend:(backend ~work:Nat.Work.Off)
      ~input ~cache:`Rw ~cache_dir:cdir ~technique:C.Domore ~threads:2 wl
  in
  let cold = cached () in
  let warm = cached () in
  if
    (not (cold.C.verified && warm.C.verified))
    || cold.C.cache_misses = 0 || warm.C.cache_misses > 0
    || warm.C.cache_hits = 0
  then begin
    Printf.eprintf
      "smoke cache: round-trip broken (cold %d/%d, warm %d/%d hit/miss)\n"
      cold.C.cache_hits cold.C.cache_misses warm.C.cache_hits
      warm.C.cache_misses;
    exit 1
  end;
  Array.iter (fun f -> Sys.remove (Filename.concat cdir f)) (Sys.readdir cdir);
  Unix.rmdir cdir;
  Printf.printf "smoke cache ok (cold %d miss, warm %d hit)\n"
    cold.C.cache_misses warm.C.cache_hits;
  print_string "bench native smoke: all engines ran\n"

(* ---------- cache bench ---------- *)

(* Cold vs warm analysis: each workload x technique runs three times — cache
   off (the baseline analysis cost), cold rw (first run populates a scratch
   cache), warm rw (everything replayed from disk).  The warm row's
   analysis_ns is the headline: fingerprint + artifact replay instead of
   PDG/SCC/partition/profiling, so repeat-run analysis time collapses. *)
let cache_bench ~json =
  let input = Wl.Workload.Train in
  let grain = Xinv_cache.Policy.default.grain in
  let rows =
    List.concat_map
      (fun wname ->
        let wl = Wl.Registry.find wname in
        List.concat_map
          (fun (tname, tech) ->
            let cdir = Filename.temp_file "xinv-cache-bench" "" in
            Sys.remove cdir;
            Unix.mkdir cdir 0o755;
            let go cache =
              C.run_request @@ C.Request.make
                ~backend:(backend ~work:Nat.Work.Off) ~grain
                ~input ?cache_dir:(if cache = `Off then None else Some cdir)
                ~cache ~technique:tech ~threads:2 wl
            in
            let off = go `Off in
            let cold = go `Rw in
            let warm = go `Rw in
            List.iter
              (fun (o : C.outcome) ->
                if not o.C.verified then begin
                  Printf.eprintf "FATAL: %s.%s failed verification\n" wname tname;
                  exit 1
                end)
              [ off; cold; warm ];
            if warm.C.cache_misses > 0 || warm.C.cache_hits = 0 then begin
              Printf.eprintf "FATAL: %s.%s warm run missed the cache (%d/%d)\n"
                wname tname warm.C.cache_hits warm.C.cache_misses;
              exit 1
            end;
            Array.iter
              (fun f -> Sys.remove (Filename.concat cdir f))
              (Sys.readdir cdir);
            Unix.rmdir cdir;
            List.iter
              (fun (phase, (o : C.outcome)) ->
                Printf.printf
                  "%-24s %-5s analysis %10.3f ms   wall %10.2f ms   (%d hit, %d miss)\n%!"
                  (wname ^ "." ^ tname) phase
                  (o.C.analysis_ns /. 1e6)
                  (C.cost_value o.C.cost /. 1e6)
                  o.C.cache_hits o.C.cache_misses;
                ignore phase)
              [ ("off", off); ("cold", cold); ("warm", warm) ];
            Printf.printf "%-24s warm analysis is %.1fx cheaper than cold\n%!"
              (wname ^ "." ^ tname)
              (cold.C.analysis_ns /. Float.max 1. warm.C.analysis_ns);
            List.map
              (fun (phase, (o : C.outcome)) ->
                (wname, tname, phase, o.C.analysis_ns, C.cost_value o.C.cost,
                 o.C.cache_hits, o.C.cache_misses))
              [ ("off", off); ("cold", cold); ("warm", warm) ])
          [ ("domore", C.Domore); ("speccross", C.Speccross) ])
      workloads
  in
  match json with
  | None -> ()
  | Some out ->
      let oc = open_out out in
      let b = Buffer.create 2048 in
      Buffer.add_string b "{\n";
      Buffer.add_string b "  \"schema\": \"xinv-cache/1\",\n";
      Buffer.add_string b "  \"unit\": \"analysis_ns\",\n";
      Buffer.add_string b "  \"input\": \"train\",\n";
      Buffer.add_string b
        (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
      Buffer.add_string b "  \"results\": [\n";
      let n = List.length rows in
      List.iteri
        (fun i (w, t, phase, an, wall, hits, misses) ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"name\": \"%s.%s.%s\", \"analysis_ns\": %.0f, \"wall_ns\": \
                %.0f, \"cache_hits\": %d, \"cache_misses\": %d}%s\n"
               w t phase an wall hits misses
               (if i = n - 1 then "" else ",")))
        rows;
      Buffer.add_string b "  ]\n}\n";
      output_string oc (Buffer.contents b);
      close_out oc;
      Printf.printf "wrote %s\n" out

(* ---------- perf smoke (CI gate) ---------- *)

(* Sanity envelope, not a scaling target: on >= 2 real cores a 2-domain
   barrier run of SYMM must not be catastrophically slower than sequential
   (lock convoy, livelock, quadratic sync).  On an oversubscribed single
   core, honest slowdown from context switching is expected, so the bound
   is loose there — it still catches hangs and order-of-magnitude
   regressions. *)
let perf_smoke ~grain ~json =
  let work = Nat.Work.Spin ns_per_cycle in
  let input = Wl.Workload.Train in
  let wl = Wl.Registry.find "SYMM" in
  let cores = Domain.recommended_domain_count () in
  let seq, seq_an, seq_st, _ = time_config ~work ~grain ~input wl C.Sequential 1 in
  let par, par_an, par_st, par_cp = time_config ~work ~grain ~input wl C.Barrier 2 in
  let envelope = if cores >= 2 then 4.0 else 12.0 in
  let ratio = par /. seq in
  Printf.printf "perf-smoke: cores=%d grain=%d\n" cores grain;
  Printf.printf "  SYMM.seq         %10.2f ms  %s\n" (seq /. 1e6)
    (stall_note seq_st);
  Printf.printf "  SYMM.barrier.d2  %10.2f ms  (%.2fx of seq)  %s\n"
    (par /. 1e6) ratio (stall_note par_st);
  (match json with
  | Some out ->
      emit_json ~out ~grain
        [
          {
            name = "SYMM.seq";
            wall_ns = seq;
            analysis_ns = seq_an;
            stalls = seq_st;
            critpath = None;
          };
          {
            name = "SYMM.barrier.d2";
            wall_ns = par;
            analysis_ns = par_an;
            stalls = par_st;
            critpath = par_cp;
          };
        ];
      Printf.printf "wrote %s\n" out
  | None -> ());
  if ratio > envelope then begin
    Printf.eprintf
      "perf-smoke FAIL: barrier.d2 is %.2fx sequential (envelope %.1fx at %d cores)\n"
      ratio envelope cores;
    exit 1
  end;
  Printf.printf "perf-smoke ok: %.2fx within %.1fx envelope\n" ratio envelope

(* ---------- tuned bench (PR 9) ---------- *)

(* Autotuned policy vs the best fixed grid configuration vs sequential.

   Per workload: (1) the fixed grid — sequential plus every technique x
   domain count at the default grain — timed with the min-of-repeats
   protocol; (2) one [Tune.tune] search into a scratch rw cache, a second
   warm tune that must be served from the cache with zero trials, and the
   winning policy re-timed under the same protocol; (3) an adaptive stream
   of runs against the same cache, which must end either committed to the
   candidate or switched to sequential.  Assertions exit 1; --json writes
   schema xinv-tune-bench/1. *)
let tuned_bench ~json =
  let module Tune = Xinv_tune.Tune in
  let module Policy = Xinv_cache.Policy in
  let work = Nat.Work.Spin ns_per_cycle in
  let input = Wl.Workload.Train in
  let cores = Domain.recommended_domain_count () in
  let time_policy (p : Policy.t) wl =
    let native = { C.native_defaults with C.work } in
    let best = ref infinity in
    for i = 0 to repeats do
      let o =
        C.run_request
          {
            C.Request.workload = wl;
            spec = { (C.Spec.make ~input ()) with policy = p };
            ctx = { C.Request.default_ctx with native };
          }
      in
      if not o.C.verified then begin
        Printf.eprintf "FATAL: tuned policy %s failed verification\n"
          (Policy.key p);
        exit 1
      end;
      let wall = C.cost_value o.C.cost in
      if i > 0 && wall < !best then best := wall
    done;
    !best
  in
  let any_tuned_ok = ref false in
  let results =
    List.map
      (fun wname ->
        let wl = Wl.Registry.find wname in
        let seq, _, _, _ = time_config ~work ~grain:1 ~input wl C.Sequential 1 in
        Printf.printf "%-28s %10.2f ms\n%!" (wname ^ ".seq") (seq /. 1e6);
        let fixed =
          List.concat_map
            (fun (tname, tech) ->
              List.map
                (fun d ->
                  let ns, _, _, _ = time_config ~work ~grain:1 ~input wl tech d in
                  let name = Printf.sprintf "%s.d%d" tname d in
                  Printf.printf "%-28s %10.2f ms  (%.2fx)\n%!"
                    (wname ^ "." ^ name) (ns /. 1e6) (seq /. ns);
                  (name, ns))
                domain_counts)
            techniques
        in
        let best_fixed_name, best_fixed =
          List.fold_left
            (fun (bn, b) (n, v) -> if v < b then (n, v) else (bn, b))
            ("seq", seq) fixed
        in
        let cdir = Filename.temp_file "xinv-tune-bench" "" in
        Sys.remove cdir;
        Unix.mkdir cdir 0o755;
        let r =
          Tune.tune ~cache:`Rw ~cache_dir:cdir ~input ~budget:24 ~seed:42 ~work
            wl
        in
        let warm =
          Tune.tune ~cache:`Rw ~cache_dir:cdir ~input ~budget:24 ~seed:42 ~work
            wl
        in
        if warm.Tune.source <> `Cached || warm.Tune.trials <> [] then begin
          Printf.eprintf
            "FATAL: %s warm tune re-searched (%d trials, source %s)\n" wname
            (List.length warm.Tune.trials)
            (Tune.source_name warm.Tune.source);
          exit 1
        end;
        let tuned_policy = r.Tune.tuned.Policy.policy in
        let tuned_wall = time_policy tuned_policy wl in
        let vs_fixed = tuned_wall /. best_fixed in
        Printf.printf
          "%-28s %10.2f ms  (%.2fx)  [%s, %d trials, %.2fx of best fixed \
           %s]\n%!"
          (wname ^ ".tuned") (tuned_wall /. 1e6) (seq /. tuned_wall)
          (Policy.key tuned_policy)
          (List.length r.Tune.trials)
          vs_fixed best_fixed_name;
        (* Within-noise bound is generous: on small boxes the tuned policy
           is often the same config as the best fixed row, so the gap is
           pure measurement noise. *)
        if vs_fixed <= 1.25 then any_tuned_ok := true;
        (* Adaptive stream against the freshly tuned cache: the candidate
           is the stored policy; the controller must end the stream either
           committed to it or switched to sequential. *)
        let ctl = C.adaptive () in
        let nruns = 8 in
        let last = ref None in
        for _ = 1 to nruns do
          last :=
            Some
              (C.run_request @@ C.Request.make
                 ~backend:(`Native { C.native_defaults with C.work })
                 ~input ~cache:`Ro ~cache_dir:cdir ~mode:`Auto ~adaptive:ctl
                 ~technique:C.Domore
                 ~threads:(Stdlib.min 4 (Stdlib.max 2 cores))
                 wl)
        done;
        let final = Option.get !last in
        if not final.C.verified then begin
          Printf.eprintf "FATAL: %s adaptive stream failed verification\n"
            wname;
          exit 1
        end;
        let phase_name =
          match C.adaptive_phase ctl with
          | `Probing -> "probing"
          | `Candidate -> "candidate"
          | `Sequential -> "sequential"
        in
        let committed = C.adaptive_phase ctl = `Candidate in
        let bailed = final.C.policy_source = "adaptive:sequential" in
        if not (committed || bailed) then begin
          Printf.eprintf
            "FATAL: %s adaptive stream ended in %s after %d runs (must \
             commit or switch to sequential)\n"
            wname phase_name nruns;
          exit 1
        end;
        let final_ratio =
          C.cost_value final.C.cost /. C.cost_value final.C.seq_cost
        in
        Printf.printf
          "%-28s %10s      [%s after %d runs, %d switches, final %.2fx of \
           seq]\n%!"
          (wname ^ ".adaptive")
          (if committed then "committed" else "switched")
          phase_name nruns
          (C.adaptive_switches ctl)
          final_ratio;
        Array.iter
          (fun f -> Sys.remove (Filename.concat cdir f))
          (Sys.readdir cdir);
        Unix.rmdir cdir;
        ( wname, seq, best_fixed_name, best_fixed, tuned_policy, tuned_wall,
          List.length r.Tune.trials, phase_name,
          C.adaptive_switches ctl, final.C.policy_source, final_ratio ))
      workloads
  in
  if not !any_tuned_ok then begin
    Printf.eprintf
      "FATAL: no workload's autotuned policy came within 1.15x of its best \
       fixed grid configuration\n";
    exit 1
  end;
  Printf.printf "tuned bench ok: autotuned <= best fixed (within noise) on \
                 >= 1 workload\n";
  match json with
  | None -> ()
  | Some out ->
      let oc = open_out out in
      let b = Buffer.create 4096 in
      Buffer.add_string b "{\n";
      Buffer.add_string b "  \"schema\": \"xinv-tune-bench/1\",\n";
      Buffer.add_string b "  \"unit\": \"wall_ns\",\n";
      Buffer.add_string b (Printf.sprintf "  \"cores\": %d,\n" cores);
      Buffer.add_string b
        (Printf.sprintf "  \"work_ns_per_cycle\": %.2f,\n" ns_per_cycle);
      Buffer.add_string b "  \"input\": \"train\",\n";
      Buffer.add_string b (Printf.sprintf "  \"repeats_min_of\": %d,\n" repeats);
      Buffer.add_string b "  \"results\": [\n";
      let n = List.length results in
      List.iteri
        (fun i
             ( w, seq, bf_name, bf, policy, tuned_wall, trials, phase,
               switches, final_source, final_ratio ) ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"workload\": %S, \"seq_wall_ns\": %.0f, \"best_fixed\": \
                {\"name\": %S, \"wall_ns\": %.0f, \"speedup_vs_seq\": %.3f}, \
                \"tuned\": {\"policy\": %s, \"key\": %S, \"wall_ns\": %.0f, \
                \"speedup_vs_seq\": %.3f, \"vs_best_fixed\": %.3f, \
                \"search_trials\": %d, \"warm_trials\": 0}, \"adaptive\": \
                {\"runs\": 8, \"phase\": %S, \"switches\": %d, \
                \"final_source\": %S, \"final_ratio_vs_seq\": %.3f}}%s\n"
               w seq bf_name bf (seq /. bf)
               (Xinv_cache.Policy.to_json policy)
               (Xinv_cache.Policy.key policy)
               tuned_wall (seq /. tuned_wall) (tuned_wall /. bf) trials phase
               switches final_source final_ratio
               (if i = n - 1 then "" else ",")))
        results;
      Buffer.add_string b "  ]\n}\n";
      output_string oc (Buffer.contents b);
      close_out oc;
      Printf.printf "wrote %s\n" out

(* ---------- obs overhead smoke (CI gate) ---------- *)

(* The flight recorder's write path must stay in the noise: the same
   configuration is timed with the recorder off and on in back-to-back
   pairs (order alternating, so thermal or scheduler drift hits both sides
   equally) and the gate statistic is the median per-pair ratio.  The 5%
   bound is the contract README advertises. *)
let obs_smoke () =
  let work = Nat.Work.Spin ns_per_cycle in
  let input = Wl.Workload.Train in
  let wl = Wl.Registry.find "SYMM" in
  let reps = 7 in
  let run ~flight =
    let o =
      C.run_request @@ C.Request.make
        ~backend:(`Native { C.native_defaults with C.work; flight })
        ~input ~verify:false ~technique:C.Domore ~threads:2 wl
    in
    C.cost_value o.C.cost
  in
  (* Warm up both variants (pool spin-up, allocator, branch predictors). *)
  ignore (run ~flight:false);
  ignore (run ~flight:true);
  (* One pair = one off run and one on run back to back (order alternating
     to cancel drift); the gate statistic is the MEDIAN of the per-pair
     ratios.  A quiet window yields a clean pair whose ratio is the true
     overhead, so symmetric container noise moves the median far less than
     it moves a min-of-N on either side; a real systematic regression moves
     every pair.  A shared CI box can still produce a skewed attempt, so
     retry up to [attempts] times and pass on the first clean one. *)
  let attempts = 3 in
  let measure_ratio () =
    let ratios =
      Array.init reps (fun i ->
          if i mod 2 = 0 then
            let a = run ~flight:false in
            let b = run ~flight:true in
            b /. a
          else
            let b = run ~flight:true in
            let a = run ~flight:false in
            b /. a)
    in
    Array.sort compare ratios;
    ratios.(reps / 2)
  in
  let rec go attempt =
    let ratio = measure_ratio () in
    Printf.printf
      "obs-smoke[%d/%d]: SYMM.domore.d2 median of %d off/on pair ratios: \
       %.3fx\n"
      attempt attempts reps ratio;
    if ratio <= 1.05 then
      Printf.printf "obs-smoke ok: recorder overhead %.1f%% within 5%% budget\n"
        (Float.max 0. ((ratio -. 1.) *. 100.))
    else if attempt < attempts then go (attempt + 1)
    else begin
      Printf.eprintf
        "obs-smoke FAIL: flight recorder costs %.1f%% wall time (budget 5%%) \
         in %d consecutive attempts\n"
        ((ratio -. 1.) *. 100.)
        attempts;
      exit 1
    end
  in
  go 1

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let opt f =
    let rec go = function
      | a :: v :: _ when a = f -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let grain =
    match opt "--grain" with
    | Some g -> (
        match int_of_string_opt g with
        | Some g when g >= 1 -> g
        | _ ->
            prerr_endline "--grain wants a positive integer";
            exit 2)
    | None -> Xinv_cache.Policy.default.grain
  in
  if has "--smoke" then smoke ()
  else if has "--cache-bench" then cache_bench ~json:(opt "--json")
  else if has "--perf-smoke" then perf_smoke ~grain ~json:(opt "--json")
  else if has "--obs-smoke" then obs_smoke ()
  else if has "--tuned" then tuned_bench ~json:(opt "--json")
  else begin
    let rows =
      match opt "--from-raw" with
      | Some path -> read_raw_ordered path
      | None -> measure ~grain
    in
    (match opt "--raw" with
    | Some path ->
        let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
        List.iter
          (fun r ->
            Printf.fprintf oc "%s %.0f %s %.0f\n" r.name r.wall_ns
              (stalls_to_string r.stalls) r.analysis_ns)
          rows;
        close_out oc
    | None -> ());
    match opt "--json" with
    | Some out ->
        emit_json ~out ~grain rows;
        Printf.printf "wrote %s\n" out
    | None -> ()
  end
