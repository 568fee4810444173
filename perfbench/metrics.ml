(* Metric definitions: the names, units and directions BENCHMARK.json
   lists, and how each value is computed from a run. *)

module Cx = Xinv_core.Crossinv

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit_ = { name; unit_; better }

let end_to_end =
  [ m "setup_s" "s";
    m ~better:`Higher "req_per_s" "req/s";
    m "latency_p50_ms" "ms";
    m ~better:`Higher "speedup_geomean" "x";
    m "max_rss_mb" "MB" ]

let techs = List.map Cx.technique_name Jobs.techniques
let sim_techs = [ "barrier"; "domore"; "speccross" ]

(* Stall causes reported per layer: the blocking points of the barrier,
   DOMORE and SPECCROSS engines that every probe exercises. *)
let stall_causes = [ "barrier"; "queue-empty"; "checker-lag" ]

(* Timing distributions are reported as median and p90. *)
type source =
  | Span of string * float  (** span name, scale from seconds *)
  | Sample of string
  | Scalar  (** computed by the run, one value *)

let dist ?(qs = [ ("p50", 0.5); ("p90", 0.9) ]) base unit_ src =
  List.map (fun (suffix, q) -> (m (base ^ "." ^ suffix) unit_, src, Some q)) qs

let scalar ?better name unit_ = [ (m ?better name unit_, Scalar, None) ]

let per_layer_table =
  List.concat
    [ dist "serve.encode_us" "us" (Span ("serve.encode", 1e6));
      dist "serve.decode_us" "us" (Span ("serve.decode", 1e6));
      dist "serve.frame_bytes" "bytes" (Sample "serve.frame_bytes");
      dist ~qs:[ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ] "serve.queue_wait_ms" "ms"
        (Sample "serve.queue_wait_ms");
      dist "serve.reply_lag_ms" "ms" (Sample "serve.reply_lag_ms");
      dist "serve.stats_rtt_ms" "ms" (Span ("serve.stats", 1e3));
      dist ~qs:[ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ] "serve.rtt_ms" "ms"
        (Span ("serve.request", 1e3));
      List.concat_map
        (fun t -> dist ("core.request_ms." ^ t) "ms" (Span ("core.request." ^ t, 1e3)))
        techs;
      dist "core.baseline_ms" "ms" (Span ("core.baseline", 1e3));
      dist "core.fresh_env_ms" "ms" (Span ("core.fresh_env", 1e3));
      dist "core.verify_ms" "ms" (Span ("core.verify", 1e3));
      dist "core.overhead_ms" "ms" (Sample "core.overhead_ms");
      dist "cache.plan_hit_us" "us" (Span ("cache.plan_hit", 1e6));
      dist "cache.profile_hit_us" "us" (Span ("cache.profile_hit", 1e6));
      dist "cache.fingerprint_us" "us" (Span ("cache.fingerprint", 1e6));
      scalar ~better:`Higher "cache.hit_ratio" "ratio";
      dist "ir.mtcg_generate_ms" "ms" (Span ("ir.mtcg_generate", 1e3));
      dist "speccross.profile_ms" "ms" (Span ("speccross.profile", 1e3));
      dist "ir.seq_interp_ms" "ms" (Span ("ir.seq_interp", 1e3));
      List.concat_map
        (fun t -> dist ("native.exec_ms." ^ t) "ms" (Span ("native.exec." ^ t, 1e3)))
        techs;
      List.concat_map
        (fun t -> dist ("native.minor_words." ^ t) "words" (Sample ("native.minor_words." ^ t)))
        techs;
      List.concat_map
        (fun t -> dist ("native.minor_gcs." ^ t) "count" (Sample ("native.minor_gcs." ^ t)))
        techs;
      List.concat_map (fun c -> scalar ("native.stall_ms." ^ c) "ms") stall_causes;
      scalar ~better:`Higher "native.spec_commit_ratio" "ratio";
      dist "native.pool_run_us" "us" (Span ("native.pool_run", 1e6));
      scalar "native.burn_ns_per_cycle" "ns";
      List.concat_map
        (fun t -> dist ("sim.point_ms." ^ t) "ms" (Span ("sim.point." ^ t, 1e3)))
        techs;
      List.concat_map
        (fun t -> dist ("sim.engine_ms." ^ t) "ms" (Span ("sim.engine." ^ t, 1e3)))
        sim_techs;
      List.concat_map
        (fun id -> scalar ("experiments.render_s." ^ id) "s")
        Jobs.sweep_ids;
      scalar "trace.overhead_ratio" "x" ]

let per_layer = List.map (fun (m, _, _) -> m) per_layer_table

(* Values of every per-layer metric, from the recorder plus the run's
   scalars.  A metric with no samples is an error: every traced run must
   measure every layer. *)
let per_layer_values tr scalars =
  List.map
    (fun (m, src, q) ->
      let xs, scale =
        match src with
        | Span (n, k) -> (Trace.durations tr n, k)
        | Sample n -> (Trace.samples tr n, 1.)
        | Scalar -> ([], 1.)
      in
      let v =
        match (src, q) with
        | Scalar, _ -> (
            match List.assoc_opt m.name scalars with
            | Some (v, _) -> v
            | None -> failwith ("no value for " ^ m.name))
        | _, Some q when xs <> [] -> Pstats.quantile xs q *. scale
        | _ -> failwith ("no samples for " ^ m.name)
      in
      let n =
        match List.assoc_opt m.name scalars with Some (_, n) -> n | None -> List.length xs
      in
      (m, v, n))
    per_layer_table

(* ---- what each layer metric predicts ----

   For every per-layer metric (matched by name prefix): the end-to-end
   metrics a change to that layer should move, the workloads it should
   move them on, and the workloads whose end-to-end metrics should not
   change because they bypass the layer.  Written before any claim, so a
   later change checks its trace against a prediction made beforehand. *)

type prediction = {
  prefix : string;
  moves : string list;
  on : string list;
  no_change_on : string list;
}

let p prefix moves on no_change_on = { prefix; moves; on; no_change_on }
let both = [ "serve_small"; "native_spin" ]

(* Both workloads warm the analysis cache during set-up, so analysis shows
   in setup_s only.  The simulator and the renders run on neither. *)
let layer_map =
  [ p "serve.encode_us" [ "latency_p50_ms" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.decode_us" [ "latency_p50_ms" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.frame_bytes" [ "latency_p50_ms" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.queue_wait_ms" [ "req_per_s" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.reply_lag_ms" [ "latency_p50_ms"; "req_per_s" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.stats_rtt_ms" [ "req_per_s" ] [ "serve_small" ] [ "native_spin" ];
    p "serve.rtt_ms" [ "latency_p50_ms"; "req_per_s" ] [ "serve_small" ] [ "native_spin" ];
    p "core.request_ms" [ "req_per_s" ] both [];
    p "core.baseline_ms" [ "req_per_s"; "latency_p50_ms" ] both [];
    p "core.fresh_env_ms" [ "latency_p50_ms" ] both [];
    p "core.verify_ms" [ "latency_p50_ms" ] both [];
    p "core.overhead_ms" [ "latency_p50_ms" ] [ "native_spin" ] [];
    p "cache.plan_hit_us" [ "latency_p50_ms" ] [ "native_spin" ] [];
    p "cache.profile_hit_us" [ "latency_p50_ms" ] [ "native_spin" ] [];
    p "cache.fingerprint_us" [ "latency_p50_ms" ] [ "native_spin" ] [];
    p "cache.hit_ratio" [ "latency_p50_ms" ] [ "native_spin" ] [];
    p "ir.mtcg_generate_ms" [ "setup_s" ] both [];
    p "speccross.profile_ms" [ "setup_s" ] [ "native_spin" ] [ "serve_small" ];
    p "ir.seq_interp_ms" [] [] both;
    p "native.exec_ms" [ "speedup_geomean" ] [ "native_spin" ] [];
    p "native.minor_words" [ "speedup_geomean" ] [ "native_spin" ] [];
    p "native.minor_gcs" [ "speedup_geomean" ] [ "native_spin" ] [];
    p "native.stall_ms" [ "speedup_geomean" ] [ "native_spin" ] [];
    p "native.spec_commit_ratio" [ "speedup_geomean" ] [ "native_spin" ] [];
    p "native.pool_run_us" [ "latency_p50_ms" ] [ "serve_small" ] [];
    p "native.burn_ns_per_cycle" [] [ "native_spin" ] [];
    p "sim.point_ms" [] [] both;
    p "sim.engine_ms" [] [] both;
    p "experiments.render_s" [] [] both;
    p "trace.overhead_ratio" [] [] [] ]

let prediction_of name =
  List.find_opt
    (fun pr ->
      let n = String.length pr.prefix in
      String.length name >= n && String.sub name 0 n = pr.prefix)
    layer_map

(* The workloads: why each was chosen, what its seed decides and what its
   setup_s times. *)
let workload_info =
  [ ( "serve_small",
      "daemon clients: 2 closed-loop connections to a 1-domain xinv serve on Train runs of under \
       5 ms, so framing, queueing and the watch-poll dominate",
      "each client's request stream: class order in every round and which slots are Stats \
       requests",
      "starting the daemon and the warm-up pass over it; moved by daemon start-up (serve, native \
       pool) and by the first, cache-missing request of each class (core, cache, ir)" );
    ( "native_spin",
      "in-process run_request on a shared 1-domain pool, Ref input under spin work, so engine and \
       request-phase costs show without the daemon",
      "the class order in every round",
      "creating the pool and the cache and a warm-up pass, without the spin work, that fills the \
       cache, once in each measuring process; moved by the first request of each class (core, \
       cache, ir, speccross, native)" ) ]

let strs l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]"

(* perfbench/spec.json: the workloads, the layer map and the digests. *)
let spec_json () =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "{\n  \"reference_seeds\": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],\n  \"workloads\": [\n";
  List.iteri
    (fun i (n, why, seed, setup) ->
      add "    {\"name\": %S,\n     \"why\": %S,\n     \"seed\": %S,\n     \"setup_s\": %S}%s\n" n
        why seed setup
        (if i = List.length workload_info - 1 then "" else ","))
    workload_info;
  add "  ],\n  \"sweep_digests\": {%s},\n  \"layer_map\": [\n"
    (String.concat ", " (List.map (fun (id, d) -> Printf.sprintf "%S: %S" id d) Jobs.expected_digests));
  List.iteri
    (fun i pr ->
      add "    {\"metrics\": \"%s*\", \"moves\": %s, \"on\": %s, \"no_change_on\": %s}%s\n" pr.prefix
        (strs pr.moves) (strs pr.on) (strs pr.no_change_on)
        (if i = List.length layer_map - 1 then "" else ","))
    layer_map;
  add "  ]\n}\n";
  Buffer.contents b
