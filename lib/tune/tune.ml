module Core = Xinv_core
module Cache = Xinv_cache
module Policy = Xinv_cache.Policy
module Wl = Xinv_workloads
module Nat = Xinv_native
module Obs = Xinv_obs

type source = [ `Cached | `Searched ]

let source_name = function `Cached -> "cached" | `Searched -> "searched"

type report = {
  workload : string;
  input : Wl.Workload.input;
  seed : int;
  strategy : Search.strategy;
  budget : int;
  source : source;
  tuned : Policy.tuned;
  trials : Search.trial list;
}

let record obs ev =
  match obs with
  | None -> ()
  | Some r -> Obs.Recorder.record r ~at:0. ~tid:0 ev

let default_trial_deadline_ms = 2000.

(* One fixed run of [p], labelled with where the policy came from: the
   outcome's [policy_source], the [policy.source.*] counter and a
   [Policy_applied] event. *)
let run_policy ?obs ?cache ?cache_dir ~input ~native ~source p wl =
  record obs (Obs.Event.Policy_applied { source; policy = Policy.key p });
  Option.iter
    (fun r ->
      Obs.Metrics.incr
        (Obs.Metrics.counter (Obs.Recorder.metrics r) ("policy.source." ^ source)))
    obs;
  let spec = { (Core.Crossinv.Spec.make ~input ?cache ()) with policy = p } in
  let ctx = { Core.Crossinv.Request.default_ctx with obs; cache_dir; native } in
  let o = Core.Crossinv.run_request { workload = wl; spec; ctx } in
  { o with Core.Crossinv.policy_source = source }

let tune ?obs ?(cache = `Off) ?cache_dir ?(input = Wl.Workload.Ref)
    ?(budget = 32) ?(strategy = Search.Hill) ?(seed = 42) ?max_domains
    ?(trial_deadline_ms = default_trial_deadline_ms) ?(work = Nat.Work.Off)
    (wl : Wl.Workload.t) =
  let analysis =
    match cache with
    | `Off -> None
    | (`Ro | `Rw) as mode ->
        Some (Cache.Analysis.make ?obs ?dir:cache_dir ~mode ())
  in
  let program = wl.Wl.Workload.program input in
  let cached =
    match analysis with
    | None -> None
    | Some c ->
        Cache.Analysis.cached_policy c program (wl.Wl.Workload.fresh_env input)
  in
  match cached with
  | Some tuned ->
      record obs
        (Obs.Event.Policy_applied
           { source = "cached"; policy = Policy.key tuned.Policy.policy });
      {
        workload = wl.Wl.Workload.name;
        input;
        seed;
        strategy;
        budget;
        source = `Cached;
        tuned;
        trials = [];
      }
  | None ->
      let axes = Space.default_axes ?max_domains wl in
      let measure ~incumbent_ns (p : Policy.t) =
        (* The incumbent sets the pruning deadline: a candidate that is
           still running at 1.5x the best-known wall time cannot win, so
           the watchdog cuts it off (degradation stays off — a stall must
           surface as a pruned trial, not silently re-run as barrier). *)
        let deadline_ms =
          if Float.is_finite incumbent_ns && incumbent_ns > 0. then
            Float.min trial_deadline_ms
              (Stdlib.max 20. (incumbent_ns *. 1.5 /. 1e6))
          else trial_deadline_ms
        in
        let native =
          {
            Core.Crossinv.native_defaults with
            work;
            deadline_ms = Some deadline_ms;
            degrade = false;
          }
        in
        match
          run_policy ?obs ~cache ?cache_dir ~input ~native ~source:"searched" p
            wl
        with
        | o ->
            {
              Search.m_wall_ns = Core.Crossinv.cost_value o.Core.Crossinv.cost;
              m_seq_ns = Core.Crossinv.cost_value o.Core.Crossinv.seq_cost;
              m_ok = o.Core.Crossinv.verified;
              m_pruned = false;
            }
        | exception (Nat.Watchdog.Stalled _ | Nat.Watchdog.Cancelled _) ->
            {
              Search.m_wall_ns = Float.infinity;
              m_seq_ns = 0.;
              m_ok = false;
              m_pruned = true;
            }
        | exception Nat.Fault.Injected _ ->
            {
              Search.m_wall_ns = Float.infinity;
              m_seq_ns = 0.;
              m_ok = false;
              m_pruned = true;
            }
        | exception Failure _ ->
            {
              Search.m_wall_ns = Float.infinity;
              m_seq_ns = 0.;
              m_ok = false;
              m_pruned = false;
            }
      in
      let r = Search.search ?obs ~strategy ~budget ~seed ~axes ~measure () in
      let tuned =
        {
          Policy.policy = r.Search.best;
          wall_ns = r.Search.best_wall_ns;
          seq_wall_ns = r.Search.best_seq_ns;
          trials = r.Search.evaluated;
          seed;
        }
      in
      (match analysis with
      | Some c when Cache.Analysis.mode c = `Rw ->
          Cache.Analysis.store_policy c program
            (wl.Wl.Workload.fresh_env input)
            tuned
      | _ -> ());
      {
        workload = wl.Wl.Workload.name;
        input;
        seed;
        strategy;
        budget;
        source = `Searched;
        tuned;
        trials = r.Search.trials;
      }

let apply ?obs ?(input = Wl.Workload.Ref)
    ?(native = Core.Crossinv.native_defaults) r wl =
  run_policy ?obs ~input ~native ~source:(source_name r.source)
    r.tuned.Policy.policy wl

let json_ns v = if Float.is_finite v then Printf.sprintf "%.0f" v else "-1"

let report_json r =
  let b = Buffer.create 1024 in
  let t = r.tuned in
  let speedup =
    if Float.is_finite t.Policy.wall_ns && t.Policy.wall_ns > 0. then
      t.Policy.seq_wall_ns /. t.Policy.wall_ns
    else 0.
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\": \"xinv-tune/1\", \"workload\": %S, \"input\": %S, \
        \"seed\": %d, \"strategy\": %S, \"budget\": %d, \"trials_run\": %d, \
        \"source\": %S, \"cores\": %d, \"best\": {\"policy\": %s, \"key\": \
        %S, \"wall_ns\": %s, \"seq_wall_ns\": %s, \"speedup_vs_seq\": %.4f}, \
        \"trials\": ["
       r.workload
       (Wl.Workload.input_name r.input)
       r.seed
       (Search.strategy_name r.strategy)
       r.budget (List.length r.trials) (source_name r.source)
       (Domain.recommended_domain_count ())
       (Policy.to_json t.Policy.policy)
       (Policy.key t.Policy.policy) (json_ns t.Policy.wall_ns)
       (json_ns t.Policy.seq_wall_ns) speedup);
  List.iteri
    (fun i (tr : Search.trial) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"index\": %d, \"policy\": %S, \"wall_ns\": %s, \"ok\": %b, \
            \"pruned\": %b}"
           tr.Search.t_index
           (Policy.key tr.Search.t_policy)
           (json_ns tr.Search.t_wall_ns)
           tr.Search.t_ok tr.Search.t_pruned))
    r.trials;
  Buffer.add_string b "]}";
  Buffer.contents b
