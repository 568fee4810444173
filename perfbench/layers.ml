(* Per-layer probes for traced runs.  Each probe calls one layer's public
   functions directly from the benchmark, inside spans, on the workload's
   own classes (or, for a layer the workload bypasses, on a small probe
   set), and leaves durations and value samples in the recorder. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Ir = Xinv_ir
module Nat = Xinv_native
module Cache = Xinv_cache
module Spc = Xinv_speccross
module Proto = Xinv_serve.Protocol
module SReq = Xinv_serve.Request
module Common = Xinv_experiments.Common

let train_of = function
  | Wl.Workload.Ref_spec | Wl.Workload.Train_spec -> Wl.Workload.Train_spec
  | Wl.Workload.Ref | Wl.Workload.Train -> Wl.Workload.Train

let policy_of (wl : Wl.Workload.t) =
  if wl.Wl.Workload.mem_partition then Xinv_domore.Policy.Mem_partition
  else Xinv_domore.Policy.Round_robin

(* The facade's profiled speculative distance (see Crossinv). *)
let spec_distance (p : Spc.Profiler.t) ~workers =
  match p.Spc.Profiler.min_task_distance with
  | Some d -> max workers d
  | None -> max (4 * workers) (int_of_float (4. *. p.Spc.Profiler.avg_tasks_per_epoch))

let distinct_workloads (cls : Jobs.cls list) =
  List.fold_left
    (fun acc (c : Jobs.cls) ->
      if List.exists (fun ((w : Wl.Workload.t), i) -> w.Wl.Workload.name = c.Jobs.wl.Wl.Workload.name && i = c.Jobs.input) acc then acc
      else acc @ [ (c.Jobs.wl, c.Jobs.input) ])
    [] cls

(* Native-engine accounting shared across a probe's engine calls. *)
type engine_acc = {
  mutable calls : int;
  stalls : (string, float) Hashtbl.t;  (** cause -> total ns *)
  mutable committed : int;
  mutable misspecs : int;
}

let engine_acc () = { calls = 0; stalls = Hashtbl.create 8; committed = 0; misspecs = 0 }

(* ---- native engines, the way run_request drives them ---- *)

let engine ~tr ~req ~parent ~acc ~(env : Loops.native_env) ~cache (c : Jobs.cls) program
    (e : Ir.Env.t) =
  let tech = Cx.technique_name c.Jobs.tech in
  let workers = max 1 (c.Jobs.threads - 1) in
  let work = env.Loops.work and pool = env.Loops.pool in
  let plan = Wl.Workload.plan_fn c.Jobs.wl in
  let timed f =
    let g0 = Gc.quick_stat () in
    let r = Trace.span tr ~req ~parent ("native.exec." ^ tech) (fun _ -> f ()) in
    let g1 = Gc.quick_stat () in
    Trace.sample tr ("native.minor_words." ^ tech) (g1.Gc.minor_words -. g0.Gc.minor_words);
    Trace.sample tr ("native.minor_gcs." ^ tech)
      (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    acc.calls <- acc.calls + 1;
    List.iter
      (fun (cause, ns) ->
        Hashtbl.replace acc.stalls cause
          (ns +. Option.value ~default:0. (Hashtbl.find_opt acc.stalls cause)))
      r.Nat.Nrun.stalls;
    r
  in
  let barrier () = timed (fun () -> Nat.Nbarrier.run ~pool ~work ~threads:c.Jobs.threads ~plan program e) in
  match c.Jobs.tech with
  | Cx.Sequential -> ignore (timed (fun () -> Nat.Nbarrier.run_seq ~work program e))
  | Cx.Barrier -> ignore (barrier ())
  | Cx.Domore -> (
      match Trace.span tr ~req ~parent "cache.plan_hit" (fun _ -> Cache.Analysis.plan cache program e) with
      | Ir.Mtcg.Inapplicable r -> failwith ("DOMORE inapplicable: " ^ r)
      | Ir.Mtcg.Plan mplan ->
          let config =
            { (Nat.Ndomore.default_config ~workers) with
              Nat.Ndomore.policy = policy_of c.Jobs.wl; work }
          in
          ignore (timed (fun () -> Nat.Ndomore.run ~pool ~config ~plan:mplan program e)))
  | Cx.Speccross ->
      let ti = train_of c.Jobs.input in
      let tprog = c.Jobs.wl.Wl.Workload.program ti and tenv = c.Jobs.wl.Wl.Workload.fresh_env ti in
      let prof = Trace.span tr ~req ~parent "cache.profile_hit" (fun _ -> Cache.Analysis.profile cache tprog tenv) in
      if not (Spc.Profiler.profitable prof ~workers) then ignore (barrier ())
      else begin
        let config =
          { (Nat.Nspec.default_config ~workers) with
            Nat.Nspec.sig_kind = Xinv_runtime.Signature.Segmented (Ir.Memory.bounds e.Ir.Env.mem);
            checkpoint_every = 1000;
            spec_distance = spec_distance prof ~workers;
            mode_of = Cx.spec_mode_of_plan c.Jobs.wl;
            work }
        in
        let r = timed (fun () -> Nat.Nspec.run ~pool ~config program e) in
        acc.committed <- acc.committed + r.Nat.Nrun.invocations;
        acc.misspecs <- acc.misspecs + r.Nat.Nrun.misspecs
      end
  | t -> invalid_arg ("no native engine probe for " ^ Cx.technique_name t)

(* One request replayed phase by phase: baseline environment and
   sequential run, fresh run environment, the engine, and the memory
   comparison, as children of one core.replay span.  Returns whether
   memory matched and the phases' total (the engine phase includes its
   analysis-cache lookups, as in run_request). *)
let phases ~tr ~req ~acc ~env ~cache (c : Jobs.cls) =
  Trace.span tr ~req "core.replay" @@ fun parent ->
  let wl = c.Jobs.wl in
  let program = wl.Wl.Workload.program c.Jobs.input in
  let a = Trace.now () in
  let seq_env = Trace.span tr ~req ~parent "core.fresh_env" (fun _ -> wl.Wl.Workload.fresh_env c.Jobs.input) in
  ignore (Trace.span tr ~req ~parent "core.baseline" (fun _ ->
      Nat.Nbarrier.run_seq ~work:env.Loops.work program seq_env));
  let e = Trace.span tr ~req ~parent "core.fresh_env" (fun _ -> wl.Wl.Workload.fresh_env c.Jobs.input) in
  engine ~tr ~req ~parent ~acc ~env ~cache c program e;
  let diff = Trace.span tr ~req ~parent "core.verify" (fun _ -> Ir.Memory.diff seq_env.Ir.Env.mem e.Ir.Env.mem) in
  (diff = [], Trace.now () -. a)

(* Publish every plan and profile the classes use, so that later lookups
   in the same store are hits. *)
let warm_analysis cache (classes : Jobs.cls list) =
  List.iter
    (fun (wl, input) ->
      let e = wl.Wl.Workload.fresh_env input in
      ignore (Cache.Analysis.plan cache (wl.Wl.Workload.program input) e);
      let ti = train_of input in
      ignore (Cache.Analysis.profile cache (wl.Wl.Workload.program ti) (wl.Wl.Workload.fresh_env ti)))
    (distinct_workloads classes)

(* The core and native layers: for each class, [reps] times, the whole
   request through run_request, then the same request phase by phase;
   core.overhead_ms is the difference.  Returns the samples of the
   run_request calls. *)
let core_native ~tr ~env ~reps (classes : Jobs.cls list) =
  let cache = Cache.Analysis.make ~dir:env.Loops.cache_dir ~mode:`Rw () in
  let acc = engine_acc () in
  let out = ref [] and errors = ref [] in
  warm_analysis cache classes;
  for _ = 1 to reps do
    List.iter
      (fun (c : Jobs.cls) ->
        let req = Loops.fresh_req () in
        let s, err = Loops.run_class ~tr ~req env c in
        out := s :: !out;
        Option.iter (fun e -> errors := e :: !errors) err;
        match phases ~tr ~req ~acc ~env ~cache c with
        | ok, phase_s ->
            Trace.sample tr "core.overhead_ms" ((s.Loops.lat_s -. phase_s) *. 1e3);
            if not ok then errors := (Jobs.cls_name c ^ ": phase replay diverged") :: !errors
        | exception e -> errors := Printf.sprintf "%s phases: %s" (Jobs.cls_name c) (Printexc.to_string e) :: !errors)
      classes
  done;
  (List.rev !out, acc, !errors)

(* The cache layer: fingerprints, and plan/profile replays on a warm store. *)
let cache_probe ~tr ~cache_dir ~reps (classes : Jobs.cls list) =
  let cache = Cache.Analysis.make ~dir:cache_dir ~mode:`Rw () in
  let wls = distinct_workloads classes in
  let inputs (wl, input) =
    let ti = train_of input in
    (wl.Wl.Workload.program input, wl.Wl.Workload.fresh_env input,
     wl.Wl.Workload.program ti, wl.Wl.Workload.fresh_env ti)
  in
  warm_analysis cache classes;
  for _ = 1 to reps do
    List.iter
      (fun w ->
        let p, e, tp, te = inputs w in
        ignore (Trace.span tr "cache.fingerprint" (fun _ -> Cache.Fingerprint.keyed p e));
        ignore (Trace.span tr "cache.plan_hit" (fun _ -> Cache.Analysis.plan cache p e));
        ignore (Trace.span tr "cache.profile_hit" (fun _ -> Cache.Analysis.profile cache tp te)))
      wls
  done

(* Fresh compile-time analysis and the sequential interpreter. *)
let analysis_probe ~tr (classes : Jobs.cls list) =
  List.iter
    (fun (wl, input) ->
      let p = wl.Wl.Workload.program input in
      let e = wl.Wl.Workload.fresh_env input in
      ignore (Trace.span tr "ir.mtcg_generate" (fun _ -> Ir.Mtcg.generate p e));
      let ti = train_of input in
      let tp = wl.Wl.Workload.program ti and te = wl.Wl.Workload.fresh_env ti in
      ignore (Trace.span tr "speccross.profile" (fun _ -> Spc.Profiler.profile tp te));
      let e = wl.Wl.Workload.fresh_env input in
      ignore (Trace.span tr "ir.seq_interp" (fun _ -> Ir.Seq_interp.run p e)))
    (distinct_workloads classes)

(* Simulated engines on inputs analysed beforehand (outside the span). *)
let sim_engine ~tr (c : Jobs.cls) =
  let wl = c.Jobs.wl in
  let p = wl.Wl.Workload.program c.Jobs.input in
  let workers = max 1 (c.Jobs.threads - 1) in
  let plan = Wl.Workload.plan_fn wl in
  let barrier e = Xinv_parallel.Barrier_exec.run ~threads:c.Jobs.threads ~plan p e in
  let name = "sim.engine." ^ Cx.technique_name c.Jobs.tech in
  match c.Jobs.tech with
  | Cx.Barrier ->
      let e = wl.Wl.Workload.fresh_env c.Jobs.input in
      ignore (Trace.span tr name (fun _ -> barrier e))
  | Cx.Domore -> (
      match Ir.Mtcg.generate p (wl.Wl.Workload.fresh_env c.Jobs.input) with
      | Ir.Mtcg.Inapplicable _ -> ()
      | Ir.Mtcg.Plan mplan ->
          let config =
            { (Xinv_domore.Domore.default_config ~workers) with
              Xinv_domore.Domore.policy = policy_of wl }
          in
          let e = wl.Wl.Workload.fresh_env c.Jobs.input in
          ignore (Trace.span tr name (fun _ -> Xinv_domore.Domore.run ~config ~plan:mplan p e)))
  | Cx.Speccross ->
      let ti = train_of c.Jobs.input in
      let prof = Spc.Profiler.profile (wl.Wl.Workload.program ti) (wl.Wl.Workload.fresh_env ti) in
      let e = wl.Wl.Workload.fresh_env c.Jobs.input in
      if not (Spc.Profiler.profitable prof ~workers) then
        ignore (Trace.span tr name (fun _ -> barrier e))
      else
        let config =
          { (Spc.Runtime.default_config ~workers) with
            Spc.Runtime.sig_kind = Xinv_runtime.Signature.Segmented (Ir.Memory.bounds e.Ir.Env.mem);
            checkpoint_every = 1000;
            spec_distance = spec_distance prof ~workers;
            mode_of = Cx.spec_mode_of_plan wl }
        in
        ignore (Trace.span tr name (fun _ -> Spc.Runtime.run ~config p e))
  | _ -> ()

(* Sweep points through the experiment harness; returns the outcomes. *)
let sim_points ~tr (points : Jobs.cls list) =
  List.map
    (fun (c : Jobs.cls) ->
      let name = "sim.point." ^ Cx.technique_name c.Jobs.tech in
      match
        Trace.span tr name (fun _ ->
            Common.speedup_at ~input:c.Jobs.input c.Jobs.wl c.Jobs.tech c.Jobs.threads)
      with
      | o -> (c, Ok o)
      | exception e -> (c, Error (Printexc.to_string e)))
    points

(* The serve codec on this workload's own frames: each class's Run request
   and the Outcome reply its execution produced. *)
let codec ~tr ~reps (frames : (Jobs.cls * Proto.summary) list) =
  for _ = 1 to reps do
    List.iter
      (fun ((c : Jobs.cls), s) ->
        let r =
          SReq.make ~backend:`Native ~technique:(Cx.technique_name c.Jobs.tech) ~threads:c.Jobs.threads
            ~input:c.Jobs.input ~cache:`Rw (`Name c.Jobs.wl.Wl.Workload.name)
        in
        let f = Trace.span tr "serve.encode" (fun _ -> Proto.encode_client (Proto.Run r)) in
        Trace.sample tr "serve.frame_bytes" (float_of_int (String.length f));
        let o = Proto.encode_server (Proto.Outcome s) in
        Trace.sample tr "serve.frame_bytes" (float_of_int (String.length o));
        ignore (Trace.span tr "serve.decode" (fun _ -> Proto.decode_server o)))
      frames
  done

(* Waking the shared pool for an empty batch and joining it. *)
let pool_probe ~tr pool n =
  let noop = [| ignore; ignore |] in
  for _ = 1 to n do
    Trace.span tr "native.pool_run" (fun _ -> Nat.Pool.run pool noop)
  done
