(* One benchmark run: set up, measure, check, and report either the
   end-to-end metrics (untraced) or the per-layer metrics (traced). *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Nat = Xinv_native
module Proto = Xinv_serve.Protocol
module SClient = Xinv_serve.Client

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;  (** path of the [crossinv] executable *)
}

let workloads = [ "serve_small"; "native_spin" ]

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Metrics.metric * float * int) list;  (** value, sample count *)
  errors : string list;
  notes : (string * string) list;  (** extra lines for the human report *)
}

(* ---- set-up of each workload ---- *)

(* Every client sends every class once, then one Stats request. *)
let serve_warm (d : Proc.daemon) =
  let mu = Mutex.create () and out = ref [] in
  let client c =
    SClient.with_connection d.Proc.socket (fun fd ->
        List.iter
          (fun cl ->
            let tenant = Printf.sprintf "client%d" c in
            let ok =
              match SClient.request fd (Proto.Run (Loops.serve_request cl ~tenant)) with
              | Proto.Outcome s -> Loops.outcome_ok s
              | _ -> false
            in
            Mutex.lock mu; out := (Jobs.cls_name cl, ok) :: !out; Mutex.unlock mu)
          Jobs.serve_classes;
        ignore (SClient.request fd Proto.Stats))
  in
  let ths = List.init 2 (fun c -> Thread.create client c) in
  List.iter Thread.join ths;
  !out

let timed f =
  let a = Trace.now () in
  let r = f () in
  (Trace.now () -. a, r)

(* Run [setup] [k] times, tearing each down as soon as it is timed except
   the last, so every sample sees one instance only; report the median. *)
let repeat_setup k setup teardown =
  let rec go i times =
    let t, x = timed setup in
    if i = k then (Pstats.median (t :: times), x)
    else begin
      teardown x;
      go (i + 1) (t :: times)
    end
  in
  go 1 []

let native_env ~work tag =
  { Loops.pool = Nat.Pool.create ~workers:1; work; cache_dir = Proc.fresh_dir tag }

let drop_native_env (e : Loops.native_env) =
  Nat.Pool.shutdown e.Loops.pool;
  Proc.rm_rf e.Loops.cache_dir

(* A native environment whose analysis cache holds every class's plans
   and profiles: one warm-up request per class. *)
let warm_native ~work tag classes =
  let env = native_env ~work tag in
  let warm = List.map (fun c -> fst (Loops.run_class ~tr:Trace.off ~req:0 env c)) classes in
  (env, List.map (fun (s : Loops.sample) -> (s.Loops.item, s.Loops.ok)) warm)

(* ---- end-to-end metrics ---- *)

let class_speedups (r : Loops.result) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Loops.sample) ->
      match s.Loops.cls with
      | Some c when s.Loops.ok ->
          let k = (c.Jobs.wl.Wl.Workload.name, c.Jobs.tech) in
          Hashtbl.replace tbl k (s.Loops.lat_s :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
      | _ -> ())
    r.Loops.samples;
  Hashtbl.fold
    (fun (wl, tech) lats acc ->
      match (tech, Hashtbl.find_opt tbl (wl, Cx.Sequential)) with
      | Cx.Sequential, _ | _, None -> acc
      | _, Some seq -> (Pstats.median seq /. Pstats.median lats) :: acc)
    tbl []

let e2e ~setup_s ~setup_runs ~rss (r : Loops.result) =
  let lats = List.map (fun (s : Loops.sample) -> s.Loops.lat_s *. 1e3) r.Loops.samples in
  let completed = List.length (List.filter (fun (s : Loops.sample) -> s.Loops.ok) r.Loops.samples) in
  let speedups = class_speedups r in
  let n = List.length lats in
  (* The mean over the window: the daemon's poll, not the host's speed,
     paces serve_small's jobs, and native_spin reports the median of its
     processes' means. *)
  let req_per_s = float_of_int completed /. r.Loops.window_s in
  let v name = List.find (fun m -> m.Metrics.name = name) Metrics.end_to_end in
  [ (v "setup_s", setup_s, setup_runs);
    (v "req_per_s", req_per_s, completed);
    (v "latency_p50_ms", Pstats.quantile lats 0.5, n);
    (v "speedup_geomean", Pstats.geomean speedups, List.length speedups);
    (v "max_rss_mb", rss, 1) ]

let latency_p50 e =
  let _, v, _ = List.find (fun (m, _, _) -> m.Metrics.name = "latency_p50_ms") e in
  v

(* ---- measurement of one workload ---- *)

type measured = {
  setup_s : float;
  setup_runs : int;
  warm : (string * bool) list;  (** warm-up jobs and whether each was correct *)
  loop : trace:Trace.t -> until:Loops.until -> Loops.result;
  rss : unit -> float;
  teardown : unit -> unit;
}

let prepare ?stream opts ~setups =
  match opts.workload with
  | "serve_small" ->
      let setup () =
        let d = Proc.spawn_daemon ~exe:opts.daemon ~domains:1 in
        (d, serve_warm d)
      in
      let setup_s, (d, warm) = repeat_setup setups setup (fun (d, _) -> Proc.stop_daemon d) in
      { setup_s; setup_runs = setups; warm;
        loop = (fun ~trace ~until ->
          Loops.serve_loop ~tr:trace ~socket:d.Proc.socket ~seed:opts.seed ~clients:2 ~until ());
        rss = (fun () -> Proc.max_rss_mb (string_of_int d.Proc.pid));
        teardown = (fun () -> Proc.stop_daemon d) }
  | "native_spin" ->
      (* The warm-up fills the cache without the spin work, so the spin is
         calibrated after set-up, just before the measured loop: the library
         times the machine once, and that timing matches the host's speed
         during the loop better the closer to it it is taken. *)
      let setup () = warm_native ~work:Nat.Work.Off "native" Jobs.native_classes in
      let setup_s, (env, warm) = repeat_setup setups setup (fun (e, _) -> drop_native_env e) in
      let env = { env with Loops.work = Spin.work () } in
      { setup_s; setup_runs = setups; warm;
        loop = (fun ~trace ~until ->
          Loops.native_loop ~tr:trace ~env ~seed:opts.seed ?stream ~classes:Jobs.native_classes
            ~until ());
        rss = Proc.self_rss_mb;
        teardown = (fun () -> drop_native_env env) }
  | w -> invalid_arg ("unknown workload " ^ w)

let burn_note () = ("native.burn_ns_per_cycle", Printf.sprintf "%.4f" (Spin.burn_rate ()))

let finish ~attempted ~failed ~errors ~metrics ~notes =
  { correct = failed = 0 && errors = []; attempted; failed; metrics; errors; notes }

let warm_failed m = List.length (List.filter (fun (_, ok) -> not ok) m.warm)

let untraced ?(setups = 3) ?until ?stream opts =
  let m = prepare ?stream opts ~setups in
  let until = Option.value until ~default:(Loops.Seconds opts.seconds) in
  Fun.protect ~finally:m.teardown (fun () ->
      let r = m.loop ~trace:Trace.off ~until in
      let rss = m.rss () in
      let metrics = e2e ~setup_s:m.setup_s ~setup_runs:m.setup_runs ~rss r in
      let attempted = List.length r.Loops.samples + List.length m.warm in
      let failed = Loops.failed r + warm_failed m in
      finish ~attempted ~failed ~errors:r.Loops.errors ~metrics
        ~notes:[ ("warm-up", Printf.sprintf "%d jobs; set-up repeated %d times" (List.length m.warm) m.setup_runs);
                 ("spin", Spin.note ());
                 ("window_s", Printf.sprintf "%.3f" r.Loops.window_s);
                 burn_note () ])

(* Run [f] in a forked child and return its result, or [None] if the child
   failed.  Only valid while no domain other than the main one exists. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (try Marshal.to_channel oc (f ()) [] with e -> prerr_endline (Printexc.to_string e));
      close_out_noerr oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Some (Marshal.from_channel ic : report) with End_of_file | Failure _ -> None in
      close_in_noerr ic;
      ignore (Unix.waitpid [] pid);
      r

(* native_spin's work model is the library's calibrated spin, which times
   the machine once per process; that one timing is now and then off by up
   to 2.5x.  So the run forks one process after another until the window
   is used up, at least [min_parts] of them, each calibrating for itself,
   setting up once and timing one round of the mix, dealt from its own
   seeded stream; every metric is the median over the processes. *)
let min_parts = 5

let untraced_parts opts =
  let jobs = List.length Jobs.native_classes in
  let t_end = Trace.now () +. opts.seconds in
  let rec go parts rs =
    if parts >= min_parts && Trace.now () >= t_end then (parts, List.rev rs)
    else
      let r = in_child (fun () -> untraced ~setups:1 ~until:(Loops.Count jobs) ~stream:parts opts) in
      go (parts + 1) (Option.fold ~none:rs ~some:(fun r -> r :: rs) r)
  in
  let parts, rs = go 0 [] in
  let lost = parts - List.length rs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let metrics =
    List.map
      (fun (m : Metrics.metric) ->
        let vs = List.concat_map (fun r -> List.filter (fun (m', _, _) -> m' = m) r.metrics) rs in
        ( m,
          Pstats.median (List.map (fun (_, v, _) -> v) vs),
          List.fold_left (fun a (_, _, n) -> a + n) 0 vs ))
      Metrics.end_to_end
  in
  let part_notes =
    List.mapi
      (fun i r ->
        ( Printf.sprintf "process %d" (i + 1),
          String.concat "; "
            (List.map (fun (m, v, _) -> Printf.sprintf "%s %.6g" m.Metrics.name v) r.metrics
            @ List.filter_map
                (fun (k, v) -> if k = "native.burn_ns_per_cycle" then Some (k ^ " " ^ v) else None)
                r.notes) ))
      rs
  in
  finish ~attempted:(max 1 (sum (fun r -> r.attempted)))
    ~failed:(sum (fun r -> r.failed) + lost)
    ~errors:(List.init lost (fun _ -> "a measuring process failed") @ List.concat_map (fun r -> r.errors) rs)
    ~metrics:(if rs = [] then [] else metrics)
    ~notes:(("processes", Printf.sprintf "%d, each timing one round (%d jobs), metrics are their medians" parts jobs)
            :: part_notes)

(* ---- traced run ---- *)

(* The serve layer for the traced run: the daemon loop's replies against
   the same classes executed in-process on an identical 1-domain pool.
   Uses serve_small's own daemon and traced loop, or a probe daemon for a
   short loop on native_spin.  Returns every job it ran. *)
let serve_layer ~tr ~opts ~seconds own =
  let r, warm =
    match own with
    | Some r -> (r, [])
    | None ->
        let d = Proc.spawn_daemon ~exe:opts.daemon ~domains:1 in
        Fun.protect ~finally:(fun () -> Proc.stop_daemon d) (fun () ->
            let warm = serve_warm d in
            ( Loops.serve_loop ~tr ~socket:d.Proc.socket ~seed:opts.seed ~clients:2
                ~until:(Loops.Seconds seconds) (),
              warm ))
  in
  let env, ref_warm = warm_native ~work:Nat.Work.Off "serve-ref" Jobs.serve_classes in
  let refs =
    Fun.protect ~finally:(fun () -> drop_native_env env) (fun () ->
        List.concat_map
          (fun _ ->
            List.map
              (fun c ->
                fst (Loops.run_class ~tr ~span_name:"serve.inproc_ref" ~req:(Loops.fresh_req ()) env c))
              Jobs.serve_classes)
          [ 1; 2; 3 ])
  in
  let median_of name =
    Pstats.median
      (List.filter_map (fun (s : Loops.sample) -> if s.Loops.item = name then Some s.Loops.lat_s else None) refs)
  in
  List.iter
    (fun (s : Loops.sample) ->
      match s.Loops.cls with
      | Some _ when s.Loops.ok ->
          Trace.sample tr "serve.reply_lag_ms"
            ((s.Loops.lat_s -. median_of s.Loops.item) *. 1e3 -. s.Loops.queue_wait_ms)
      | _ -> ())
    r.Loops.samples;
  ((if own = None then Some r else None), warm @ ref_warm, refs)

let frames_of (samples : Loops.sample list) =
  List.fold_left
    (fun acc (s : Loops.sample) ->
      match (s.Loops.cls, s.Loops.summary) with
      | Some c, Some sm -> (c, sm) :: List.filter (fun (c', _) -> c' != c) acc
      | _ -> acc)
    [] samples

let traced opts =
  let m = prepare opts ~setups:1 in
  (* Half the window each for the untraced and the traced loop, so a
     traced run costs about what an untraced one does plus the probes. *)
  let until = Loops.Seconds (opts.seconds /. 2.) in
  let tr = Trace.create ~on:true in
  let attempted = ref (List.length m.warm) and failed = ref (warm_failed m) and errors = ref [] in
  let account (r : Loops.result) =
    attempted := !attempted + List.length r.Loops.samples;
    failed := !failed + Loops.failed r;
    errors := r.Loops.errors @ !errors
  in
  let account_jobs js =
    attempted := !attempted + List.length js;
    failed := !failed + List.length (List.filter (fun (_, ok) -> not ok) js)
  in
  let account_samples ss =
    attempted := !attempted + List.length ss;
    failed := !failed + List.length (List.filter (fun (s : Loops.sample) -> not s.Loops.ok) ss)
  in
  let scalars = ref [] in
  let setv ?(n = 1) k v = scalars := (k, (v, n)) :: !scalars in
  let plain, with_spans, rss =
    Fun.protect ~finally:m.teardown (fun () ->
        let plain = m.loop ~trace:Trace.off ~until in
        account plain;
        let with_spans = m.loop ~trace:tr ~until in
        account with_spans;
        (* The serve layer, on this workload's daemon or a probe daemon. *)
        let probe_loop, warm, refs =
          serve_layer ~tr ~opts ~seconds:(Float.min 3. opts.seconds)
            (if opts.workload = "serve_small" then Some with_spans else None)
        in
        Option.iter account probe_loop;
        account_jobs warm;
        account_samples refs;
        (plain, with_spans, m.rss ()))
  in
  let e_plain = e2e ~setup_s:m.setup_s ~setup_runs:m.setup_runs ~rss plain in
  let e_traced = e2e ~setup_s:m.setup_s ~setup_runs:m.setup_runs ~rss with_spans in
  setv ~n:2 "trace.overhead_ratio" (latency_p50 e_traced /. latency_p50 e_plain);
  (* Core, native and cache layers. *)
  let probe_env, probe_classes =
    let work, classes =
      if opts.workload = "native_spin" then (Spin.work (), Jobs.native_classes)
      else (Nat.Work.Off, Jobs.probe_classes)
    in
    let env, warm = warm_native ~work "probe" classes in
    account_jobs warm;
    (env, classes)
  in
  let core_samples, acc, errs =
    Fun.protect ~finally:(fun () -> drop_native_env probe_env) (fun () ->
        let res = Layers.core_native ~tr ~env:probe_env ~reps:2 probe_classes in
        Layers.cache_probe ~tr ~cache_dir:probe_env.Loops.cache_dir ~reps:5 probe_classes;
        Layers.pool_probe ~tr probe_env.Loops.pool 200;
        res)
  in
  account_samples core_samples;
  errors := errs @ !errors;
  failed := !failed + List.length errs;
  let hits = List.fold_left (fun a (s : Loops.sample) -> a + s.Loops.hits) 0 with_spans.Loops.samples in
  let misses = List.fold_left (fun a (s : Loops.sample) -> a + s.Loops.misses) 0 with_spans.Loops.samples in
  setv ~n:(hits + misses) "cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  List.iter
    (fun c ->
      setv ~n:acc.Layers.calls ("native.stall_ms." ^ c)
        (Option.value ~default:0. (Hashtbl.find_opt acc.Layers.stalls c)
        /. 1e6 /. float_of_int (max 1 acc.Layers.calls)))
    Metrics.stall_causes;
  setv ~n:(acc.Layers.committed + acc.Layers.misspecs) "native.spec_commit_ratio"
    (float_of_int acc.Layers.committed
    /. float_of_int (max 1 (acc.Layers.committed + acc.Layers.misspecs)));
  setv ~n:5 "native.burn_ns_per_cycle" (Spin.burn_rate ());
  (* Analysis and the simulator, on the probe set. *)
  Layers.analysis_probe ~tr probe_classes;
  List.iter
    (fun ((c : Jobs.cls), r) ->
      incr attempted;
      match r with
      | Ok o when o.Cx.verified -> ()
      | Ok _ -> incr failed
      | Error e -> incr failed; errors := (Jobs.cls_name c ^ ": " ^ e) :: !errors)
    (Layers.sim_points ~tr probe_classes);
  List.iter (Layers.sim_engine ~tr)
    (List.filter (fun (c : Jobs.cls) -> c.Jobs.tech <> Cx.Sequential) probe_classes);
  (* The serve codec on this workload's frames. *)
  Layers.codec ~tr ~reps:20 (frames_of with_spans.Loops.samples);
  (* One render of each paper artifact, checked against its digest. *)
  List.iter
    (fun id ->
      let s, err = Loops.render ~tr id in
      account_samples [ s ];
      Option.iter (fun e -> errors := e :: !errors) err)
    Jobs.sweep_ids;
  List.iter
    (fun id ->
      let ds = Trace.durations tr ("experiments.render." ^ id) in
      setv ~n:(List.length ds) ("experiments.render_s." ^ id) (Pstats.median ds))
    Jobs.sweep_ids;
  let metrics = Metrics.per_layer_values tr !scalars in
  let notes =
    List.map2
      (fun (m, u, _) (_, t, _) ->
        (m.Metrics.name, Printf.sprintf "untraced %.6g  traced %.6g %s" u t m.Metrics.unit_))
      e_plain e_traced
  in
  let spans_file =
    Filename.concat Proc.root
      (Printf.sprintf "spans-%s-seed%d.json" opts.workload opts.seed)
  in
  Trace.write tr spans_file;
  let self =
    List.map
      (fun (n, c, tot, self) ->
        ("self " ^ n, Printf.sprintf "%d spans, total %.3f s, self %.3f s" c tot self))
      (Trace.summary tr)
  in
  finish ~attempted:!attempted ~failed:!failed ~errors:!errors ~metrics
    ~notes:((("spans", Printf.sprintf "%d written to %s" (Trace.count tr) spans_file) :: notes) @ self)

let run opts =
  if opts.trace then traced opts
  else if opts.workload = "native_spin" then untraced_parts opts
  else untraced opts
