(* The measured closed loops of the three workloads.  Each loop takes a
   recorder: off for end-to-end runs, on for traced runs, where it adds a
   span around every call it makes and nothing else. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Nat = Xinv_native
module Proto = Xinv_serve.Protocol
module SReq = Xinv_serve.Request
module SClient = Xinv_serve.Client
module E = Xinv_experiments.Experiments

type until = Seconds of float | Count of int

(* One completed job as the caller saw it. *)
type sample = {
  item : string;  (** class name, "stats", or an artifact id *)
  cls : Jobs.cls option;
  lat_s : float;
  ok : bool;
  executed : string;  (** technique that ran, or "" *)
  hits : int;
  misses : int;
  queue_wait_ms : float;  (** daemon-reported; nan off the serve path *)
  summary : Proto.summary option;
}

type result = {
  samples : sample list;  (** completion order *)
  window_s : float;
  errors : string list;
}

(* A job's sample with nothing but its outcome known. *)
let job ?cls ~ok item lat_s =
  { item; cls; lat_s; ok; executed = ""; hits = 0; misses = 0; queue_wait_ms = nan;
    summary = None }

let failed r = List.length (List.filter (fun s -> not s.ok) r.samples)

let next_req = Atomic.make 1
let fresh_req () = Atomic.fetch_and_add next_req 1

let stop_of until =
  match until with
  | Seconds s ->
      let t_end = Trace.now () +. s in
      fun _ -> Trace.now () >= t_end
  | Count n -> fun done_ -> done_ >= n

(* ---- serve_small: closed loop of daemon clients ---- *)

let serve_request (c : Jobs.cls) ~tenant =
  SReq.make ~backend:`Native ~technique:(Cx.technique_name c.Jobs.tech)
    ~threads:c.Jobs.threads ~input:c.Jobs.input ~cache:`Rw ~tenant
    (`Name c.Jobs.wl.Wl.Workload.name)

let outcome_ok (s : Proto.summary) = s.Proto.o_verified && s.Proto.o_mismatches = 0 && s.Proto.o_degraded = []

(* [clients] threads, each on its own persistent connection with its own
   seeded stream; each sends its next request only after the reply. *)
let serve_loop ~tr ~socket ~seed ~clients ~until () =
  let mu = Mutex.create () in
  let samples = ref [] and errors = ref [] in
  let add s = Mutex.lock mu; samples := s :: !samples; Mutex.unlock mu in
  let t0 = Trace.now () in
  let client c =
    let tenant = Printf.sprintf "client%d" c in
    let g = Jobs.gen ~stats_share:0.125 ~seed ~stream:c Jobs.serve_classes in
    let stop = stop_of until in
    try
      SClient.with_connection socket (fun fd ->
          let n = ref 0 in
          while not (stop !n) do
            let item = Jobs.next g in
            let req = fresh_req () in
            let msg, span_name =
              match item with
              | Jobs.Run cl -> (Proto.Run (serve_request cl ~tenant), "serve.request")
              | Jobs.Stats -> (Proto.Stats, "serve.stats")
            in
            let a = Trace.now () in
            let reply = Trace.span tr ~req span_name (fun _ -> SClient.request fd msg) in
            let lat_s = Trace.now () -. a in
            let base = job ~ok:false (Jobs.item_name item) lat_s in
            (match (item, reply) with
            | Jobs.Run cl, Proto.Outcome s ->
                let qw = s.Proto.o_queue_wait_ns /. 1e6 in
                Trace.sample tr "serve.queue_wait_ms" qw;
                add { base with cls = Some cl; ok = outcome_ok s; executed = s.Proto.o_technique;
                      hits = s.Proto.o_cache_hits; misses = s.Proto.o_cache_misses;
                      queue_wait_ms = qw; summary = Some s }
            | Jobs.Stats, Proto.Stats_reply _ -> add { base with ok = true }
            | _, r ->
                add base;
                Mutex.lock mu;
                errors := Format.asprintf "%s: %a" base.item Proto.pp_server r :: !errors;
                Mutex.unlock mu);
            incr n
          done)
    with e ->
      Mutex.lock mu;
      errors := Printf.sprintf "client %d: %s" c (Printexc.to_string e) :: !errors;
      Mutex.unlock mu
  in
  let ths = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join ths;
  { samples = List.rev !samples; window_s = Trace.now () -. t0; errors = !errors }

(* ---- native_spin: one in-process caller over run_request ---- *)

type native_env = {
  pool : Nat.Pool.t;
  work : Nat.Work.t;
  cache_dir : string;
}

let native_request env (c : Jobs.cls) =
  Cx.Request.make
    ~backend:(`Native { Cx.native_defaults with Cx.work = env.work; pool = Some env.pool })
    ~input:c.Jobs.input ~cache:`Rw ~cache_dir:env.cache_dir ~technique:c.Jobs.tech
    ~threads:c.Jobs.threads c.Jobs.wl

let run_class ~tr ?span_name ~req env (c : Jobs.cls) =
  let name =
    match span_name with
    | Some n -> n
    | None -> "core.request." ^ Cx.technique_name c.Jobs.tech
  in
  let a = Trace.now () in
  match Trace.span tr ~req name (fun _ -> Cx.run_request (native_request env c)) with
  | o ->
      let lat_s = Trace.now () -. a in
      ( { (job ~cls:c ~ok:(o.Cx.verified && o.Cx.degraded = []) (Jobs.cls_name c) lat_s) with
          executed = Cx.technique_name o.Cx.technique; hits = o.Cx.cache_hits;
          misses = o.Cx.cache_misses;
          summary =
            Some (Proto.summary_of_outcome ~workload:c.Jobs.wl.Wl.Workload.name
                    ~queue_wait_ns:0. o) },
        None )
  | exception e ->
      ( job ~cls:c ~ok:false (Jobs.cls_name c) (Trace.now () -. a),
        Some (Printf.sprintf "%s: %s" (Jobs.cls_name c) (Printexc.to_string e)) )

let native_loop ~tr ~env ~seed ?(stream = 0) ~classes ~until () =
  let g = Jobs.gen ~seed ~stream classes in
  let stop = stop_of until in
  let samples = ref [] and errors = ref [] in
  let t0 = Trace.now () in
  let n = ref 0 in
  while not (stop !n) do
    (match Jobs.next g with
    | Jobs.Run c ->
        let s, err = run_class ~tr ~req:(fresh_req ()) env c in
        samples := s :: !samples;
        Option.iter (fun e -> errors := e :: !errors) err
    | Jobs.Stats -> ());
    incr n
  done;
  { samples = List.rev !samples; window_s = Trace.now () -. t0; errors = !errors }

(* ---- the paper artifacts ---- *)

(* One render of an artifact, checked against its recorded digest. *)
let render ~tr id =
  let req = fresh_req () in
  let a = Trace.now () in
  match Trace.span tr ~req ("experiments.render." ^ id) (fun _ -> (E.find id).E.render ()) with
  | text -> (
      match Jobs.check_digest id text with
      | Ok () -> (job ~ok:true id (Trace.now () -. a), None)
      | Error m -> (job ~ok:false id (Trace.now () -. a), Some m))
  | exception e ->
      (job ~ok:false id (Trace.now () -. a), Some (Printf.sprintf "%s: %s" id (Printexc.to_string e)))
