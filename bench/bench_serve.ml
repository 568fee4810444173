(* Serve-mode benchmark: request throughput and queue-wait latency of the
   resident daemon, in-process and over its Unix-domain socket, with a
   cold versus warm analysis cache.

   Usage:
     bench_serve --smoke        tiny fixed-size run attached to `dune
                                runtest`: exercises submit/await, the
                                socket path and the stats surface, and
                                asserts one shared pool + all verified
     bench_serve [--json OUT]   full matrix {inproc,socket} x {cold,warm};
                                --json writes schema xinv-serve-bench/1
                                (BENCH_PR10.json by convention)

   Rows report requests/s (submit-to-last-outcome wall time) and the
   daemon's own serve.queue_wait_ms histogram p50/p99, plus the summed
   per-run analysis-cache hits/misses — the warm rows are the cross-
   invocation claim in one number: same daemon, same pool, reused
   analyses. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Proto = Xinv_serve.Protocol
module SReq = Xinv_serve.Request
module Server = Xinv_serve.Server
module SClient = Xinv_serve.Client
module Metrics = Xinv_obs.Metrics

let tmpdir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with _ -> ()
  end

(* The request mix: native DOMORE runs so the shared pool and the
   analysis cache (DOMORE plans) are both on the hot path; four workloads
   so the cache holds more than one fingerprint; two tenants and a
   priority sprinkle so the fairness queue does real work. *)
let mix n =
  let wls = [| "SYMM"; "CG"; "LLUBENCH"; "ECLAT" |] in
  List.init n (fun i ->
      SReq.make ~backend:`Native ~technique:"domore" ~threads:2
        ~input:Wl.Workload.Train ~cache:`Rw
        ~priority:(if i mod 7 = 0 then `High else `Normal)
        ~tenant:(if i mod 2 = 0 then "alice" else "bob")
        (`Name wls.(i mod Array.length wls)))

type row = {
  r_name : string;
  r_requests : int;
  r_clients : int;
  r_elapsed_ns : float;
  r_req_per_s : float;
  r_wait_p50_ms : float;
  r_wait_p99_ms : float;
  r_cache_hits : int;
  r_cache_misses : int;
  r_pool_creates : int;
  r_failures : int;
}

let finish_row ~name ~clients ~elapsed_ns ~outcomes ~failures srv =
  let h = Metrics.histogram (Server.metrics srv) "serve.queue_wait_ms" in
  let hits, misses =
    List.fold_left
      (fun (h, m) (s : Proto.summary) ->
        (h + s.Proto.o_cache_hits, m + s.Proto.o_cache_misses))
      (0, 0) outcomes
  in
  {
    r_name = name;
    r_requests = List.length outcomes + failures;
    r_clients = clients;
    r_elapsed_ns = elapsed_ns;
    r_req_per_s =
      float_of_int (List.length outcomes + failures) /. (elapsed_ns /. 1e9);
    r_wait_p50_ms = Metrics.quantile h 0.5;
    r_wait_p99_ms = Metrics.quantile h 0.99;
    r_cache_hits = hits;
    r_cache_misses = misses;
    r_pool_creates = Server.pool_creates srv;
    r_failures = failures;
  }

let server ~cache_dir () =
  let srv =
    Server.create
      { Server.default_config with Server.domains = 2; cache = `Rw;
        cache_dir = Some cache_dir }
  in
  srv

(* ---- in-process row: batch-submit then await ---- *)

let inproc_row ~name ~cache_dir n =
  let srv = server ~cache_dir () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      Server.start srv;
      let t0 = Unix.gettimeofday () in
      let jobs = List.map (Server.submit srv) (mix n) in
      let outcomes, failures =
        List.fold_left
          (fun (os, f) j ->
            match Server.await j with
            | Proto.Outcome s when s.Proto.o_verified -> (s :: os, f)
            | _ -> (os, f + 1))
          ([], 0) jobs
      in
      let elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      finish_row ~name ~clients:1 ~elapsed_ns ~outcomes ~failures srv)

(* ---- socket row: [clients] threads over persistent connections ---- *)

let socket_row ~name ~cache_dir ~clients n =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xinv-bench-%d.sock" (Unix.getpid ()))
  in
  let srv = server ~cache_dir () in
  let daemon = Thread.create (fun () -> Server.serve srv ~socket) () in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait_up () =
    match SClient.with_connection socket (fun _ -> ()) with
    | () -> ()
    | exception _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        wait_up ()
    | exception e -> raise e
  in
  wait_up ();
  let per_client = n / clients in
  let mu = Mutex.create () in
  let outcomes = ref [] and failures = ref 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            SClient.with_connection socket (fun fd ->
                List.iter
                  (fun req ->
                    match SClient.request fd (Proto.Run req) with
                    | Proto.Outcome s when s.Proto.o_verified ->
                        Mutex.lock mu;
                        outcomes := s :: !outcomes;
                        Mutex.unlock mu
                    | _ ->
                        Mutex.lock mu;
                        incr failures;
                        Mutex.unlock mu)
                  (mix per_client);
                ignore c))
          ())
  in
  List.iter Thread.join threads;
  let elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let row =
    finish_row ~name ~clients ~elapsed_ns ~outcomes:!outcomes
      ~failures:!failures srv
  in
  (match SClient.call ~socket Proto.Shutdown with
  | Proto.Shutdown_ack _ -> ()
  | _ -> prerr_endline "bench serve: unexpected shutdown reply");
  Thread.join daemon;
  row

(* ---- output ---- *)

let print_row r =
  Printf.printf
    "%-14s %5d req %d client%s  %8.1f req/s  queue-wait p50 %6.3f ms  p99 %6.3f ms  cache %d hit / %d miss  pools %d%s\n"
    r.r_name r.r_requests r.r_clients
    (if r.r_clients = 1 then " " else "s")
    r.r_req_per_s r.r_wait_p50_ms r.r_wait_p99_ms r.r_cache_hits
    r.r_cache_misses r.r_pool_creates
    (if r.r_failures > 0 then Printf.sprintf "  FAILURES %d" r.r_failures
     else "")

let emit_json ~out rows =
  let oc = open_out out in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"xinv-serve-bench/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string b (Printf.sprintf "  \"protocol\": \"%s\",\n" Xinv_serve.Wire.schema);
  Buffer.add_string b "  \"input\": \"train\",\n";
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"requests\": %d, \"clients\": %d, \
            \"elapsed_ns\": %.0f, \"req_per_s\": %.2f, \
            \"queue_wait_p50_ms\": %.4f, \"queue_wait_p99_ms\": %.4f, \
            \"cache_hits\": %d, \"cache_misses\": %d, \"pool_creates\": %d, \
            \"failures\": %d}%s\n"
           r.r_name r.r_requests r.r_clients r.r_elapsed_ns r.r_req_per_s
           r.r_wait_p50_ms r.r_wait_p99_ms r.r_cache_hits r.r_cache_misses
           r.r_pool_creates r.r_failures
           (if i = n - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n" out

let assert_sane rows =
  let bad = ref false in
  List.iter
    (fun r ->
      if r.r_failures > 0 then begin
        Printf.eprintf "bench serve FAIL: %s had %d failed requests\n"
          r.r_name r.r_failures;
        bad := true
      end;
      if r.r_pool_creates <> 1 then begin
        Printf.eprintf "bench serve FAIL: %s created %d pools (want 1)\n"
          r.r_name r.r_pool_creates;
        bad := true
      end)
    rows;
  if !bad then exit 1

(* ---- modes ---- *)

let smoke () =
  let dir = tmpdir "xinv-serve-smoke" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let a = inproc_row ~name:"inproc-cold" ~cache_dir:dir 12 in
      let b = socket_row ~name:"socket-warm" ~cache_dir:dir ~clients:2 8 in
      print_row a;
      print_row b;
      assert_sane [ a; b ];
      if b.r_cache_hits = 0 then begin
        prerr_endline
          "bench serve FAIL: warm socket row saw zero analysis-cache hits";
        exit 1
      end;
      print_string "bench serve smoke: ok\n")

let full ~json =
  let n = 200 in
  let dir1 = tmpdir "xinv-serve-bench-a" and dir2 = tmpdir "xinv-serve-bench-b" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir1;
      rm_rf dir2)
    (fun () ->
      (* sequenced lets: list elements evaluate right-to-left, and cold
         rows must run before their warm twin on the shared cache dir *)
      let r1 = inproc_row ~name:"inproc-cold" ~cache_dir:dir1 n in
      let r2 = inproc_row ~name:"inproc-warm" ~cache_dir:dir1 n in
      let r3 = socket_row ~name:"socket-cold" ~cache_dir:dir2 ~clients:4 n in
      let r4 = socket_row ~name:"socket-warm" ~cache_dir:dir2 ~clients:4 n in
      let rows = [ r1; r2; r3; r4 ] in
      List.iter print_row rows;
      assert_sane rows;
      match json with Some out -> emit_json ~out rows | None -> ())

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--smoke" args then smoke ()
  else
    let rec json = function
      | "--json" :: out :: _ -> Some out
      | _ :: rest -> json rest
      | [] -> None
    in
    full ~json:(json args)
