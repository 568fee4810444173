(* Process-level plumbing: the run directory, peak RSS, and the serve
   daemon child process.  Everything the benchmark writes lives under
   [.perfbench/] in the current directory. *)

let root = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let counter = ref 0

(* A fresh scratch directory for this process, removed by the caller. *)
let fresh_dir tag =
  incr counter;
  let d =
    Filename.concat root
      (Printf.sprintf "tmp/%d-%s-%d" (Unix.getpid ()) tag !counter)
  in
  rm_rf d;
  mkdir_p d;
  d

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let max_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let self_rss_mb () = max_rss_mb "self"

(* ---- the serve daemon ---- *)

type daemon = { pid : int; socket : string; dir : string }

let live : daemon list ref = ref []

let reap d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Never leave a daemon behind, whatever path the benchmark exits by. *)
let () = at_exit (fun () -> List.iter reap !live)

(* Start [exe serve] on a socket in a fresh directory (relative path: the
   checkout path may exceed the 107-byte sun_path limit) and wait until it
   accepts connections. *)
let spawn_daemon ~exe ~domains =
  let dir = fresh_dir "serve" in
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| exe; "serve"; "--socket"; socket; "--domains"; string_of_int domains;
       "--cache"; "rw"; "--cache-dir"; Filename.concat dir "cache" |]
  in
  let pid = Unix.create_process exe args null log log in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket; dir } in
  live := d :: !live;
  let deadline = Trace.now () +. 30. in
  let rec wait () =
    match Xinv_serve.Client.connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun x -> x.pid <> pid) !live;
            failwith "serve daemon exited during start-up");
        if Trace.now () > deadline then (reap d; failwith "serve daemon did not start");
        Thread.delay 0.005;
        wait ()
  in
  wait ();
  d

(* Ask for a clean shutdown and wait for the process to exit; kill it if it
   does not go within ten seconds. *)
let stop_daemon d =
  (try ignore (Xinv_serve.Client.call ~socket:d.socket Xinv_serve.Protocol.Shutdown)
   with _ -> ());
  let deadline = Trace.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Trace.now () < deadline -> Thread.delay 0.01; wait ()
    | 0, _ -> reap d
    | _ -> live := List.filter (fun x -> x.pid <> d.pid) !live
    | exception Unix.Unix_error _ -> live := List.filter (fun x -> x.pid <> d.pid) !live
  in
  wait ();
  rm_rf d.dir
