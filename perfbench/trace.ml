(* In-memory span recorder for traced runs.

   A span is one timed call into a layer, made from the benchmark's own
   code: a name, start and end (monotonic seconds), the span that caused it
   (0 for none) and the request it belongs to (0 for none).  Next to the
   spans the recorder keeps named value samples taken at the same call
   boundaries (frame sizes, queue waits reported by the daemon, GC
   deltas, ...).  Nothing is written until {!write} at the end of the run.

   A disabled recorder still runs every wrapped call but records nothing,
   so a traced and an untraced run execute the same work. *)

(* Monotonic clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
}

type t = {
  on : bool;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
  samples : (string, float list ref) Hashtbl.t;
}

let create ~on =
  { on; mu = Mutex.create (); next = 1; spans = []; samples = Hashtbl.create 64 }

let off = create ~on:false

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [span t name f] runs [f id] and records its interval; [id] is the new
   span's identifier, to pass as [parent] to nested spans (0 when off). *)
let span t ?(parent = 0) ?(req = 0) name f =
  if not t.on then f 0
  else begin
    let id = locked t (fun () -> let id = t.next in t.next <- id + 1; id) in
    let t0 = now () in
    let finish () =
      let s = { id; name; parent; req; t0; t1 = now () } in
      locked t (fun () -> t.spans <- s :: t.spans)
    in
    match f id with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

let sample t name v =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.samples name with
        | Some r -> r := v :: !r
        | None -> Hashtbl.add t.samples name (ref [ v ]))

let spans t = List.rev t.spans
let count t = List.length t.spans
let samples t name =
  match Hashtbl.find_opt t.samples name with Some r -> List.rev !r | None -> []

(* Durations, in seconds, of every span with this name. *)
let durations t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (s.t1 -. s.t0) else None)
    (spans t)

(* Self time: the span's duration minus the part of its interval covered
   by its children (overlapping children are merged, not double-counted). *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    t.spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = Float.max a upto in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0., neg_infinity) kids
      in
      (s, s.t1 -. s.t0 -. covered))
    (spans t)

(* Per span name: count, total and self seconds, in first-seen order. *)
let summary t =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (n, tot, sf) -> Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), sf +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.add tbl s.name (1, s.t1 -. s.t0, self))
    (self_times t);
  List.rev_map (fun n -> let c, tot, sf = Hashtbl.find tbl n in (n, c, tot, sf)) !order

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"spans\": [\n";
      List.iteri
        (fun i (s, self) ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \
             \"start\": %.6f, \"end\": %.6f, \"self_s\": %.9f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.req s.t0 s.t1 self)
        (self_times t);
      output_string oc "],\n\"samples\": {";
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.samples [] |> List.sort compare in
      List.iteri
        (fun i n ->
          Printf.fprintf oc "%s\n  %S: [%s]"
            (if i = 0 then "" else ",")
            n
            (String.concat ", " (List.map (Printf.sprintf "%.6g") (samples t n))))
        names;
      output_string oc "\n}}\n")
