exception
  Stalled of { role : string; waiting_for : string; waited_ns : float }

exception Cancelled of string

type t = {
  deadline_at : float;  (* absolute Unix time; infinity when unbounded *)
  wait_timeout_s : float;  (* per-wait budget; infinity when unbounded *)
  root : exn option Atomic.t;
  stall_count : int Atomic.t;
}

let make deadline_at wait_timeout_s =
  {
    deadline_at;
    wait_timeout_s;
    root = Atomic.make None;
    stall_count = Atomic.make 0;
  }

let unbounded () = make infinity infinity

let create ?deadline_ms ?wait_timeout_ms () =
  let deadline_at =
    match deadline_ms with
    | None -> infinity
    | Some ms ->
        if ms <= 0. then invalid_arg "Watchdog.create: deadline must be positive";
        Unix.gettimeofday () +. (ms /. 1e3)
  in
  let wait_timeout_s =
    match wait_timeout_ms with
    | None -> infinity
    | Some ms ->
        if ms <= 0. then invalid_arg "Watchdog.create: timeout must be positive";
        ms /. 1e3
  in
  make deadline_at wait_timeout_s

let bounded t = t.deadline_at < infinity || t.wait_timeout_s < infinity

(* A fresh watchdog for the recovery join after cohort cancellation: the
   original absolute deadline may already have expired — that can be
   exactly why the join stalled — but the unwinding workers still deserve
   one full wait window before the pool is declared wedged.  Bounds are
   relative to now; cancellation state is not carried (the recovery join
   is non-cancellable anyway). *)
let grace t =
  let w = if t.wait_timeout_s < infinity then t.wait_timeout_s else 5. in
  make (Unix.gettimeofday () +. w) w
let cancelled t = Atomic.get t.root <> None
let root_cause t = Atomic.get t.root
let stalls t = Atomic.get t.stall_count

let rec cancel t e =
  match Atomic.get t.root with
  | Some _ -> false
  | None -> Atomic.compare_and_set t.root None (Some e) || cancel t e

let raise_if_cancelled t ~role = if cancelled t then raise (Cancelled role)

let stall t ~role ~for_ ~started =
  Atomic.incr t.stall_count;
  let waited_ns = (Unix.gettimeofday () -. started) *. 1e9 in
  raise (Stalled { role; waiting_for = for_; waited_ns })

(* Clock reads are amortized over the spin phase, however long it lasts:
   only every 32nd spin step checks the clock; once the backoff naps,
   every iteration does (the nap dominates the gettimeofday). *)
let check_clock b = Backoff.steps b land 31 = 0 || Backoff.napping b

let wait ?(cancellable = true) t ~role ~for_ pred =
  if not (pred ()) then begin
    let b = Backoff.create () in
    let time_bounded = bounded t in
    let started = if time_bounded then Unix.gettimeofday () else 0. in
    let give_up_at = Float.min (started +. t.wait_timeout_s) t.deadline_at in
    let continue = ref true in
    while !continue do
      if pred () then continue := false
      else if cancellable && cancelled t then raise (Cancelled role)
      else begin
        if time_bounded && check_clock b && Unix.gettimeofday () > give_up_at
        then stall t ~role ~for_ ~started;
        Backoff.once b
      end
    done
  end

let park t ~role =
  let b = Backoff.create () in
  let time_bounded = bounded t in
  let started = if time_bounded then Unix.gettimeofday () else 0. in
  let give_up_at = Float.min (started +. t.wait_timeout_s) t.deadline_at in
  while true do
    if cancelled t then raise (Cancelled role);
    if time_bounded && check_clock b && Unix.gettimeofday () > give_up_at then
      stall t ~role ~for_:"park" ~started;
    Backoff.once b
  done;
  assert false
