type msg = Idle | Job of (unit -> unit) | Quit

type slot = {
  cell : msg Atomic.t;
  done_ : int Atomic.t;  (* jobs completed; read by the dispatcher to join *)
  err : exn option Atomic.t;
}

type t = { slots : slot array; doms : unit Domain.t array; mutable live : bool }

let worker_loop (s : slot) =
  let b = Backoff.create () in
  let running = ref true in
  while !running do
    match Atomic.get s.cell with
    | Idle -> Backoff.once b
    | Quit -> running := false
    | Job f ->
        Backoff.reset b;
        (try f () with e -> Atomic.set s.err (Some e));
        Atomic.set s.cell Idle;
        Atomic.incr s.done_
  done

let create ~workers =
  if workers < 0 then invalid_arg "Pool.create: negative worker count";
  let slots =
    Array.init workers (fun _ ->
        { cell = Atomic.make Idle; done_ = Atomic.make 0; err = Atomic.make None })
  in
  let doms = Array.map (fun s -> Domain.spawn (fun () -> worker_loop s)) slots in
  { slots; doms; live = true }

let workers t = Array.length t.doms
let live t = t.live

let run ?wd ?(on_stall = fun (_ : exn) -> ()) t fns =
  if not t.live then invalid_arg "Pool.run: pool was shut down";
  let n = Array.length fns in
  if n = 0 then ()
  else begin
    if n - 1 > Array.length t.doms then invalid_arg "Pool.run: too many functions";
    Backoff.add_active n;
    Fun.protect ~finally:(fun () -> Backoff.add_active (-n)) @@ fun () ->
    let before = Array.init (n - 1) (fun i -> Atomic.get t.slots.(i).done_) in
    for i = 1 to n - 1 do
      let s = t.slots.(i - 1) in
      Atomic.set s.err None;
      Atomic.set s.cell (Job fns.(i))
    done;
    let main_err = ref None in
    (try fns.(0) () with e -> main_err := Some e);
    let join i =
      let s = t.slots.(i - 1) in
      let pred () = Atomic.get s.done_ > before.(i - 1) in
      match wd with
      | None -> Backoff.wait_until pred
      | Some wd -> (
          (* The join must outlive cancellation — cancelled workers are
             still unwinding — so it is non-cancellable. *)
          let role = "pool" and for_ = Printf.sprintf "join of worker %d" i in
          try Watchdog.wait ~cancellable:false wd ~role ~for_ pred
          with Watchdog.Stalled _ as stall -> (
            (* Give the caller one chance to cancel the cohort (close
               queues, poison barriers) and the worker one more timeout
               window to unwind before declaring it wedged.  The window
               comes from a fresh grace watchdog: the original absolute
               deadline may already be in the past — often exactly why
               this join stalled — and a zero-width second chance would
               condemn a shared pool whose workers unwind fine once
               cancelled. *)
            on_stall stall;
            try Watchdog.wait ~cancellable:false (Watchdog.grace wd) ~role ~for_ pred
            with Watchdog.Stalled _ ->
              (* The domain is unrecoverable; abandoning its join would
                 corrupt the next run, so the pool dies with it.  The
                 domain itself is leaked until process exit. *)
              t.live <- false;
              raise stall))
    in
    let join_err = ref None in
    for i = 1 to n - 1 do
      try join i with e -> if !join_err = None then join_err := Some e
    done;
    (match !join_err with Some e -> raise e | None -> ());
    (match !main_err with Some e -> raise e | None -> ());
    Array.iteri
      (fun i s -> if i < n - 1 then
          match Atomic.get s.err with Some e -> raise e | None -> ())
      t.slots
  end

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter (fun s -> Atomic.set s.cell Quit) t.slots;
    Array.iter Domain.join t.doms
  end

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
