module Ir = Xinv_ir
module Rt = Xinv_runtime
module Obs = Xinv_obs
module Protocol = Xinv_domore.Protocol

type config = {
  policy : Xinv_domore.Policy.t;
  workers : int;
  queue_capacity : int;
  work : Work.t;
  grain : int;
  batch : int;
}

let default_config ~workers =
  { policy = Xinv_domore.Policy.Round_robin; workers; queue_capacity = 1024;
    work = Work.Off; grain = 1; batch = 32 }

(* Do-frame framing: the Sync_cond encoding never produces tag 3, so a header
   word with low bits 11 is unambiguous on the same queue.  Bit 2
   distinguishes the single-iteration frame [hdr; t; j; iter] from the
   chunked frame [hdr; t; j0; len; iter0] carrying [len] consecutive
   iterations — grain 1 keeps the wire format (and word count) of the
   per-iteration protocol. *)
let do_header inner = 3 lor (inner lsl 3)
let do_chunk_header inner = 7 lor (inner lsl 3)
let end_word = Rt.Sync_cond.to_int Rt.Sync_cond.End_token

module Substrate = struct
  type t = {
    pool : Pool.t;
    wd : Watchdog.t;
    fault : Fault.t option;
    fr : Obs.Flight.t option;
    work : Work.t;
    stat : Stallcat.t;
    dup : bool;  (* duplicated scheduler: no scheduler domain, no queues *)
    queues : int Spsc.t array;
    bufs : int Spsc.Batch.b array;
    cells : int Atomic.t array;
    roles : string array;  (* watchdog role of worker [w] *)
    nsealed : Pad.cell;  (* Do frames sent; scheduler-only *)
    mutable wall_ns : float;
  }

  let workers st = Array.length st.cells

  (* Flight ring of worker [w]: a dedicated scheduler owns ring 0. *)
  let ring st w = if st.dup then w else w + 1

  let ev st k ~domain ~a ~b =
    match st.fr with Some f -> Obs.Flight.record f ~domain k ~a ~b | None -> ()

  (* Closing the queues (rather than pushing end tokens, which can block on a
     full queue whose consumer is dead) wakes every worker even if the
     scheduler died. *)
  let run st roles =
    st.wall_ns <-
      Nrun.run_cohort ~pool:st.pool ~wd:st.wd
        ~release:(fun () -> Array.iter Spsc.close st.queues)
        roles

  (* A blocked producer must keep draining *every* buffer: the words that
     would let the consumer it waits on make progress may sit, still
     unpublished, in a peer's buffer. *)
  let drain_all st =
    let all = ref true in
    for w = 0 to Array.length st.bufs - 1 do
      if not (Spsc.Batch.try_flush st.bufs.(w)) then all := false
    done;
    !all

  let push st w word =
    if not (Spsc.Batch.add st.bufs.(w) word) then
      Stallcat.timed ?fr:st.fr ~domain:0 st.stat Stallcat.Queue_full (fun () ->
          Watchdog.wait st.wd ~role:"scheduler"
            ~for_:(Printf.sprintf "space on worker %d's queue" w)
            (fun () ->
              ignore (drain_all st);
              Spsc.Batch.add st.bufs.(w) word))

  let send_wait st w ~dep_tid ~dep_iter =
    push st w (Rt.Sync_cond.to_int (Rt.Sync_cond.Wait { dep_tid; dep_iter }));
    ev st Obs.Flight.Sync_send ~domain:0 ~a:dep_iter ~b:(w + 1)

  let send_do st w ~inner ~outer ~j ~len ~iter =
    if len = 1 then begin
      push st w (do_header inner);
      push st w outer;
      push st w j;
      push st w iter
    end
    else begin
      push st w (do_chunk_header inner);
      push st w outer;
      push st w j;
      push st w len;
      push st w iter
    end;
    ev st Obs.Flight.Dispatch ~domain:0 ~a:iter ~b:(w + 1);
    st.nsealed.Pad.v <- st.nsealed.Pad.v + 1;
    if st.nsealed.Pad.v land 63 = 0 then
      ev st Obs.Flight.Queue_sample ~domain:0 ~a:w ~b:(Spsc.length st.queues.(w))

  let send_end st w = push st w end_word

  let flush st =
    if not (drain_all st) then
      Stallcat.timed ?fr:st.fr ~domain:0 st.stat Stallcat.Queue_full (fun () ->
          Watchdog.wait st.wd ~role:"scheduler" ~for_:"worker queue space (flush)"
            (fun () -> drain_all st))

  let queue_length st w =
    Spsc.length st.queues.(w) + Spsc.Batch.pending st.bufs.(w)

  (* Worker side, with a local read buffer: one atomic head update per
     refill instead of one per word. *)
  type rx = {
    rst : t;
    w : int;
    q : int Spsc.t;
    rbuf : int array;
    mutable rpos : int;
    mutable rlen : int;
  }

  let receiver st w = { rst = st; w; q = st.queues.(w); rbuf = Array.make 64 0; rpos = 0; rlen = 0 }

  (* The blocking single-word pop only runs when a refill found the ring
     empty. *)
  let next_word rx =
    if rx.rpos < rx.rlen then begin
      let word = rx.rbuf.(rx.rpos) in
      rx.rpos <- rx.rpos + 1;
      word
    end
    else begin
      let n = Spsc.pop_chunk rx.q rx.rbuf ~pos:0 ~len:(Array.length rx.rbuf) in
      if n > 0 then begin
        rx.rpos <- 1;
        rx.rlen <- n;
        rx.rbuf.(0)
      end
      else
        let st = rx.rst in
        Stallcat.timed ?fr:st.fr ~domain:(rx.w + 1) st.stat Stallcat.Queue_empty (fun () ->
            Spsc.pop ~wd:st.wd ~role:st.roles.(rx.w) rx.q)
    end

  let recv rx ~on_sync ~on_do =
    let word = next_word rx in
    if word land 3 = 3 then begin
      let inner = word lsr 3 in
      let outer = next_word rx in
      let j = next_word rx in
      if word land 4 = 0 then on_do ~inner ~outer ~j ~len:1 ~iter:(next_word rx)
      else
        let len = next_word rx in
        on_do ~inner ~outer ~j ~len ~iter:(next_word rx)
    end
    else on_sync word

  let get st w = Atomic.get st.cells.(w)

  (* The recv lands in the waiter's ring once the condition holds. *)
  let wait_ge st ~waiter w i =
    if Atomic.get st.cells.(w) < i then
      Stallcat.timed ?fr:st.fr ~domain:(ring st waiter) st.stat Stallcat.Sync_cond (fun () ->
          Watchdog.wait st.wd ~role:st.roles.(waiter)
            ~for_:(Printf.sprintf "iteration %d of worker %d" i w)
            (fun () -> Atomic.get st.cells.(w) >= i));
    ev st Obs.Flight.Sync_recv ~domain:(ring st waiter) ~a:i ~b:(ring st w)

  let set st w i =
    Atomic.set st.cells.(w) i;
    if st.dup then ev st Obs.Flight.Epoch_commit ~domain:w ~a:i ~b:0

  let exec_stmt st (s : Ir.Stmt.t) env =
    Work.burn st.work (s.Ir.Stmt.cost env);
    s.Ir.Stmt.exec env

  (* Sequential regions duplicated on every domain write privatizable
     per-invocation slots, so the replicated writes are idempotent (same
     values in racy stores — benign under the OCaml memory model for these
     int/float arrays). *)
  let exec_pre st ~role:_ s env = exec_stmt st s env
  let exec_body = exec_stmt
  let charge_addr _ _ = ()
  let charge_shadow _ _ = ()
  let charge_self_conds _ _ = ()
  let on_schedule st ~iter = Fault.inject st.fault Fault.Scheduler_die ~domain:0 ~site:iter

  (* A stalled queue wedges the producer and starves the consumer — exactly
     what the watchdog must detect; a poisoned condition tells the worker
     to await an iteration no execution can ever reach. *)
  let on_pick st ~tid ~iter =
    if Fault.fires st.fault Fault.Queue_stall ~domain:tid ~site:iter then
      Watchdog.park st.wd ~role:"scheduler";
    Fault.fires st.fault Fault.Poison_cond ~domain:tid ~site:iter

  let forwarded _ ~to_tid:_ ~dep_tid:_ ~dep_iter:_ = ()

  (* A duplicated domain has no scheduler to poison its conditions: the
     poisoned domain wedges instead. *)
  let on_execute st ~worker ~iter =
    Fault.inject st.fault Fault.Worker_raise ~domain:worker ~site:iter;
    if st.dup && Fault.fires st.fault Fault.Poison_cond ~domain:worker ~site:iter then
      Watchdog.park st.wd ~role:st.roles.(worker)
end

module P = Protocol.Make (Substrate)

let execute ~pool ?wd ?fault ?fr ~work ~dup ~queues ~batch workers p protocol =
  let st =
    { Substrate.pool; fault; fr; work; dup; queues;
      wd = (match wd with Some w -> w | None -> Watchdog.unbounded ());
      stat = Stallcat.create ();
      bufs = Array.map (Spsc.Batch.create ~size:(max 1 batch)) queues;
      cells = Array.init workers (fun _ -> Pad.atomic (-1));
      roles = Array.init workers (Printf.sprintf "worker %d");
      nsealed = Pad.cell 0;
      wall_ns = 0. }
  in
  let c : Protocol.counts = protocol st in
  Nrun.make
    ~technique:(if dup then "native-DOMORE-dup" else "native-DOMORE")
    ~domains:(if dup then workers else workers + 1)
    ~workers ~wall_ns:st.Substrate.wall_ns ~tasks:c.tasks
    ~invocations:(Ir.Program.invocations p) ~conds:c.conds ~checks:c.conds
    ~stalls:(Stallcat.to_list st.Substrate.stat) ()

let run ~pool ?wd ?fault ?fr ?config ~plan p env =
  let { policy; workers; queue_capacity; work; grain; batch } =
    match config with Some c -> c | None -> default_config ~workers:3
  in
  assert (workers > 0);
  if grain <= 0 then invalid_arg "Ndomore.run: grain must be positive";
  if workers > Pool.workers pool then invalid_arg "Ndomore.run: pool too small";
  Protocol.check_plan "Ndomore.run" plan;
  let queues =
    Array.init workers (fun _ -> Spsc.create ~dummy:0 ~capacity:queue_capacity)
  in
  execute ~pool ?wd ?fault ?fr ~work ~dup:false ~queues ~batch workers p (fun st ->
      P.run st ~policy ~grain ~plan p env)

let run_duplicated ~pool ?wd ?fault ?fr ?config ~plan p env =
  let { policy; workers; work; batch; _ } =
    match config with Some c -> c | None -> default_config ~workers:4
  in
  assert (workers > 0);
  if workers - 1 > Pool.workers pool then
    invalid_arg "Ndomore.run_duplicated: pool too small";
  Protocol.check_plan "Ndomore.run_duplicated" plan;
  execute ~pool ?wd ?fault ?fr ~work ~dup:true ~queues:[||] ~batch workers p (fun st ->
      P.run_duplicated st ~policy ~batch:(max 1 batch) ~plan p env)
