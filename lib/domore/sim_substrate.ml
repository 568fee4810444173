module Sim = Xinv_sim
module Ir = Xinv_ir
module Rt = Xinv_runtime
module Obs = Xinv_obs

(* Queue payload.  Sync carries a {!Rt.Sync_cond.to_int}-encoded condition:
   the simulator's channels and the native backend's int queues share one
   wire format. *)
type msg = Sync of int | Do of { t : int; j : int; inner : int; iter : int }

type t = {
  eng : Sim.Engine.t;
  machine : Sim.Machine.t;
  obs : Obs.Recorder.t option;
  dedicated : bool;
  wf : float;
  queues : msg Sim.Channel.t array;
  cells : Sim.Mono_cell.t array;
  occupancy : Obs.Metrics.histogram option;
}

type rx = { st : t; w : int }

let create ~eng ~machine ?obs ~dedicated ~workers () =
  {
    eng;
    machine;
    obs;
    dedicated;
    wf = Sim.Machine.work_factor machine ~threads:(if dedicated then workers + 1 else workers);
    queues =
      (if dedicated then
         Array.init workers (fun _ ->
             Sim.Channel.create ~produce_cost:machine.Sim.Machine.queue_produce
               ~consume_cost:machine.Sim.Machine.queue_consume ())
       else [||]);
    cells = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ());
    occupancy =
      (match obs with
      | Some o when dedicated ->
          Some (Obs.Metrics.histogram (Obs.Recorder.metrics o) "domore.queue_occupancy")
      | _ -> None);
  }

let workers st = Array.length st.cells

(* Engine tid of worker [w]: a dedicated scheduler is spawned first as
   thread 0. *)
let engine_tid st w = if st.dedicated then w + 1 else w

let run st roles =
  Array.iteri
    (fun i role ->
      let name =
        if not st.dedicated then Printf.sprintf "dup%d" i
        else if i = 0 then "scheduler"
        else Printf.sprintf "worker%d" (i - 1)
      in
      ignore (Sim.Engine.spawn st.eng ~name role))
    roles;
  Sim.Engine.run st.eng

let record st ~tid ev =
  match st.obs with
  | Some o -> Obs.Recorder.record o ~at:(Sim.Proc.now ()) ~tid ev
  | None -> ()

let send_wait st w ~dep_tid ~dep_iter =
  Sim.Channel.produce st.queues.(w)
    (Sync (Rt.Sync_cond.to_int (Rt.Sync_cond.Wait { dep_tid; dep_iter })))

let send_do st w ~inner ~outer ~j ~len ~iter =
  assert (len = 1);
  record st ~tid:0 (Obs.Event.Task_dispatched { iter; to_tid = w });
  Sim.Channel.produce st.queues.(w) (Do { t = outer; j; inner; iter })

let send_end st w =
  Sim.Channel.produce st.queues.(w) (Sync (Rt.Sync_cond.to_int Rt.Sync_cond.End_token))

let flush _ = ()
let queue_length st w = Sim.Channel.length st.queues.(w)
let receiver st w = { st; w }

(* Blocked time beyond the queue's own cost is a stall. *)
let timed_stall st ~tid ~beyond cause f =
  match st.obs with
  | None -> f ()
  | Some o ->
      let t0 = Sim.Proc.now () in
      let x = f () in
      let dur = Sim.Proc.now () -. t0 -. beyond in
      if dur > 0. then
        Obs.Recorder.record o ~at:(Sim.Proc.now ()) ~tid
          (Obs.Event.Worker_stalled { cause; dur });
      x

let recv { st; w } ~on_sync ~on_do =
  match
    timed_stall st ~tid:(engine_tid st w) ~beyond:st.machine.Sim.Machine.queue_consume
      Obs.Event.Queue_empty (fun () -> Sim.Channel.consume st.queues.(w))
  with
  | Sync word -> on_sync word
  | Do { t; j; inner; iter } -> on_do ~inner ~outer:t ~j ~len:1 ~iter

let get st w = Sim.Mono_cell.get st.cells.(w)

let wait_ge st ~waiter w i =
  timed_stall st ~tid:(engine_tid st waiter) ~beyond:0. Obs.Event.Sync_cond (fun () ->
      Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait st.cells.(w) i)

let set st w i = Sim.Mono_cell.set st.cells.(w) i

let exec_pre st ~role (s : Ir.Stmt.t) env =
  let cat = if role = 0 then Sim.Category.Sequential else Sim.Category.Redundant in
  Sim.Proc.advance ~label:s.Ir.Stmt.name cat (st.wf *. s.Ir.Stmt.cost env);
  s.Ir.Stmt.exec env

let exec_body st (s : Ir.Stmt.t) env =
  Sim.Proc.work ~label:s.Ir.Stmt.name (st.wf *. s.Ir.Stmt.cost env);
  s.Ir.Stmt.exec env

(* Scheduling work: a dedicated scheduler's is runtime overhead, a
   duplicated thread's is redundant. *)
let sched_cat st = if st.dedicated then Sim.Category.Runtime else Sim.Category.Redundant

let charge_addr st slice_cost =
  Sim.Proc.advance ~label:"computeAddr" (sched_cat st)
    (slice_cost +. st.machine.Sim.Machine.sched_per_iter)

let charge_shadow st n =
  Sim.Proc.advance ~label:"shadow" (sched_cat st)
    (st.machine.Sim.Machine.shadow_per_addr *. float_of_int n)

let charge_self_conds st n =
  Sim.Proc.advance ~label:"conds" Sim.Category.Queue
    (float_of_int n
    *. (st.machine.Sim.Machine.queue_produce +. st.machine.Sim.Machine.queue_consume))

let on_schedule st ~iter:_ =
  match st.obs with
  | None -> ()
  | Some o ->
      let at = Sim.Proc.now () in
      Array.iteri
        (fun w q ->
          let len = Sim.Channel.length q in
          Option.iter (fun h -> Obs.Metrics.observe h (float_of_int len)) st.occupancy;
          Obs.Recorder.record o ~at ~tid:0 (Obs.Event.Queue_sampled { queue = w; len }))
        st.queues

let on_pick _ ~tid:_ ~iter:_ = false

let forwarded st ~to_tid ~dep_tid ~dep_iter =
  record st
    ~tid:(if st.dedicated then 0 else to_tid)
    (Obs.Event.Sync_forwarded { to_tid; dep_tid; dep_iter })

let on_execute _ ~worker:_ ~iter:_ = ()

let simulate ?obs ?trace ~machine ~dedicated ~workers ~technique p protocol =
  let eng = Sim.Engine.create ?trace () in
  let c : Protocol.counts = protocol (create ~eng ~machine ?obs ~dedicated ~workers ()) in
  Option.iter
    (fun o ->
      let m = Obs.Recorder.metrics o in
      Obs.Metrics.add (Obs.Metrics.counter m "domore.sync_conds_forwarded") c.conds;
      Obs.Metrics.add (Obs.Metrics.counter m "domore.tasks_dispatched") c.tasks)
    obs;
  Xinv_parallel.Run.make ~technique
    ~threads:(if dedicated then workers + 1 else workers)
    ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:c.tasks
    ~invocations:(Ir.Program.invocations p) ~checks:c.conds ?recorder:obs ()
