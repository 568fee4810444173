(** The DOMORE protocol (dissertation Chapter 3), written once.

    Algorithm 1 (the scheduler), Algorithm 2 (the worker) and the §3.4
    duplicated scheduler, as loops over a {!SUBSTRATE}: the machinery that
    runs role functions, carries frames between them, holds completion cells
    and executes statements.  The simulator ({!Domore.run},
    {!Duplicated.run}) and the native engine ([Xinv_native.Ndomore]) are the
    two instantiations, so both backends make every scheduling and
    dependence decision the same way by construction. *)

module Ir = Xinv_ir
module Rt = Xinv_runtime

module type SUBSTRATE = sig
  type t
  (** One run: per-worker queues and completion cells, a cost or work model,
      observers. *)

  val workers : t -> int

  val run : t -> (unit -> unit) array -> unit
  (** Run the role functions concurrently until all have finished.  Role 0
      is the scheduler, or duplicated thread 0. *)

  (** {2 Queues}  Frame-level: one call is one message. *)

  val send_wait : t -> int -> dep_tid:int -> dep_iter:int -> unit
  (** Order a {!Rt.Sync_cond.Wait} before worker [w]'s next frame. *)

  val send_do : t -> int -> inner:int -> outer:int -> j:int -> len:int -> iter:int -> unit
  (** Dispatch iterations [j .. j+len-1] of inner loop [inner] in outer
      iteration [outer], numbered from [iter]. *)

  val send_end : t -> int -> unit

  val flush : t -> unit
  (** Make every frame sent so far visible to its worker. *)

  val queue_length : t -> int -> int

  type rx
  (** A worker's receiving side, made once per worker loop. *)

  val receiver : t -> int -> rx

  val recv :
    rx ->
    on_sync:(int -> unit) ->
    on_do:(inner:int -> outer:int -> j:int -> len:int -> iter:int -> unit) ->
    unit
  (** Block for one frame and hand it to its callback: a
      {!Rt.Sync_cond.to_int} word or a Do frame. *)

  (** {2 Completion cells}  Cell [w]: the last iteration worker [w]
      published. *)

  val get : t -> int -> int

  val wait_ge : t -> waiter:int -> int -> int -> unit
  (** [wait_ge t ~waiter w i] blocks worker [waiter] until cell [w] >= [i]. *)

  val set : t -> int -> int -> unit

  (** {2 Statements and costs} *)

  val exec_pre : t -> role:int -> Ir.Stmt.t -> Ir.Env.t -> unit
  (** A sequential-region statement; roles other than 0 repeat it
      redundantly. *)

  val exec_body : t -> Ir.Stmt.t -> Ir.Env.t -> unit

  val charge_addr : t -> float -> unit
  (** One iteration's [computeAddr], given the slice's cost per iteration. *)

  val charge_shadow : t -> int -> unit
  (** Shadow-memory lookups of that many addresses. *)

  val charge_self_conds : t -> int -> unit
  (** Conditions a duplicated thread produces and consumes itself
      (Figure 3.9). *)

  (** {2 Event hooks} *)

  val on_schedule : t -> iter:int -> unit
  (** The scheduler computed iteration [iter]'s addresses. *)

  val on_pick : t -> tid:int -> iter:int -> bool
  (** The scheduler picked worker [tid]; [true] forwards it an unsatisfiable
      condition (fault injection). *)

  val forwarded : t -> to_tid:int -> dep_tid:int -> dep_iter:int -> unit
  (** A condition of an iteration bound for [to_tid], before it is sent or,
      duplicated, awaited. *)

  val on_execute : t -> worker:int -> iter:int -> unit
end

type counts = {
  tasks : int;  (** iterations dispatched *)
  conds : int;  (** synchronization conditions forwarded *)
}

(** @raise Invalid_argument, naming [who], if the plan re-partitioned body
    statements into the scheduler (unsupported degenerate case). *)
let check_plan who (plan : Ir.Mtcg.plan) =
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg (who ^ ": body statements re-partitioned into the scheduler")

(* Alg. 1's per-iteration decision, shared by both schedulers: pick the
   worker of combined iteration [iter] and collect in [deps] the earlier
   iterations it depends on, through this role's own shadow memory. *)
let placer ~policy ~loads ~grain ~threads mem deps =
  let shadow = Rt.Shadow.create () in
  let tid = ref 0 and iter = ref 0 in
  let note_read addr = Rt.Shadow.note_read_deps shadow addr ~tid:!tid ~iter:!iter deps in
  let note_write addr = Rt.Shadow.note_write_deps shadow addr ~tid:!tid ~iter:!iter deps in
  fun ~iter:i slice env_j waddrs ->
    iter := i;
    tid := Policy.pick policy ~loads ~mem ~threads ~iter:(i / grain) ~write_addrs:waddrs;
    Rt.Shadow.Deps.clear deps;
    Ir.Slice.iter_read_addresses slice env_j note_read;
    List.iter note_write waddrs;
    !tid

module Make (S : SUBSTRATE) = struct
  (* The loop nest as every scheduler walks it: each sequential region run
     as [role], then each inner iteration's [computeAddr] charged and
     evaluated.  [f] gets the iteration's combined number and coordinates,
     its slice and its predicted writes; [last] marks the final iteration
     of an invocation.  Returns the number of iterations. *)
  let walk st ~role ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env f =
    let iter = ref 0 in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iteri
        (fun ii (il : Ir.Program.inner) ->
          List.iter (fun s -> S.exec_pre st ~role s env_t) il.Ir.Program.pre;
          let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
          let slice_cost = Ir.Slice.cost_per_iter slice in
          let trip = il.Ir.Program.trip env_t in
          for j = 0 to trip - 1 do
            let env_j = Ir.Env.with_inner env_t j in
            S.charge_addr st slice_cost;
            let waddrs = Ir.Slice.write_addresses slice env_j in
            f ~iter:!iter ~t ~ii ~j ~last:(j = trip - 1) slice env_j waddrs;
            incr iter
          done)
        p.Ir.Program.inners
    done;
    !iter

  (** One scheduler role feeding {!S.workers} worker roles.  Consecutive
      iterations bound for one worker share a Do frame of up to [grain],
      sent as soon as it is full. *)
  let run st ~policy ~grain ~plan (p : Ir.Program.t) env =
    let workers = S.workers st in
    let bodies = Array.of_list p.Ir.Program.inners in
    let deps = Rt.Shadow.Deps.create () in
    (* Queue-load snapshot for the least-loaded policy. *)
    let loads = Array.make workers 0 in
    let sample_loads = policy = Policy.Least_loaded in
    let place =
      placer ~policy ~loads:(Some loads) ~grain ~threads:workers env.Ir.Env.mem deps
    in
    let tasks = ref 0 and conds = ref 0 in
    let scheduler () =
      let tid = ref 0 in
      (* The open chunk: a run of consecutive iterations bound for one
         worker.  It is sent as one Do frame when it reaches [grain], when
         the run breaks, or when a condition must precede the next
         iteration. *)
      let c_tid = ref 0 and c_inner = ref 0 and c_t = ref 0 in
      let c_j = ref 0 and c_iter = ref 0 and c_len = ref 0 in
      let seal () =
        if !c_len > 0 then begin
          S.send_do st !c_tid ~inner:!c_inner ~outer:!c_t ~j:!c_j ~len:!c_len
            ~iter:!c_iter;
          c_len := 0
        end
      in
      let forward ~tid:dep_tid ~iter:dep_iter =
        incr conds;
        S.forwarded st ~to_tid:!tid ~dep_tid ~dep_iter;
        S.send_wait st !tid ~dep_tid ~dep_iter
      in
      let schedule ~iter ~t ~ii ~j ~last:_ (slice : Ir.Slice.t) env_j waddrs =
        S.on_schedule st ~iter;
        if sample_loads then
          for w = 0 to workers - 1 do
            loads.(w) <- S.queue_length st w
          done;
        (* The slice's access count is static, so the shadow charge is
           too. *)
        S.charge_shadow st
          (List.length slice.Ir.Slice.reads + List.length slice.Ir.Slice.writes);
        tid := place ~iter slice env_j waddrs;
        if S.on_pick st ~tid:!tid ~iter then begin
          seal ();
          forward ~tid:!tid ~iter:Rt.Sync_cond.max_iter
        end;
        if Rt.Shadow.Deps.length deps > 0 then begin
          (* Conditions precede this iteration's frame on [tid]'s queue. *)
          seal ();
          Rt.Shadow.Deps.iter forward deps
        end;
        if !c_len > 0 && !c_tid = !tid && !c_inner = ii && !c_t = t && !c_j + !c_len = j
        then incr c_len
        else begin
          seal ();
          c_tid := !tid;
          c_inner := ii;
          c_t := t;
          c_j := j;
          c_iter := iter;
          c_len := 1
        end;
        if !c_len = grain then seal ()
      in
      tasks := walk st ~role:0 ~plan p env schedule;
      seal ();
      for w = 0 to workers - 1 do
        S.send_end st w
      done;
      S.flush st
    in
    let worker w () =
      let rx = S.receiver st w in
      let running = ref true in
      let on_sync word =
        match Rt.Sync_cond.of_int word with
        | Rt.Sync_cond.End_token -> running := false
        | Rt.Sync_cond.No_sync _ -> ()
        | Rt.Sync_cond.Wait { dep_tid; dep_iter } -> S.wait_ge st ~waiter:w dep_tid dep_iter
      in
      let on_do ~inner ~outer ~j ~len ~iter =
        let body = bodies.(inner).Ir.Program.body in
        let env_t = Ir.Env.with_outer env outer in
        for k = 0 to len - 1 do
          S.on_execute st ~worker:w ~iter:(iter + k);
          let env_j = Ir.Env.with_inner env_t (j + k) in
          List.iter (fun s -> S.exec_body st s env_j) body;
          S.set st w (iter + k)
        done
      in
      while !running do
        S.recv rx ~on_sync ~on_do
      done
    in
    S.run st
      (Array.init (workers + 1) (fun i -> if i = 0 then scheduler else worker (i - 1)));
    { tasks = !tasks; conds = !conds }

  (** §3.4: {!S.workers} roles, each scheduling every iteration against a
      private shadow memory and executing only those it owns.  A role
      publishes its completion cell every [batch] owned iterations. *)
  let run_duplicated st ~policy ~batch ~plan (p : Ir.Program.t) env =
    let workers = S.workers st in
    let bodies = Array.of_list p.Ir.Program.inners in
    let tasks = ref 0 in
    let conds = Atomic.make 0 in
    let thread tid () =
      let deps = Rt.Shadow.Deps.create () in
      let place = placer ~policy ~loads:None ~grain:1 ~threads:workers env.Ir.Env.mem deps in
      let nconds = ref 0 in
      (* Write-combined completion frontier: the cell is published every
         [batch] owned iterations.  It must also be published before
         blocking on a peer (our completed work may be exactly what unblocks
         the chain back to us) and at every invocation end (peers can wait
         on our final iterations). *)
      let last_done = ref (-1) and unpublished = ref 0 in
      let publish () =
        if !unpublished > 0 then begin
          S.set st tid !last_done;
          unpublished := 0
        end
      in
      let await ~tid:dep_tid ~iter:dep_iter =
        S.forwarded st ~to_tid:tid ~dep_tid ~dep_iter;
        if S.get st dep_tid < dep_iter then begin
          publish ();
          S.wait_ge st ~waiter:tid dep_tid dep_iter
        end
      in
      let schedule ~iter ~t:_ ~ii ~j:_ ~last (slice : Ir.Slice.t) env_j waddrs =
        S.charge_shadow st (List.length slice.Ir.Slice.reads + List.length waddrs);
        if place ~iter slice env_j waddrs = tid then begin
          S.on_execute st ~worker:tid ~iter;
          let n = Rt.Shadow.Deps.length deps in
          nconds := !nconds + n;
          S.charge_self_conds st n;
          Rt.Shadow.Deps.iter await deps;
          List.iter (fun s -> S.exec_body st s env_j) bodies.(ii).Ir.Program.body;
          last_done := iter;
          incr unpublished;
          if !unpublished >= batch then publish ()
        end;
        if last then publish ()
      in
      (* Sequential regions run on every thread: threads may be in different
         outer iterations, so each executes its own copy; the
         privatizability requirement (per-invocation slots, deterministic
         values) makes the duplicated writes idempotent. *)
      let n = walk st ~role:tid ~plan p env schedule in
      if tid = 0 then tasks := n;
      ignore (Atomic.fetch_and_add conds !nconds)
    in
    S.run st (Array.init workers thread);
    { tasks = !tasks; conds = Atomic.get conds }
end
