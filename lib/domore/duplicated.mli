(** Duplicated-scheduler DOMORE (dissertation §3.4, Figures 3.8/3.9).

    Every worker thread runs the scheduler code — sequential regions,
    [computeAddr], a private shadow memory, the scheduling decision — and
    executes only the iterations scheduled to itself, synchronizing through
    the shared [latestFinished] cells.  Trading redundant scheduling work for
    the absence of a dedicated scheduler thread is what lets DOMORE run
    inside the SPECCROSS framework (used for FLUIDANIMATE in Figure 5.6).
    The loop is {!Protocol.Make.run_duplicated} over the simulator
    substrate, publishing the completion cell after every owned
    iteration. *)

val run :
  ?config:Domore.config ->
  ?obs:Xinv_obs.Recorder.t ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Xinv_parallel.Run.t
(** Workers only (no scheduler thread): simulated threads 0..workers-1.
    The result's [checks] counts the conditions awaited. *)
