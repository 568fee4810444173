(** The simulator's {!Protocol.SUBSTRATE}: engine threads, one channel
    message per frame, mono cells, and virtual time charged under the
    machine's cost model.  Recorder events consume no virtual time. *)

include Protocol.SUBSTRATE

val simulate :
  ?obs:Xinv_obs.Recorder.t ->
  ?trace:bool ->
  machine:Xinv_sim.Machine.t ->
  dedicated:bool ->
  workers:int ->
  technique:string ->
  Xinv_ir.Program.t ->
  (t -> Protocol.counts) ->
  Xinv_parallel.Run.t
(** Run the protocol on a fresh engine: with [dedicated], a scheduler on
    thread 0 feeds workers on threads [1 .. workers]; otherwise all
    [workers] threads schedule.  The counts feed the [domore.*] counters. *)
