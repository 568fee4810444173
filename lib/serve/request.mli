(** A run request as the serve daemon receives it: a
    {!Xinv_core.Crossinv.Spec.t} plus the registry name of the workload
    and the fields only a scheduler needs (fault, deadline, priority,
    tenant).  {!to_crossinv} resolves it against the live registry into a
    core request; the daemon injects its own shared pool, cache directory
    and cancellation hook at that point. *)

type t = {
  workload : string;  (** registry name, case-insensitive *)
  spec : Xinv_core.Crossinv.Spec.t;
      (** its [cache] mode is intersected with the daemon's: a request can
          opt down (e.g. [`Off]) but never escalate past the server config *)
  fault : string option;
      (** native fault injection in {!Xinv_native.Fault.spec_to_string}
          spelling — how tests and CI provoke stalls and failures through
          the daemon; parsed at resolution, [`Bad_request] if malformed *)
  deadline_ms : float option;
      (** end-to-end budget from submission, queue wait included *)
  priority : [ `High | `Normal ];
  tenant : string;
}

val make :
  ?input:Xinv_workloads.Workload.input ->
  ?backend:[ `Sim | `Native ] ->
  ?technique:string ->
  ?threads:int ->
  ?mode:Xinv_core.Crossinv.Spec.mode ->
  ?cache:[ `Off | `Ro | `Rw ] ->
  ?fault:string ->
  ?deadline_ms:float ->
  ?priority:[ `High | `Normal ] ->
  ?tenant:string ->
  [ `Name of string ] ->
  t
(** {!Xinv_core.Crossinv.Spec.make}'s defaults for the spec, plus no
    fault, no deadline, [`Normal] priority and tenant ["default"]. *)

val put : Wire.writer -> t -> unit
val get : Wire.reader -> t
(** Payload codec (raises {!Wire.Error} on malformed input, including a
    workload tag other than 0, the registry name). *)

type resolve_error =
  [ `Unknown_workload of string
  | `Bad_request of string
    (** the spec fails {!Xinv_core.Crossinv.Spec.validate}, or the fault
        spec does not parse *) ]

val to_crossinv :
  ?pool:Xinv_native.Pool.t ->
  ?cache_dir:string ->
  ?cache_limit:[ `Off | `Ro | `Rw ] ->
  ?deadline_ms:float ->
  ?on_watchdog:(Xinv_native.Watchdog.t -> unit) ->
  t ->
  (Xinv_core.Crossinv.Request.t, resolve_error) result
(** Resolve against the live registry.  [deadline_ms] is the
    {e remaining} budget the scheduler computed (the request's own
    [deadline_ms] minus queue wait); [cache_limit] caps the request's
    cache mode ([`Rw] > [`Ro] > [`Off]); the native pool and watchdog
    hook are the daemon's. *)
