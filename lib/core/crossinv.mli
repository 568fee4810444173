(** Public facade: run a workload under any of the parallelization systems
    this library reproduces — on a simulated multicore or on real OCaml 5
    domains — and compare against sequential execution.

    Quickstart:
    {[
      let wl = Xinv_workloads.Registry.find "CG" in
      (* simulated machine (default backend) *)
      let o =
        Crossinv.run_request
          (Crossinv.Request.make ~technique:Crossinv.Domore ~threads:8 wl)
      in
      (* real domains, with robustness bounds *)
      let o' =
        Crossinv.run_request
          (Crossinv.Request.make
             ~backend:
               (`Native
                 { Crossinv.native_defaults with deadline_ms = Some 60_000. })
             ~technique:Crossinv.Domore ~threads:4 wl)
      in
      Format.printf "sim %.2fx / native %.2fx, verified: %b@."
        o.Crossinv.speedup o'.Crossinv.speedup o'.Crossinv.verified
    ]} *)

type technique =
  | Sequential
  | Barrier  (** per-invocation parallelization (Table 5.1 plan) + pthread barriers *)
  | Doacross
  | Dswp
  | Inspector  (** inspector-executor (§2.2): wavefront scheduling *)
  | Tls  (** thread-level speculation (§2.2): in-order-commit speculation *)
  | Domore  (** Chapter 3: scheduler/worker runtime engine *)
  | Domore_dup  (** §3.4: duplicated scheduler, no barriers *)
  | Speccross  (** Chapter 4: speculative barriers *)
  | Speccross_inject of int
      (** SPECCROSS with one forced misspeculation at the given epoch *)

val technique_name : technique -> string

val technique_of_string : string -> technique option
(** Inverse of {!technique_name} (case-insensitive), which also accepts
    the short aliases [seq], [pthread], [ie] and [inspector]. *)

(** {1 The unified entry point} *)

type cost =
  | Sim_cycles of float  (** virtual cycles on the simulated machine *)
  | Wall_ns of float  (** wall-clock nanoseconds on real domains *)

val cost_value : cost -> float
val cost_to_string : cost -> string

(** The environment of a native run: everything about it that is not a
    policy axis. *)
type native_opts = {
  work : Xinv_native.Work.t;
      (** calibrated spinning per simulated cost unit; [Off] runs raw ops *)
  pool : Xinv_native.Pool.t option;
      (** reuse an existing domain pool; one is spun up per run otherwise *)
  fault : Xinv_native.Fault.spec option;  (** armed fault, at most one firing *)
  deadline_ms : float option;  (** overall run deadline, degradation included *)
  wait_timeout_ms : float option;
      (** per-wait bound; defaults to [min deadline 5000] when a deadline is
          set, 5000 when only a fault is armed, unbounded otherwise *)
  degrade : bool;  (** retry failed runs under weaker techniques (default) *)
  flight : bool;
      (** attach a {!Xinv_obs.Flight} recorder to every attempt (default
          off).  Implied by [postmortem_dir]. *)
  flight_capacity : int;
      (** per-domain ring capacity (default
          {!Xinv_obs.Flight.default_capacity}) *)
  postmortem_dir : string option;
      (** when set, every failed attempt (injected fault, watchdog stall or
          cancellation, worker exception — whether it degrades or escapes)
          dumps a text postmortem plus a Perfetto trace of its flight
          recording into this directory; paths are surfaced in
          {!outcome.postmortems} *)
  on_flight : (Xinv_obs.Flight.t -> unit) option;
      (** called with each attempt's fresh flight recorder before the
          attempt starts executing — the hook [xinv top] uses to observe a
          live run.  The rings are still being written when this fires. *)
  on_watchdog : (Xinv_native.Watchdog.t -> unit) option;
      (** called with each attempt's fresh watchdog before any domain
          starts waiting on it — the serve daemon's cancellation handle:
          [Watchdog.cancel] on it unwinds just that request's cohort
          (e.g. when the submitting client disconnects) without touching
          a shared pool. *)
}

val native_defaults : native_opts

type backend = [ `Sim of Xinv_sim.Machine.t option | `Native of native_opts ]
(** {!Request.make}'s backend argument: the policy's backend axis together
    with that backend's environment (the simulated machine, default
    {!Xinv_sim.Machine.default}; or the native options). *)

type degrade_step = { d_from : technique; d_to : technique; d_reason : string }

type outcome = {
  technique : technique;
      (** the technique that actually executed (after degradation) *)
  cost : cost;  (** the run's cost in its backend's unit *)
  seq_cost : cost;  (** sequential execution of the same input, same unit *)
  speedup : float;
  verified : bool;  (** final memory identical to sequential execution *)
  mismatches : (string * int) list;  (** locations that differ, when any *)
  profile : Xinv_speccross.Profiler.t option;  (** SPECCROSS profiling result *)
  run : Xinv_parallel.Run.t option;  (** simulated backend's run record *)
  nrun : Xinv_native.Nrun.t option;  (** native backend's run record *)
  degraded : degrade_step list;  (** degradation steps taken, in order *)
  analysis_ns : float;
      (** wall time spent in compile-time analysis and profiling
          ([Mtcg.generate], [Profiler.profile]) — cached or fresh *)
  cache_hits : int;  (** analysis-cache hits served during this run *)
  cache_misses : int;  (** analysis-cache misses (0/0 when the cache is off) *)
  flight : Xinv_obs.Flight.t option;
      (** the last attempt's flight recording (native backend with
          [flight] or [postmortem_dir] set; [None] otherwise) *)
  postmortems : string list;
      (** text postmortem paths written during this run, in degradation
          order (each sits next to a [.trace.json] Perfetto dump) *)
  policy_source : string;
      (** where the run's policy came from: ["fixed"] (the spec's own, the
          default), ["cached"] / ["default"] under [`Auto], and
          ["adaptive:"] followed by one of those, or
          ["adaptive:sequential"], under the online controller.  The
          autotuner relabels its trials ["searched"]. *)
}

val applicable :
  ?backend:[ `Sim | `Native ] ->
  ?cache:[ `Off | `Ro | `Rw ] ->
  ?cache_dir:string ->
  technique ->
  Xinv_workloads.Workload.t ->
  (unit, string) result
(** Compile-time applicability of the technique to the workload on the
    given backend (default [`Sim]).  Native inapplicability (Doacross,
    DSWP, Inspector, TLS have no native engines) is an [Error], not an
    exception.  [cache]/[cache_dir] as in {!run_request}: the DOMORE applicability
    check is itself a full [Mtcg.generate] and benefits the same way. *)

val supported : backend:[ `Sim | `Native ] -> technique list
(** Techniques with an engine on the backend. *)

(** {1 Execution policies}

    A run's configuration is one {!Xinv_cache.Policy.t}.  It comes from
    the request's spec ([`Fixed]), from a tuned policy persisted in the
    analysis cache by the {!Xinv_tune} autotuner ([`Auto]), or, under an
    online {!adaptive} controller, from either of those until probing
    shows that it does not pay against the per-run sequential baseline. *)

type adaptive
(** Mutable controller state shared across a stream of {!run_request}
    calls. *)

type adaptive_phase = [ `Probing | `Candidate | `Sequential ]

val adaptive : ?probe_runs:int -> ?margin:float -> unit -> adaptive
(** A fresh controller: the first [probe_runs] (default 3) invocations run
    the candidate policy; if their cumulative wall time stays within
    [margin] (default 1.1) of the cumulative sequential baseline the
    candidate is committed, otherwise the stream switches to sequential
    execution.  A committed candidate is still watched: two consecutive
    losing runs switch to sequential for the rest of the stream, so an
    adaptive stream can never end slower than [margin] × sequential. *)

val adaptive_phase : adaptive -> adaptive_phase
val adaptive_switches : adaptive -> int

val adaptive_note :
  adaptive -> cand_ns:float -> seq_ns:float -> [ `Keep | `Switch ]
(** The controller's decision function, exposed for tests: feed one
    run's candidate and sequential timings, get the transition.
    {!run_request} calls this internally when the request carries a
    controller. *)

(** {1 Requests} *)

(** What to run, as data only: no workload descriptor, recorder or pool.
    The serve daemon ships exactly this record over its socket. *)
module Spec : sig
  type mode =
    [ `Fixed  (** run [policy] as given *)
    | `Auto
      (** run the tuned policy stored in the analysis cache for this
          workload and input, or [policy] when none is stored *) ]

  type t = {
    input : Xinv_workloads.Workload.input;
    policy : Xinv_cache.Policy.t;
        (** backend, technique, threads ([domains]), grain, batch,
            signature kind, speculative distance, checkpoint epoch size *)
    mode : mode;
    verify : bool;  (** compare final memory against sequential *)
    cache : [ `Off | `Ro | `Rw ];  (** analysis-cache mode *)
  }

  val make :
    ?input:Xinv_workloads.Workload.input ->
    ?backend:Xinv_cache.Policy.backend ->
    ?technique:string ->
    ?threads:int ->
    ?grain:int ->
    ?batch:int ->
    ?sig_kind:Xinv_cache.Policy.sig_kind ->
    ?spec_distance:int ->
    ?checkpoint_every:int ->
    ?mode:mode ->
    ?verify:bool ->
    ?cache:[ `Off | `Ro | `Rw ] ->
    unit ->
    t
  (** Defaults: [Ref] input, simulated backend, ["sequential"] on one
      thread, {!Xinv_cache.Policy.default}'s grain, batch, signature kind,
      speculative distance and epoch size, [`Fixed], verification on,
      cache off. *)

  val validate : ?deadline_ms:float -> t -> (unit, string) result
  (** The request bounds: a known technique spelling, and threads, grain,
      batch and epoch size >= 1; a [deadline_ms], when given, must be
      > 0.  The CLI and the serve daemon check requests with this. *)
end

(** One execution: a spec, the workload it runs, and the live runtime
    context.  {!run_request} is the single execution path; the CLI, the
    autotuner and the serve daemon all build a value of this type. *)
module Request : sig
  type ctx = {
    obs : Xinv_obs.Recorder.t option;
        (** instrument the run (see {!run_request}) *)
    cache_dir : string option;
        (** analysis-cache directory (default [~/.cache/xinv]) *)
    machine : Xinv_sim.Machine.t option;
        (** simulated machine (default {!Xinv_sim.Machine.default}) *)
    native : native_opts;  (** environment of native runs *)
    adaptive : adaptive option;  (** online controller across a stream *)
  }

  val default_ctx : ctx
  (** No recorder, default cache directory and machine,
      {!native_defaults}, no controller. *)

  type t = {
    workload : Xinv_workloads.Workload.t;
    spec : Spec.t;
    ctx : ctx;
  }

  val make :
    ?backend:backend ->
    ?input:Xinv_workloads.Workload.input ->
    ?checkpoint_every:int ->
    ?verify:bool ->
    ?cache:[ `Off | `Ro | `Rw ] ->
    ?cache_dir:string ->
    ?obs:Xinv_obs.Recorder.t ->
    ?mode:Spec.mode ->
    ?adaptive:adaptive ->
    ?grain:int ->
    ?batch:int ->
    technique:technique ->
    threads:int ->
    Xinv_workloads.Workload.t ->
    t
  (** Smart constructor over {!Spec.make} and {!default_ctx}: simulated
      backend (default machine) unless [backend] says otherwise. *)
end

val run_request : Request.t -> outcome
(** Runs the workload with [threads] execution contexts total (DOMORE: 1
    scheduler + workers; SPECCROSS: workers + 1 checker) on the policy's
    backend.  SPECCROSS profiles the train input first and falls back to
    barriers when unprofitable (§4.4), on both backends.

    Policy resolution: [`Fixed] runs the spec's policy.  [`Auto] looks
    the workload's fingerprint up in the analysis cache; a stored tuned
    policy replaces every axis (the context keeps supplying work model,
    pool, faults, deadlines and flight recording), and on a miss the
    spec's policy runs with [policy_source = "default"].  [`Auto] bumps
    the [policy.source.cached|default] counter and emits a
    [Policy_applied] event when [obs] is attached.  With a controller in
    the context, the resolved policy is the candidate the controller
    probes (see {!adaptive}); a switch to sequential emits
    [Tune_switch].

    With [cache] [`Ro] or [`Rw], the run consults the incremental
    analysis cache: on a fingerprint hit the DOMORE plan and the
    SPECCROSS profile are reconstructed from disk instead of re-derived —
    identical results, near-zero [analysis_ns].  [`Ro] never writes;
    [`Rw] publishes fresh results atomically.

    With [obs], the run is instrumented: the simulated backend streams
    typed events and metrics into the recorder; the native backend bumps
    aggregate counters ([domore.*], [speccross.*], [barrier.crossings])
    plus the robustness counters [fault.injected], [watchdog.stall] and
    [degrade.level], and records [Fault_injected] / [Run_stalled] /
    [Degraded] events.

    Native robustness: an armed [fault] fires at most once across the
    whole run; every blocking wait is bounded per [native_opts]; a failed
    attempt (injected fault, stall, worker exception) cancels its cohort,
    unwinds cleanly, and — with [degrade] on — is retried on a fresh
    environment under the next weaker technique
    (SPECCROSS → barrier → sequential; DOMORE → duplicated scheduler →
    barrier → sequential) within the same overall deadline.  The outcome's
    [technique] and [degraded] fields report what actually ran.  With
    [degrade] off, the typed error ({!Xinv_native.Fault.Injected},
    {!Xinv_native.Watchdog.Stalled}, …) is raised instead.  A pool in the
    context caps the run: the resolved thread count shrinks to the largest
    one whose pool demand fits.

    The policy's signature kind selects the SPECCROSS signature
    ([`Segmented] over live memory bounds by default); a speculative
    distance below the worker count is clamped up to it, and [None] uses
    the profiled distance.

    @raise Invalid_argument when the spec fails {!Spec.validate}.
    @raise Failure when the technique is inapplicable to the backend
    (see {!applicable}). *)

val spec_mode_of_plan :
  Xinv_workloads.Workload.t -> string -> Xinv_speccross.Runtime.mode
(** Map the workload's Table 5.1 plan onto SPECCROSS execution modes. *)
