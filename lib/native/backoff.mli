(** Competitive spin-then-nap backoff for the native backend's busy-wait
    loops.

    A wait spins on {!Domain.cpu_relax} for as long as blocking would cost
    and then naps (competitive spinning, Karlin et al., SOSP '91): a peer
    that answers within the spin is seen at once, and one that answers
    later costs at most twice what an immediate nap would have.  The cost
    of blocking is {!nap_cost}, the cheapest [Unix.sleepf] timed so far in
    this process (kernel timer slack makes even a 1 us nap take tens of
    microseconds).  Naps then escalate by one microsecond per nap up to
    {!max_nap}, so a persistent wait costs little CPU and recovers within
    half a millisecond.

    The long spin only pays while every spinning domain has a core of its
    own: a spinner that shares a core burns the time slice of the peer it
    is waiting for.  So while the domains inside {!Pool.run} (see
    {!add_active}) outnumber [Domain.recommended_domain_count ()] — which
    follows the process's CPU affinity, e.g. under [taskset] — a wait
    spins only {!spin_rounds} rounds before it naps. *)

type t

val create : unit -> t

val once : t -> unit
(** One backoff step: spin while young, nap when the wait persists. *)

val reset : t -> unit

val steps : t -> int
(** Backoff steps taken since creation/reset. *)

val napping : t -> bool
(** True once the wait has left its spin phase: every further {!once}
    naps.  Lets callers amortize expensive per-iteration checks (clock
    reads) over the spin phase and do them on every nap. *)

val wait_until : (unit -> bool) -> unit
(** Spin (with escalation) until the predicate holds.  The predicate is
    expected to read [Atomic] state, so a satisfied wait also establishes
    the usual happens-before edge with the writer. *)

(** {2 The wait decision} *)

val spin_rounds : int
(** Spin rounds of a wait while domains outnumber cores (128). *)

val max_nap : float
(** Longest nap, and the ceiling of {!nap_cost}: 500 us. *)

type phase = Spin | Nap

val phase :
  steps:int -> elapsed:float -> nap_cost:float -> active:int -> cores:int ->
  phase
(** The spin-or-nap choice for a wait that has taken [steps] steps over
    [elapsed] seconds.  With [active <= cores] it spins while
    [elapsed < nap_cost]; otherwise while [steps <= spin_rounds]. *)

val lower_nap_cost : cheapest:float -> sample:float -> float
(** The nap-cost estimate after a nap that took [sample] seconds: never
    above [cheapest] nor {!max_nap}. *)

val nap_cost : unit -> float
(** The process's current estimate, {!max_nap} before the first nap. *)

val add_active : int -> unit
(** Add to (or, negated, remove from) the count of domains inside
    {!Pool.run}: callers plus dispatched workers, summed over concurrent
    runs.  {!Pool} keeps it. *)

val active_domains : unit -> int
