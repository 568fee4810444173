type t = {
  mutable steps : int;
  mutable naps : int;  (* 0 while spinning; the nap count once napping *)
  mutable started : float;  (* clock at the first step *)
}

let create () = { steps = 0; naps = 0; started = 0. }

let spin_rounds = 128
let max_nap = 0.0005 (* 500us cap keeps recovery latency bounded *)

type phase = Spin | Nap

let phase ~steps ~elapsed ~nap_cost ~active ~cores =
  if active > cores then if steps <= spin_rounds then Spin else Nap
  else if elapsed < nap_cost then Spin
  else Nap

(* The cheapest timed nap so far, in seconds.  Process-wide: every wait
   naps through the same kernel timer, and a running minimum only learns
   from naps that were not stretched by a descheduling. *)
let cheapest = Atomic.make max_nap

let lower_nap_cost ~cheapest ~sample = Float.min cheapest (Float.min max_nap sample)

let rec record_nap sample =
  let cur = Atomic.get cheapest in
  let next = lower_nap_cost ~cheapest:cur ~sample in
  if next < cur && not (Atomic.compare_and_set cheapest cur next) then
    record_nap sample

let nap_cost () = Atomic.get cheapest

let active = Atomic.make 0
let add_active n = ignore (Atomic.fetch_and_add active n)
let active_domains () = Atomic.get active
let cores = Domain.recommended_domain_count ()

let nap b =
  let d = Float.min max_nap (1e-6 *. float_of_int b.naps) in
  b.naps <- b.naps + 1;
  let t0 = Unix.gettimeofday () in
  Unix.sleepf d;
  record_nap (Unix.gettimeofday () -. t0)

(* The spin phase reads the clock on its first step and then on every 32nd
   (steps 33, 65, ...): often enough to stop within about a microsecond of
   the nap cost, and step 129, where an oversubscribed wait starts napping,
   is one of them. *)
let once b =
  b.steps <- b.steps + 1;
  if b.naps = 0 && b.steps land 31 = 1 then begin
    let now = Unix.gettimeofday () in
    if b.steps = 1 then b.started <- now
    else if
      phase ~steps:b.steps ~elapsed:(now -. b.started) ~nap_cost:(nap_cost ())
        ~active:(Atomic.get active) ~cores
      = Nap
    then b.naps <- 1
  end;
  if b.naps = 0 then Domain.cpu_relax () else nap b

let reset b =
  b.steps <- 0;
  b.naps <- 0

let steps b = b.steps
let napping b = b.naps > 0

let wait_until pred =
  if not (pred ()) then begin
    let b = create () in
    while not (pred ()) do
      once b
    done
  end
