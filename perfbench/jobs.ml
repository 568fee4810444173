(* What each workload runs: its request classes, the seeded mixes built
   from them, and the paper sweep's artifacts with their expected digests.
   Everything here is a pure function of the seed. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Prng = Xinv_util.Prng

(* One kind of request: a workload under a technique on an input. *)
type cls = {
  wl : Wl.Workload.t;
  tech : Cx.technique;
  input : Wl.Workload.input;
  threads : int;
}

let cls_name c =
  Printf.sprintf "%s.%s" c.wl.Wl.Workload.name (Cx.technique_name c.tech)

let techniques = [ Cx.Sequential; Cx.Barrier; Cx.Domore; Cx.Speccross ]

let classes ~input ~threads spec =
  List.concat_map
    (fun (name, techs) ->
      let wl = Wl.Registry.find name in
      List.map (fun tech -> { wl; tech; input; threads }) techs)
    spec

(* serve_small: native Train-input runs, what a daemon client submits.
   Only the classes that run in under 5 ms in process on the benchmark's
   reference machine, so that the daemon's costs dominate.  The others
   (SYMM barrier and DOMORE at 6 and 17 ms, CG barrier, LLUBENCH and
   BLACKSCHOLES DOMORE at 8 to 10 ms) finish, with the other client's job
   queued ahead, just before or just after the daemon's 20 ms watch-poll,
   so how fast the host runs decides whether they take one poll or two and
   moves the throughput of a whole run by up to a quarter. *)
let serve_classes =
  classes ~input:Wl.Workload.Train ~threads:2
    Cx.
      [ ("SYMM", [ Sequential ]);
        ("CG", [ Sequential; Domore ]);
        ("LLUBENCH", [ Sequential; Barrier ]);
        ("ECLAT", [ Sequential; Barrier; Domore ]);
        ("BLACKSCHOLES", [ Sequential; Barrier ]) ]

(* native_spin: Ref input under the calibrated spin work model. *)
let native_classes =
  let all = Cx.[ Sequential; Barrier; Domore; Speccross ] in
  classes ~input:Wl.Workload.Ref ~threads:2
    [
      ("SYMM", all);
      ("LLUBENCH", all);
      ("CG", all);
      ("FDTD", Cx.[ Sequential; Barrier; Speccross ]);
      ("ECLAT", Cx.[ Sequential; Barrier; Domore ]);
    ]

(* Off-path probe of the native and core layers for workloads that do not
   run them (and of SPECCROSS for serve_small, whose mix has none): every
   technique on small Train inputs. *)
let probe_classes =
  classes ~input:Wl.Workload.Train ~threads:2
    (List.map
       (fun n -> (n, [ Cx.Sequential; Cx.Barrier; Cx.Domore ]))
       [ "SYMM"; "CG"; "LLUBENCH"; "ECLAT"; "BLACKSCHOLES" ]
    @ List.map (fun n -> (n, [ Cx.Speccross ])) [ "SYMM"; "LLUBENCH"; "CG" ])

(* ---- seeded mixes ---- *)

type item = Run of cls | Stats

(* A generator deals the classes in rounds: each round is a fresh seeded
   permutation of every class, so each class recurs at the same rate.
   With [stats_share], each slot is a [Stats] request with that
   probability instead. *)
type gen = {
  rng : Prng.t;
  order : cls array;
  stats_share : float;
  mutable pos : int;
}

let gen ?(stats_share = 0.) ~seed ~stream cls =
  let rng = Prng.create ~seed:((seed * 7919) + stream) in
  let order = Array.of_list cls in
  Prng.shuffle rng order;
  { rng; order; stats_share; pos = 0 }

let next g =
  if g.stats_share > 0. && Prng.chance g.rng g.stats_share then Stats
  else begin
    if g.pos = Array.length g.order then begin
      Prng.shuffle g.rng g.order;
      g.pos <- 0
    end;
    let c = g.order.(g.pos) in
    g.pos <- g.pos + 1;
    Run c
  end

let item_name = function Run c -> cls_name c | Stats -> "stats"


(* ---- the paper artifacts ---- *)

let sweep_ids = [ "fig5.1"; "tab5.3" ]

(* MD5 of each artifact's text as rendered by the commit that defined this
   benchmark.  The sweep is deterministic, so any difference is a
   correctness failure, not noise. *)
let expected_digests =
  [ ("fig5.1", "61d96559cc3779c22316fed8e72ab0a3");
    ("tab5.3", "929139be601d7ce6868ac9bb755f2bc4") ]

let check_digest id text =
  let got = Digest.to_hex (Digest.string text) in
  match List.assoc_opt id expected_digests with
  | Some want when String.equal want got -> Ok ()
  | Some want -> Error (Printf.sprintf "%s: digest %s, expected %s" id got want)
  | None -> Error (Printf.sprintf "%s: no expected digest" id)
