module Sim = Xinv_sim
module P = Protocol.Make (Sim_substrate)

type config = { machine : Sim.Machine.t; policy : Policy.t; workers : int }

let default_config ~workers =
  { machine = Sim.Machine.default; policy = Policy.Round_robin; workers }

let run ?config ?obs ?trace ~plan p env =
  let { machine; policy; workers } =
    match config with Some c -> c | None -> default_config ~workers:3
  in
  assert (workers > 0);
  Protocol.check_plan "Domore.run" plan;
  Sim_substrate.simulate ?obs ?trace ~machine ~dedicated:true ~workers ~technique:"DOMORE" p
    (fun st -> P.run st ~policy ~grain:1 ~plan p env)

let scheduler_worker_ratio (r : Xinv_parallel.Run.t) =
  let eng = r.Xinv_parallel.Run.engine in
  let sched = Sim.Engine.busy eng 0 -. Sim.Engine.charged eng 0 Sim.Category.Idle in
  let work = Sim.Engine.total eng Sim.Category.Work in
  if work <= 0. then infinity else sched /. work
