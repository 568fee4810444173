module P = Protocol.Make (Sim_substrate)

let run ?config ?obs ~plan p env =
  let { Domore.machine; policy; workers } =
    match config with Some c -> c | None -> Domore.default_config ~workers:4
  in
  assert (workers > 0);
  Protocol.check_plan "Duplicated.run" plan;
  Sim_substrate.simulate ?obs ~machine ~dedicated:false ~workers ~technique:"DOMORE-dup" p
    (fun st -> P.run_duplicated st ~policy ~batch:1 ~plan p env)
