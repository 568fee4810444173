module Cx = Xinv_core.Crossinv
module Policy = Xinv_cache.Policy
module Wl = Xinv_workloads

type t = {
  workload : string;
  spec : Cx.Spec.t;
  fault : string option;
  deadline_ms : float option;
  priority : [ `High | `Normal ];
  tenant : string;
}

let make ?input ?backend ?technique ?threads ?mode ?cache ?fault ?deadline_ms
    ?(priority = `Normal) ?(tenant = "default") (`Name workload) =
  {
    workload;
    spec = Cx.Spec.make ?input ?backend ?technique ?threads ?mode ?cache ();
    fault;
    deadline_ms;
    priority;
    tenant;
  }

(* ---- codec ----

   Enumerations with a stable spelling (input, backend, signature kind)
   travel as that spelling. *)

let bad fmt =
  Printf.ksprintf (fun s -> raise (Wire.Error (Wire.Bad_payload s))) fmt

let put_policy w (p : Policy.t) =
  Wire.put_string w (Policy.backend_name p.backend);
  Wire.put_string w p.technique;
  Wire.put_u32 w p.domains;
  Wire.put_u32 w p.grain;
  Wire.put_u32 w p.batch;
  Wire.put_string w (Policy.sig_kind_name p.sig_kind);
  Wire.put_opt w Wire.put_u32 p.spec_distance;
  Wire.put_u32 w p.epoch_size

let get_policy r =
  let backend = Wire.get_name r "backend" Policy.backend_of_name in
  let technique = Wire.get_string r in
  let domains = Wire.get_u32 r in
  let grain = Wire.get_u32 r in
  let batch = Wire.get_u32 r in
  let sig_kind = Wire.get_name r "sig_kind" Policy.sig_kind_of_name in
  let spec_distance = Wire.get_opt r Wire.get_u32 in
  let epoch_size = Wire.get_u32 r in
  { Policy.backend; technique; domains; grain; batch; sig_kind; spec_distance;
    epoch_size }

let put w t =
  Wire.put_u8 w 0 (* workload by registry name, the only tag *);
  Wire.put_string w t.workload;
  Wire.put_string w (Wl.Workload.input_name t.spec.input);
  put_policy w t.spec.policy;
  Wire.put_u8 w (match t.spec.mode with `Fixed -> 0 | `Auto -> 1);
  Wire.put_bool w t.spec.verify;
  Wire.put_u8 w (match t.spec.cache with `Off -> 0 | `Ro -> 1 | `Rw -> 2);
  Wire.put_opt w Wire.put_string t.fault;
  Wire.put_opt w Wire.put_f64 t.deadline_ms;
  Wire.put_u8 w (match t.priority with `High -> 0 | `Normal -> 1);
  Wire.put_string w t.tenant

let get r =
  (match Wire.get_u8 r with 0 -> () | n -> bad "workload tag %d" n);
  let workload = Wire.get_string r in
  let input = Wire.get_name r "input" Wl.Workload.input_of_string in
  let policy = get_policy r in
  let mode =
    match Wire.get_u8 r with 0 -> `Fixed | 1 -> `Auto | n -> bad "mode %d" n
  in
  let verify = Wire.get_bool r in
  let cache =
    match Wire.get_u8 r with
    | 0 -> `Off
    | 1 -> `Ro
    | 2 -> `Rw
    | n -> bad "cache %d" n
  in
  let fault = Wire.get_opt r Wire.get_string in
  let deadline_ms = Wire.get_opt r Wire.get_f64 in
  let priority =
    match Wire.get_u8 r with 0 -> `High | 1 -> `Normal | n -> bad "priority %d" n
  in
  let tenant = Wire.get_string r in
  {
    workload;
    spec = { Cx.Spec.input; policy; mode; verify; cache };
    fault;
    deadline_ms;
    priority;
    tenant;
  }

(* ---- resolution ---- *)

let cache_rank = function `Off -> 0 | `Ro -> 1 | `Rw -> 2

let min_cache a b = if cache_rank a <= cache_rank b then a else b

type resolve_error =
  [ `Unknown_workload of string | `Bad_request of string ]

let to_crossinv ?pool ?cache_dir ?(cache_limit = `Rw) ?deadline_ms
    ?on_watchdog t =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error
      (fun m -> `Bad_request m)
      (Cx.Spec.validate ?deadline_ms:t.deadline_ms t.spec)
  in
  let* workload =
    try Ok (Wl.Registry.find t.workload)
    with Invalid_argument _ -> Error (`Unknown_workload t.workload)
  in
  let* fault =
    match t.fault with
    | None -> Ok None
    | Some s -> (
        match Xinv_native.Fault.spec_of_string s with
        | Ok sp -> Ok (Some sp)
        | Error m -> Error (`Bad_request ("bad fault spec: " ^ m)))
  in
  let spec = { t.spec with cache = min_cache t.spec.cache cache_limit } in
  let native =
    { Cx.native_defaults with pool; fault; deadline_ms; on_watchdog }
  in
  Ok
    {
      Cx.Request.workload;
      spec;
      ctx = { Cx.Request.default_ctx with cache_dir; native };
    }
