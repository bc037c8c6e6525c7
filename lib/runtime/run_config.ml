open Lab_core

let ( let* ) r f = Result.bind r f

let policy_of_yaml ~nworkers node =
  match node with
  | None -> Ok (Orchestrator.Round_robin nworkers)
  | Some node -> (
      let geti key default =
        Option.value ~default (Option.bind (Yamlite.find node key) Yamlite.get_int)
      in
      let getf key default =
        Option.value ~default
          (Option.bind (Yamlite.find node key) Yamlite.get_float)
      in
      match Option.bind (Yamlite.find node "kind") Yamlite.get_string with
      | Some "static" -> Ok (Orchestrator.Static (geti "workers" nworkers))
      | Some "round_robin" | None ->
          Ok (Orchestrator.Round_robin (geti "workers" nworkers))
      | Some "dynamic" ->
          Ok
            (Orchestrator.Dynamic
               {
                 max_workers = geti "max_workers" nworkers;
                 threshold = getf "threshold" 0.2;
                 lq_cutoff_ns = getf "lq_cutoff_us" 1000.0 *. 1000.0;
               })
      | Some other -> Error (Printf.sprintf "unknown policy kind %S" other))

let of_yaml node =
  let d = Runtime.default_config in
  let geti key default =
    Option.value ~default (Option.bind (Yamlite.find node key) Yamlite.get_int)
  in
  let getf key default =
    Option.value ~default (Option.bind (Yamlite.find node key) Yamlite.get_float)
  in
  let getb key default =
    Option.value ~default (Option.bind (Yamlite.find node key) Yamlite.get_bool)
  in
  let gets key default =
    match Option.bind (Yamlite.find node key) Yamlite.get_string with
    | Some s when s <> "" -> Some s
    | _ -> default
  in
  let nworkers = geti "workers" d.Runtime.nworkers in
  if nworkers <= 0 then Error "workers must be positive"
  else
    let* policy = policy_of_yaml ~nworkers (Yamlite.find node "policy") in
    Ok
      {
        Runtime.nworkers;
        policy;
        admin_period_ns =
          getf "admin_period_us" (d.Runtime.admin_period_ns /. 1000.0) *. 1000.0;
        worker_spin_ns =
          getf "worker_spin_us" (d.Runtime.worker_spin_ns /. 1000.0) *. 1000.0;
        worker_core_base = geti "worker_core_base" d.Runtime.worker_core_base;
        workers_busy_poll = getb "busy_poll" d.Runtime.workers_busy_poll;
        worker_batch_size =
          geti "worker_batch_size" d.Runtime.worker_batch_size;
        worker_max_inflight =
          geti "worker_max_inflight" d.Runtime.worker_max_inflight;
        trace_sample = geti "trace_sample" d.Runtime.trace_sample;
        trace_path = gets "trace_path" d.Runtime.trace_path;
        metrics_path = gets "metrics_path" d.Runtime.metrics_path;
        profile_period_ns =
          getf "profile_period_us"
            (d.Runtime.profile_period_ns /. 1000.0)
          *. 1000.0;
        profile_path = gets "profile_path" d.Runtime.profile_path;
        lvm_rebuild_rate_mbps =
          getf "lvm_rebuild_rate_mbps" d.Runtime.lvm_rebuild_rate_mbps;
        qos_quantum_kb = geti "qos_quantum_kb" d.Runtime.qos_quantum_kb;
        qos_window_kb = geti "qos_window_kb" d.Runtime.qos_window_kb;
        qos_bypass_kb = geti "qos_bypass_kb" d.Runtime.qos_bypass_kb;
        tenant_weight = geti "tenant_weight" d.Runtime.tenant_weight;
        tenant_rate_mbps = getf "tenant_rate_mbps" d.Runtime.tenant_rate_mbps;
        tenant_burst_kb = geti "tenant_burst_kb" d.Runtime.tenant_burst_kb;
        tenant_qcap = geti "tenant_qcap" d.Runtime.tenant_qcap;
        slo_name =
          Option.value ~default:d.Runtime.slo_name (gets "slo_name" None);
        slo_p99_target_us =
          getf "slo_p99_target_us" d.Runtime.slo_p99_target_us;
        slo_floor_kops = getf "slo_floor_kops" d.Runtime.slo_floor_kops;
        slo_error_budget = getf "slo_error_budget" d.Runtime.slo_error_budget;
        slo_window_ms = getf "slo_window_ms" d.Runtime.slo_window_ms;
        load_rate_kops = getf "load_rate_kops" d.Runtime.load_rate_kops;
        load_injectors = geti "load_injectors" d.Runtime.load_injectors;
        load_queue_cap = geti "load_queue_cap" d.Runtime.load_queue_cap;
        exemplar_k = geti "exemplar_k" d.Runtime.exemplar_k;
        exemplar_path = gets "exemplar_path" d.Runtime.exemplar_path;
        blackbox_cap = geti "blackbox_cap" d.Runtime.blackbox_cap;
        blackbox_path = gets "blackbox_path" d.Runtime.blackbox_path;
      }

let parse text =
  match Yamlite.parse text with
  | exception Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | node -> of_yaml node
