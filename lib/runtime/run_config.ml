open Lab_core

let ( let* ) r f = Result.bind r f

type knob = {
  key : string;
  doc : string;
  get : Runtime.config -> Yamlite.t;
  set : Runtime.config -> Yamlite.t -> (Runtime.config, string) result;
}

let type_error key what v =
  Error
    (Printf.sprintf "%s: expected %s, got %s" key what (Yamlite.to_string v))

(* One typed row: [decode] reads the YAML value, [encode] writes it back,
   [set] is the typed setter on the config. *)
let row what ~decode ~encode key doc get set =
  {
    key;
    doc;
    get = (fun c -> encode (get c));
    set =
      (fun c v ->
        match decode v with
        | Some x -> Ok (set c x)
        | None -> type_error key what v);
  }

let int ?(min = min_int) =
  row
    (if min = min_int then "an integer"
     else Printf.sprintf "an integer >= %d" min)
    ~decode:(function Yamlite.Int i when i >= min -> Some i | _ -> None)
    ~encode:(fun i -> Yamlite.Int i)

let float =
  row "a number" ~decode:Yamlite.get_float ~encode:(fun f -> Yamlite.Float f)

let bool = row "a boolean" ~decode:Yamlite.get_bool ~encode:(fun b -> Yamlite.Bool b)

let string =
  row "a non-empty string"
    ~decode:(function Yamlite.Str s when s <> "" -> Some s | _ -> None)
    ~encode:(fun s -> Yamlite.Str s)

(* An output path: empty or null means "do not write". *)
let path =
  row "a path"
    ~decode:(function
      | Yamlite.Null | Yamlite.Str "" -> Some None
      | Yamlite.Str s -> Some (Some s)
      | _ -> None)
    ~encode:(function None -> Yamlite.Null | Some s -> Yamlite.Str s)

(* A duration written in microseconds, stored in nanoseconds. *)
let us key doc get set =
  float key doc (fun c -> get c /. 1000.0) (fun c us -> set c (us *. 1000.0))

let with_workers (c : Runtime.config) n =
  let policy =
    match c.policy with
    | Orchestrator.Round_robin k
      when k = c.nworkers || c.policy = Runtime.default_config.policy ->
        Orchestrator.Round_robin n
    | p -> p
  in
  { c with nworkers = n; policy }

let policy_to_yaml : Orchestrator.policy -> Yamlite.t = function
  | Static n -> Map [ ("kind", Str "static"); ("workers", Int n) ]
  | Round_robin n -> Map [ ("kind", Str "round_robin"); ("workers", Int n) ]
  | Dynamic { max_workers; threshold; lq_cutoff_ns } ->
      Map
        [
          ("kind", Str "dynamic");
          ("max_workers", Int max_workers);
          ("threshold", Float threshold);
          ("lq_cutoff_us", Float (lq_cutoff_ns /. 1000.0));
        ]

(* [policy: dynamic] is shorthand for [policy: {kind: dynamic}]; missing
   worker counts default to the pool size. *)
let policy_of_yaml ~nworkers v =
  let* kvs =
    match v with
    | Yamlite.Map kvs -> Ok kvs
    | Yamlite.Str kind -> Ok [ ("kind", Yamlite.Str kind) ]
    | v -> type_error "policy" "a policy kind or map" v
  in
  let field key what decode default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
        match decode v with
        | Some x -> Ok x
        | None -> type_error ("policy." ^ key) what v)
  in
  let int key = field key "an integer" Yamlite.get_int nworkers in
  let float key = field key "a number" Yamlite.get_float in
  let only keys =
    match List.find_opt (fun (k, _) -> not (List.mem k ("kind" :: keys))) kvs with
    | Some (k, _) -> Error (Printf.sprintf "policy: unknown key %S" k)
    | None -> Ok ()
  in
  let* kind = field "kind" "a string" Yamlite.get_string "round_robin" in
  match kind with
  | ("static" | "round_robin") as kind ->
      let* () = only [ "workers" ] in
      let* n = int "workers" in
      Ok (if kind = "static" then Orchestrator.Static n else Round_robin n)
  | "dynamic" ->
      let* () = only [ "max_workers"; "threshold"; "lq_cutoff_us" ] in
      let* max_workers = int "max_workers" in
      let* threshold = float "threshold" 0.2 in
      let* lq_cutoff_us = float "lq_cutoff_us" 1000.0 in
      Ok
        (Orchestrator.Dynamic
           { max_workers; threshold; lq_cutoff_ns = lq_cutoff_us *. 1000.0 })
  | other -> Error (Printf.sprintf "unknown policy kind %S" other)

(* Row order is application order: [workers] precedes [policy] so the
   policy's worker counts default to the new pool size. *)
let knobs : knob list =
  let open Runtime in
  [
    int ~min:1 "workers" "worker pool size" (fun c -> c.nworkers) with_workers;
    {
      key = "policy";
      doc = "work orchestration: static | round_robin | dynamic, or a map";
      get = (fun c -> policy_to_yaml c.policy);
      set =
        (fun c v ->
          let* policy = policy_of_yaml ~nworkers:c.nworkers v in
          Ok { c with policy });
    };
    us "admin_period_us" "upgrade poll / rebalance epoch"
      (fun c -> c.admin_period_ns) (fun c v -> { c with admin_period_ns = v });
    us "worker_spin_us" "idle polling budget before a worker sleeps"
      (fun c -> c.worker_spin_ns) (fun c v -> { c with worker_spin_ns = v });
    bool "busy_poll" "workers poll instead of sleeping"
      (fun c -> c.workers_busy_poll) (fun c v -> { c with workers_busy_poll = v });
    int "worker_batch_size" "requests drained per queue per pull"
      (fun c -> c.worker_batch_size) (fun c v -> { c with worker_batch_size = v });
    int "worker_max_inflight" "per-worker asynchronous window"
      (fun c -> c.worker_max_inflight) (fun c v -> { c with worker_max_inflight = v });
    int "trace_sample" "trace 1-in-N requests (0 = off)"
      (fun c -> c.trace_sample) (fun c v -> { c with trace_sample = v });
    path "trace_path" "Chrome trace-event JSON output"
      (fun c -> c.trace_path) (fun c v -> { c with trace_path = v });
    path "metrics_path" "JSONL metrics snapshot output"
      (fun c -> c.metrics_path) (fun c v -> { c with metrics_path = v });
    int "exemplar_k" "tail-exemplar slots (0 = off)"
      (fun c -> c.exemplar_k) (fun c v -> { c with exemplar_k = v });
    path "exemplar_path" "exemplar store JSON output"
      (fun c -> c.exemplar_path) (fun c v -> { c with exemplar_path = v });
    int "blackbox_cap" "flight-recorder ring events (0 = off)"
      (fun c -> c.blackbox_cap) (fun c v -> { c with blackbox_cap = v });
    path "blackbox_path" "black-box dump JSON output"
      (fun c -> c.blackbox_path) (fun c v -> { c with blackbox_path = v });
    us "profile_period_us" "profiling sampler period (0 = off)"
      (fun c -> c.profile_period_ns) (fun c v -> { c with profile_period_ns = v });
    path "profile_path" "profile JSON output"
      (fun c -> c.profile_path) (fun c v -> { c with profile_path = v });
    float "lvm_rebuild_rate_mbps" "volume resilver rate cap (MB/s)"
      (fun c -> c.lvm_rebuild_rate_mbps) (fun c v -> { c with lvm_rebuild_rate_mbps = v });
    int "qos_quantum_kb" "DRR quantum per visit per unit weight (KiB)"
      (fun c -> c.qos_quantum_kb) (fun c v -> { c with qos_quantum_kb = v });
    int "qos_window_kb" "outstanding throughput-class bytes (KiB)"
      (fun c -> c.qos_window_kb) (fun c v -> { c with qos_window_kb = v });
    int "qos_bypass_kb" "latency-class size threshold (KiB)"
      (fun c -> c.qos_bypass_kb) (fun c v -> { c with qos_bypass_kb = v });
    int "tenant_weight" "default tenant weight"
      (fun c -> c.tenant_weight) (fun c v -> { c with tenant_weight = v });
    float "tenant_rate_mbps" "default tenant rate cap (0 = uncapped)"
      (fun c -> c.tenant_rate_mbps) (fun c v -> { c with tenant_rate_mbps = v });
    int "tenant_burst_kb" "default tenant token-bucket burst (KiB)"
      (fun c -> c.tenant_burst_kb) (fun c v -> { c with tenant_burst_kb = v });
    int "tenant_qcap" "default per-tenant outstanding-op cap"
      (fun c -> c.tenant_qcap) (fun c v -> { c with tenant_qcap = v });
    string "slo_name" "SLO gauge prefix (slo.<name>.*)"
      (fun c -> c.slo_name) (fun c v -> { c with slo_name = v });
    float "slo_p99_target_us" "client-latency objective (0 = no SLO)"
      (fun c -> c.slo_p99_target_us) (fun c v -> { c with slo_p99_target_us = v });
    float "slo_floor_kops" "throughput floor (0 = none)"
      (fun c -> c.slo_floor_kops) (fun c v -> { c with slo_floor_kops = v });
    float "slo_error_budget" "allowed bad fraction of requests"
      (fun c -> c.slo_error_budget) (fun c v -> { c with slo_error_budget = v });
    float "slo_window_ms" "burn-rate window (simulated ms)"
      (fun c -> c.slo_window_ms) (fun c v -> { c with slo_window_ms = v });
  ]

let find key = List.find_opt (fun k -> k.key = key) knobs

let of_yaml ?(base = Runtime.default_config) node =
  match node with
  | Yamlite.Null -> Ok base
  | Yamlite.Map kvs -> (
      match List.find_opt (fun (k, _) -> find k = None) kvs with
      | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
      | None ->
          List.fold_left
            (fun acc knob ->
              let* c = acc in
              match List.assoc_opt knob.key kvs with
              | None -> Ok c
              | Some v -> knob.set c v)
            (Ok base) knobs)
  | v -> type_error "config" "a map of knobs" v

let parse_yaml text =
  match Yamlite.parse text with
  | exception Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | node -> Ok node

let parse ?base text =
  let* node = parse_yaml text in
  of_yaml ?base node

let set c kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "%S: expected KEY=VALUE" kv)
  | Some i -> (
      let key = String.trim (String.sub kv 0 i) in
      let value = String.sub kv (i + 1) (String.length kv - i - 1) in
      match find key with
      | None -> Error (Printf.sprintf "unknown key %S" key)
      | Some knob -> (
          let* node = parse_yaml (key ^ ": " ^ value) in
          match node with
          | Yamlite.Map [ (_, v) ] -> knob.set c v
          | _ -> Error (Printf.sprintf "%s: expected one YAML value" key)))
