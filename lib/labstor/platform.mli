(** High-level entry point: boots a simulated machine with storage
    devices and a LabStor Runtime, ready for stacks to be mounted and
    clients to connect. This is the API the examples and benchmarks
    use. *)

type t

val boot :
  ?ncores:int ->
  ?nworkers:int ->
  ?policy:Lab_runtime.Orchestrator.policy ->
  ?costs:Lab_sim.Costs.t ->
  ?devices:Lab_device.Profile.kind list ->
  ?default_device:Lab_device.Profile.kind ->
  ?seed:int ->
  ?workers_busy_poll:bool ->
  ?worker_batch_size:int ->
  ?worker_max_inflight:int ->
  ?fault_rates:Lab_sim.Fault.rates ->
  ?fault_script:Lab_sim.Fault.event list ->
  ?trace_sample:int ->
  ?trace_path:string ->
  ?metrics_path:string ->
  ?profile_period:float ->
  ?profile_path:string ->
  ?lvm_rebuild_rate_mbps:float ->
  ?qos_quantum_kb:int ->
  ?qos_window_kb:int ->
  ?qos_bypass_kb:int ->
  ?slo_name:string ->
  ?slo_p99_target_us:float ->
  ?slo_floor_kops:float ->
  ?slo_error_budget:float ->
  ?slo_window_ms:float ->
  ?exemplar_k:int ->
  ?exemplar_path:string ->
  ?blackbox_cap:int ->
  ?blackbox_path:string ->
  unit ->
  t
(** Defaults: 24 cores, 4 workers, round-robin orchestration, one NVMe
    device (plus any others listed). Backends are named after their
    device kind in lowercase ("nvme", "ssd", "hdd", "pmem"); listing a
    kind more than once boots distinct instances — mirror legs — named
    "nvme", "nvme2", "nvme3", … (see {!devices} / {!device_by_name}).
    [worker_batch_size] (default 1) bounds how many requests a worker
    drains per queue per cross-core pull; [worker_max_inflight]
    (default 16) bounds each worker's asynchronous window; see
    {!Lab_runtime.Worker}. [lvm_rebuild_rate_mbps] overrides the
    volume-manager resilver rate cap
    ({!Lab_runtime.Runtime.config.lvm_rebuild_rate_mbps}).

    If [fault_rates] or [fault_script] is given, every booted device
    gets a deterministic fault plan derived from [seed] (one independent
    stream per device); otherwise devices are fault-free.

    [trace_sample] (default 0 = off) traces every request whose id is a
    multiple of N through the span tracer; [trace_path] and
    [metrics_path] are where {!export} writes the Chrome trace-event
    JSON and the JSONL metrics snapshot. Device counters and service
    percentiles are registered as read-through gauges under
    ["device.<backend>."].

    [profile_period] (ns; default 0 = off) enables the continuous
    profiler: a sampler rides the engine clock at that period recording
    per-core busy fraction, worker utilization/in-flight, QP and device
    queue occupancy, and cache dirty backlog; [profile_path] is where
    {!export} writes the profile JSON (timeline + flamegraph + tail
    attribution). Combine with [trace_sample] for the span half.

    [qos_quantum_kb] / [qos_window_kb] / [qos_bypass_kb] override the
    multi-tenant QoS table's DRR quantum, dispatch window and
    latency-class bypass threshold
    ({!Lab_runtime.Runtime.config.qos_quantum_kb} etc.); the table is
    inert until {!register_tenant} is called.

    [slo_p99_target_us] / [slo_floor_kops] configure a runtime-wide
    service-level objective over client latency (see
    {!Lab_runtime.Runtime.slo}): requests slower than the target — and
    burn windows serving fewer ops than the floor — consume error
    budget ([slo_error_budget], default 1%) tracked per
    [slo_window_ms] window, exported as the
    [slo.<slo_name>.budget_remaining] / [.burn_rate] gauges. Leaving
    both at their 0 defaults builds no SLO object at all, keeping the
    request path byte-identical to a platform without SLO support.

    [exemplar_k] (default 0 = off) keeps the [k] slowest completed
    requests as tail exemplars with full per-stage anatomy (an exact
    top-K over every completion). [blackbox_cap] (default 0 = off) turns on
    the always-on flight recorder: a ring of the last [blackbox_cap]
    encoded events, dumped when a trigger fires (injected fault,
    client-visible ENODEV/ETIMEDOUT, deadline miss, SLO burn rate
    above 1). {!export} writes the stores to [exemplar_path] /
    [blackbox_path]. Both features cost zero engine events and zero
    simulated time, so enabling them never perturbs a run's schedule. *)

val machine : t -> Lab_sim.Machine.t

val runtime : t -> Lab_runtime.Runtime.t

val device : t -> Lab_device.Profile.kind -> Lab_device.Device.t
(** The first booted device of that kind.
    @raise Not_found if the kind was not booted. *)

val devices : t -> (string * Lab_device.Device.t) list
(** Every booted device instance with its name, in boot order. *)

val device_by_name : t -> string -> Lab_device.Device.t
(** Looks an instance up by name ("nvme", "nvme2", …).
    @raise Invalid_argument on an unknown name. *)

val fault_plan : t -> Lab_device.Profile.kind -> Lab_sim.Fault.t option
(** The device's installed fault plan; [None] when booted without
    faults. Per-category injection counts surface as
    ["fault.<backend>.<category>"] counters in {!metrics} snapshots
    (synced by {!export}); the live total is the
    ["fault.<backend>.injected_total"] gauge. *)

val backend : t -> Lab_device.Profile.kind -> Lab_mods.Mods_env.backend

val mount : t -> string -> (Lab_core.Stack.t, string) result
(** Mounts a LabStack from its YAML specification text. *)

val mount_exn : t -> string -> Lab_core.Stack.t

val register_tenant :
  t ->
  uid:int ->
  ?weight:int ->
  ?rate_mbps:float ->
  ?burst_kb:int ->
  ?qcap:int ->
  unit ->
  Lab_ipc.Tenant.tenant
(** Registers a QoS tenant keyed by client uid — see
    {!Lab_runtime.Runtime.register_tenant}. Register before connecting
    the tenant's clients: the uid-to-tenant lookup happens at
    {!client} connect time. *)

val tenant_for : t -> uid:int -> Lab_ipc.Tenant.tenant option

val client :
  t ->
  ?pid:int ->
  ?uid:int ->
  ?retry_policy:Lab_runtime.Client.retry_policy ->
  thread:int ->
  unit ->
  Lab_runtime.Client.t
(** Connects a client; must run inside a simulated process (e.g. within
    {!go}). Fresh pids are assigned when omitted. A uid registered via
    {!register_tenant} makes the client a metered tenant: token-bucket
    admission applies (refusals surface as retryable EAGAIN) and its
    requests pass the scheduler's DRR dispatch stage. *)

val go : t -> (unit -> 'a) -> 'a
(** [go t f] runs [f] as a simulated process to completion and returns
    its result, then freezes the platform's background processes. Call
    from outside the engine (top level of an example). *)

val now : t -> float
(** Virtual time, ns. *)

val tracer : t -> Lab_obs.Trace.t
(** The runtime's span tracer (shortcut for
    [Lab_runtime.Runtime.tracer (runtime t)]). *)

val metrics : t -> Lab_obs.Metrics.t
(** The runtime's metrics registry, holding queue-pair, worker, module,
    client, device and fault instruments. *)

val profile_json : t -> string
(** The profile artifact as a string:
    [{"timeline": <sampler series>, "spans": <flamegraph + tail>}].
    Byte-stable: two same-seed runs produce identical bytes. The
    timeline half is empty when the platform booted without
    [profile_period]; the spans half is empty without [trace_sample]. *)

val export :
  ?trace_path:string -> ?metrics_path:string -> ?profile_path:string ->
  ?exemplar_path:string -> ?blackbox_path:string ->
  t -> unit
(** Writes the observability artifacts: the Chrome trace-event JSON
    (loadable in Perfetto / [chrome://tracing]), the profile JSON
    ({!profile_json}), the tail-exemplar store, the flight-recorder
    black box, and the JSONL metrics snapshot. Explicit arguments
    override the paths given to {!boot}; a file is skipped when no
    path is configured for it (exemplar/black-box files additionally
    require the feature to have been enabled at boot). Missing parent
    directories are created. Fault counters are synced from the
    devices' fault plans first. *)
