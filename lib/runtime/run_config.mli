(** Runtime configuration: the one path from YAML or the command line
    to a {!Runtime.config}.

    Trusted users configure the Runtime through a YAML document (the
    paper's deployment model): worker-pool size, work-orchestration
    policy and its parameters, the admin period, worker polling, and
    the observability, QoS and SLO knobs. Example:

    {v
    workers: 8
    busy_poll: false
    admin_period_us: 1000
    worker_spin_us: 5
    trace_sample: 100       # trace 1-in-N requests (0 = off)
    trace_path: out/trace.json
    metrics_path: out/metrics.jsonl
    profile_period_us: 50   # sampler period (0 = profiling off)
    profile_path: out/profile.json
    slo_p99_target_us: 40   # latency objective (0 = no SLO)
    slo_floor_kops: 100     # throughput floor (0 = none)
    slo_error_budget: 0.01
    slo_window_ms: 1
    policy:
      kind: dynamic        # static | round_robin | dynamic
      max_workers: 8
      threshold: 0.2
      lq_cutoff_us: 1000
    v}

    Every key is a row of {!knobs}; adding a knob is a {!Runtime.config}
    field, its {!Runtime.default_config} value and one row. Parsing is
    strict: an unknown key or an ill-typed value is an [Error] naming
    the key, never a silent fallback to the default. *)

type knob = {
  key : string;  (** YAML key, also the [KEY] of {!set} *)
  doc : string;  (** one line, with the unit; shown by [labstor_cli --help] *)
  get : Runtime.config -> Lab_core.Yamlite.t;
      (** the knob's current value, in the YAML unit *)
  set :
    Runtime.config -> Lab_core.Yamlite.t -> (Runtime.config, string) result;
      (** type-checks a YAML value and sets the field *)
}

val knobs : knob list
(** One row per {!Runtime.config} field except [worker_core_base],
    which [Platform.boot] derives from the core count. Rows apply in
    list order. *)

val with_workers : Runtime.config -> int -> Runtime.config
(** Sets the pool size. Round-robin over the whole pool follows it: a
    [Round_robin k] policy with [k] the old pool size, or the untouched
    default policy, becomes [Round_robin n]. Pin round-robin to fewer
    workers than the pool with [Static k]. *)

val of_yaml :
  ?base:Runtime.config -> Lab_core.Yamlite.t -> (Runtime.config, string) result
(** Applies the document's keys over [base] (default
    {!Runtime.default_config}); missing keys keep [base]'s values. *)

val parse : ?base:Runtime.config -> string -> (Runtime.config, string) result
(** {!of_yaml} on YAML text. *)

val set : Runtime.config -> string -> (Runtime.config, string) result
(** [set c "KEY=VALUE"] applies one knob, the value parsed as YAML
    ([policy=dynamic] is shorthand for [policy: {kind: dynamic}]). *)
