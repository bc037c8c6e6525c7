(** The per-request stage-event stream over simulated time.

    One tracer is the single emitter every observer hangs off:
    - Chrome-trace-event spans and instants for 1-in-[sample] requests;
    - an attached {!Exemplar} store, which turns on stage capture for
      {e every} request (a pooled fixed-capacity buffer per flow,
      offered to the store at {!finish} — the top-K slowest survive
      with full anatomy — and recycled: zero allocation in steady
      state);
    - an attached {!Flightrec} flight recorder, which logs submissions,
      completions, errno failures, deadline misses, scheduler
      decisions and the runtime {!event}s, and fires the black-box
      dump triggers.

    A request's observer life is three calls: {!submit} starts its
    {!flow} (present only when it is sampled or captured) and records
    the submission; {!stage} telescopes — it closes the open stage and
    opens the next at the same instant, so a request's stage durations
    sum exactly to its root "request" span; {!finish} closes the flow
    and settles the request with every consumer at once.

    Every stream call happens at the current simulated instant, which
    the tracer reads from its clock only when an observer will use it:
    call sites pass no timestamps. Tracing never schedules engine
    events or charges simulated compute time, and with sampling,
    capture and the recorder all off every site reduces to a single
    option check and allocates nothing — the stream is invisible to a
    run's timing. *)

type ev = {
  ev_name : string;
  ev_cat : string;  (** "stage" | "mod" | "device" | "request" | "event" *)
  ev_ph : char;  (** 'X' complete span, 'i' instant *)
  ev_ts : float;  (** begin timestamp, simulated ns *)
  ev_dur : float;  (** duration ns (0 for instants) *)
  ev_tid : int;  (** simulated hardware thread *)
  ev_id : int;  (** request id *)
  ev_args : (string * string) list;
}

type t
(** A tracer: sampling knob, optional exemplar store, optional flight
    recorder, event buffer and flow pool. *)

val create :
  ?sample:int ->
  ?exemplars:Exemplar.t ->
  ?blackbox:Flightrec.t ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [create ~sample ()] — trace 1-in-[sample] requests by hashed id;
    [sample <= 0] (the default) disables Chrome-event tracing.
    [exemplars] attaches a tail-exemplar store and turns on stage
    capture for every request. [blackbox] attaches the flight
    recorder. [clock] reads simulated now, in ns (default: always 0). *)

val exemplar_store : t -> Exemplar.t option
val blackbox : t -> Flightrec.t option

val sampled : t -> id:int -> bool
(** Deterministic: [sample > 0] and a multiplicative hash of [id] is
    [0 mod sample]. The hash decorrelates sampling from id allocation
    strides (batched/per-client id blocks would alias a bare modulus
    and bias the cohort). *)

(** {1 Request stream} *)

type flow
(** Per-request trace context: request id, root begin time, at most
    one currently-open stage, and the stage-capture buffer. Pooled:
    recycled at {!finish}, so a flow must not be touched after its
    request completes. *)

val submit : t -> id:int -> tid:int -> scheduled:float -> flow option
(** A request enters the runtime now, intended at [scheduled]
    ([<= now]; open-loop injection lag). Records a [Submit] event and
    returns the request's flow — [None] unless the id is sampled or
    capture is on — rooted at [scheduled], with an ["inject_lag"]
    stage covering any lag and the ["submit"] stage open. The result
    is stored in [Request.trace] and travels with the request. *)

val stage : flow option -> name:string -> tid:int -> unit
(** Close the open stage now and open [name] at the same instant. *)

val finish :
  t -> flow option -> id:int -> tid:int -> ok:bool -> errno:string option -> unit
(** Settle request [id] now: close the flow's open stage, emit its
    root "request" span (sampled flows), offer the captured stages to
    the exemplar store and recycle the flow; record [Errno] (with the
    errno as tag) or [Complete] (arg 0 ok / 1 failed). A client-visible
    ENODEV or ETIMEDOUT fires an ["errno:<E>"] dump trigger. *)

val deadline : t -> id:int -> unit
(** A client-side deadline miss: records [Deadline] and fires the
    ["deadline_miss"] trigger. The request's flow is abandoned, not
    finished. *)

val instant :
  t -> flow option -> name:string -> tag:string -> id:int -> arg:int -> tid:int -> unit
(** A scheduler decision on request [id]: a Chrome instant [name] on
    its flow (with an ["absorbed"] arg when [arg > 0]) and a [Sched]
    recorder event with [tag] and [arg]. *)

val mark : flow option -> name:string -> tid:int -> unit
(** A point on the request's own timeline (cache hit/miss); flow-only,
    never recorded. *)

val span :
  ?args:(string * string) list ->
  flow -> name:string -> cat:string -> tid:int -> t0:float -> t1:float -> unit
(** Emit a complete span [t0, t1] (sampled flows) and record it into
    the capture buffer (capture on): per-LabMod and device spans. *)

(** {1 Runtime events} *)

val event :
  ?at:float ->
  ?trigger:string ->
  t ->
  Flightrec.kind ->
  id:int ->
  arg:int ->
  tag:string ->
  unit
(** A non-request event (worker and QoS-gate park/wake, injected
    faults, SLO window rolls) for the flight recorder, stamped now or
    at [at]; [trigger] also fires a dump trigger with that reason. *)

(** {1 Export} *)

val events : t -> ev list
(** All Chrome events in emission order. *)

val event_count : t -> int
val clear : t -> unit

val to_chrome_json : t -> string
(** Chrome trace-event JSON ({["traceEvents"]} array of "X"/"i" events,
    timestamps in microseconds) — loadable in Perfetto / chrome://tracing.
    Byte-stable for equal event sequences. *)
