(** Discrete-event simulation engine.

    Simulated processes are ordinary OCaml functions run under an effect
    handler. Inside a process, {!wait} advances virtual time and
    {!suspend} parks the process until some other process resumes it.
    The event queue is ordered by (time, sequence number), so runs are
    fully deterministic.

    Virtual time is a [float] count of nanoseconds since simulation
    start. *)

type t

type resumer = unit -> unit
(** Calling a resumer schedules the suspended process to continue at the
    current virtual time. A resumer is one-shot: second and later calls
    are ignored. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in nanoseconds. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] registers process [f] to start at the current time.
    May be called from inside or outside a running process. *)

val spawn_at : t -> float -> (unit -> unit) -> unit
(** [spawn_at t time f] starts [f] at absolute virtual [time]. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t time thunk] runs [thunk] at absolute virtual [time] as
    a plain callback — no effect handler, so [thunk] must not call
    {!wait}/{!suspend}. Cheaper than {!spawn_at} for fire-and-forget
    actions; does not clamp past times (the queue orders them by
    (time, seq) like any other event). *)

val timer : t -> ns:int -> (int -> unit) -> int -> unit
(** [timer t ~ns fn arg] runs [fn arg] after [ns] simulated
    nanoseconds (negative treated as 0). The closure-free hot path:
    with a preallocated [fn], scheduling and dispatch touch only the
    engine's event pool — zero minor-heap allocation, unlike
    {!schedule}/{!wait} which cost a closure / an effect continuation.
    [fn] must not call {!wait}/{!suspend}. *)

val now_here : unit -> float
(** Current virtual time of the calling process's engine. Must be
    called from within a process (like {!wait}); lets library code read
    the clock without carrying an engine handle. *)

val wait : float -> unit
(** [wait d] suspends the calling process for [d] simulated nanoseconds.
    Negative [d] is treated as 0. Must be called from within a process. *)

val suspend : (resumer -> unit) -> unit
(** [suspend register] parks the calling process and hands a one-shot
    {!resumer} to [register]. The process continues when the resumer is
    invoked. *)

val join : t -> int -> (int -> unit) -> unit
(** [join t n body] spawns [body 0] … [body (n-1)] in index order at
    the current time and suspends the caller until the last of them
    returns. Returns at once when [n <= 0]. Must be called from within
    a process. *)

type park_cell
(** A reusable parking spot. Unlike {!suspend} — whose first-class
    resumer costs a closure, a fired flag, and a register callback per
    use — a park cell stores the suspended continuation in place, so a
    pooled cell makes repeated park/unpark cycles free of everything
    but the continuation the effect runtime itself allocates. *)

val make_park_cell : unit -> park_cell

val park : park_cell -> unit
(** [park cell] suspends the calling process into [cell]. The cell must
    be empty (one process per cell at a time); the process continues
    when {!unpark} is called. Must be called from within a process. *)

val unpark : park_cell -> unit
(** Schedules the process parked in [cell] to continue at its engine's
    current virtual time, exactly as invoking a {!resumer} would.
    One-shot per park: an empty cell is a no-op. May be called from
    inside or outside a process. *)

val parked : park_cell -> bool
(** True while a process is parked in the cell. *)

type spinner
(** A reusable spot for a process that polls every [period] ns until
    something changes or its budget runs out — [wait period] in a loop,
    without an event per poll.

    The engine tracks a spinning process's ticks itself instead of
    queueing them. A tick whose poll would find nothing new is passed
    without resuming anyone, yet it takes the sequence number its
    [wait] would have taken, in key order with every other tick, so
    every queued event keeps the (time, seq) key it would have with one
    event per tick. A tick resumes its process only when it was
    {!poke}d, or when it is the first at or past the deadline. *)

val make_spinner : period:float -> budget:float -> spinner
(** [period] (negative taken as 0) is the gap between ticks; [budget]
    is how long one idle stretch may spin (infinity: no last tick). *)

val spin_begin : spinner -> unit
(** Starts an idle stretch: the deadline becomes [now + budget]. Call
    it right after a poll that found nothing — pokes from before it are
    forgotten, and a passed tick stands for a poll that would find the
    same — and poke on every change a poll could see. Must be called
    from within a process. *)

val spin : spinner -> bool
(** [spin sp] returns [false] at once when [now] has reached the
    deadline. Otherwise it suspends the caller until its next tick that
    is real — ticks fall at [now + period], then [+ period] again, by
    the same float accumulation as repeated [wait period] — and returns
    [true]: either the first tick after a {!poke}, or the first tick at
    or past the deadline. Must be called from within a process. *)

val poke : spinner -> unit
(** Makes the spinner's next tick real: its owner resumes at that
    tick's own time, under that tick's own sequence number. A poke
    while the owner runs between two ticks of one idle stretch applies
    to its next {!spin}. May be called from inside or outside a
    process. *)

val run : ?until:float -> t -> unit
(** Executes events until the queue drains or virtual time would exceed
    [until]. Processes still suspended when the queue drains simply never
    continue (this models daemons outliving the experiment). Spinner
    ticks count as queued: a drain runs every spinner out to its last
    tick (a spinner without one never drains), and [until] passes only
    ticks at or before the limit. *)

val step : t -> bool
(** Executes exactly one event, after passing the spinner ticks that
    come before it; with no event queued it passes one tick. False when
    nothing is queued and nothing spins. Lets a caller interleave
    simulation with a host-side stop condition without discarding
    pending events. *)

val active : t -> bool
(** True while the engine has queued events or spinning processes. *)

val events_executed : t -> int
(** Total event count; useful for regression tests on determinism.
    Spinner ticks that are passed without resuming anyone do not
    count. *)

val set_tick : t -> period:float -> (float -> unit) -> unit
(** Installs the virtual-time sampling hook: [f] is called at every
    multiple of [period] the clock crosses while executing events, with
    the boundary time (and [now] set to it for the call's duration).

    The hook is {e not} an engine event: it never appears in the event
    heap, does not count in {!events_executed}, cannot keep the engine
    alive, and fires only while real events still advance the clock —
    so installing it cannot change a run's event count, event ordering,
    or final virtual time. The callback must only read simulation
    state: calling {!wait}, {!suspend}, or {!spawn} from it is
    unsupported. One hook per engine; installing replaces the previous
    one. @raise Invalid_argument if [period <= 0]. *)

val clear_tick : t -> unit
(** Removes the sampling hook. *)

exception Stopped
(** Raised inside processes that the engine terminates via {!stop_all}. *)

val stop_all : t -> unit
(** Drops all queued events and spinners. Suspended processes are
    abandoned. *)
