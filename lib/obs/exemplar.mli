(** Tail-latency exemplar store: retroactive capture of the slowest
    requests with full stage anatomy.

    Every request's spans are recorded into a pooled fixed-capacity
    buffer by the tracer (see {!Trace}); on completion the buffer is
    promoted — copied into a preallocated slot — when the request is
    among the K slowest offered so far, and recycled otherwise. The
    store is an exact top-K: once full, an offer is admitted iff it is
    strictly slower than the stored minimum, which it replaces; equal
    latencies keep the earlier offer. So a run ends with the anatomy of
    exactly the outliers a prospective 1-in-N sampler would have
    missed. A rejected offer costs one comparison; steady state
    allocates nothing. *)

val stage_capacity : int
(** Stage records captured per request (24): the deepest stock stack's
    telescoping stages + per-LabMod spans + instants fit inside it;
    overflow is counted, not grown. *)

type t

val create : k:int -> unit -> t
(** [k] slots ([k = 0] disables the store: every offer recycles). *)

val offer :
  t ->
  id:int ->
  t0:float ->
  latency:float ->
  n:int ->
  dropped:int ->
  names:string array ->
  cats:string array ->
  t0s:float array ->
  t1s:float array ->
  bool
(** Offer a completed request's captured stages (first [n] records of
    the parallel arrays; [dropped] counts records past
    {!stage_capacity}). Copies in on promotion; never retains the
    caller's arrays. Returns [true] iff promoted. *)

val k : t -> int
val stored : t -> int

val offered : t -> int
val promoted : t -> int
val recycled : t -> int
val evicted : t -> int

(** {1 Read-out} *)

type stage = { s_name : string; s_cat : string; s_t0 : float; s_t1 : float }

type view = {
  v_id : int;
  v_t0 : float;
  v_latency : float;
  v_dropped : int;
  v_stages : stage list;
}

val dump : t -> view list
(** Stored exemplars, slowest first (ties by request id — stable for
    same-seed runs). *)

val to_json : t -> string
(** Byte-stable JSON: store counters plus the ranked exemplar list
    with per-stage name/cat/begin/duration. *)
