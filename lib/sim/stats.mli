(** Bounded sample statistics for simulation measurements.

    The one histogram of the code base: an HDR-style bucket array (each
    power of two split into 16 linear sub-buckets, values below 32
    bucketed per integer) of fixed size, so memory stays flat however
    many samples are added. The array is allocated by the first {!add}:
    an empty histogram costs a few words. [count], [sum], [mean], [stddev], [min] and
    [max] are exact, computed from the raw values; only {!percentile}
    is an estimate. Non-finite samples are recorded as 0. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float

val min : t -> float
(** [nan] when empty. *)

val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]: the nearest-rank value
    estimated from the buckets, [nan] when empty. For non-negative
    samples the estimate [e] of the exact nearest-rank value [x]
    satisfies [|e - x| <= x/16 + 1] and lies within [[min, max]];
    [p = 0] and [p = 100] are exact. Negative samples share the bucket
    of 0. *)

val buckets : t -> (float * int) list
(** Non-empty buckets in ascending order, as (integer upper bound,
    count). *)

val clear : t -> unit

(** Monotonically increasing event counter with rate helper. *)
module Counter : sig
  type c

  val create : unit -> c

  val incr : ?by:int -> c -> unit

  val value : c -> int

  val rate_per_sec : c -> elapsed_ns:float -> float

  val reset : c -> unit
end
