(* HDR-style histogram with exact moments.

   Bucket layout: a value below 32 lands in the bucket of its integer
   part; a larger value with top bit p shares a bucket with the values
   that agree on its top 5 bits, i.e. each power of two [2^p, 2^(p+1))
   is cut into 16 linear sub-buckets of width 2^(p-4). The bucket's
   integer upper bound is then within 1/16 of anything in it. The index
   of a value >= 32 is read off its IEEE-754 bits: the exponent is p,
   the top 4 mantissa bits pick the sub-bucket. 944 buckets cover every
   value below 2^62; larger ones share the last bucket.

   Sum, sum of squares, min and max live in a float array, so adding a
   sample allocates nothing once the bucket array exists. That array is
   allocated by the first [add], so an idle histogram (a registered but
   silent tenant, say) costs a few words. *)

let nbuckets = 944

let index_of v =
  if v < 32.0 then if v > 0.0 then Stdlib.int_of_float v else 0
  else if v >= 0x1p62 then nbuckets - 1
  else begin
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let p = (bits lsr 52) - 1023 in
    ((p - 3) * 16) + ((bits lsr 48) land 15)
  end

(* Largest integer of bucket [i]. *)
let upper_of i =
  if i < 32 then Stdlib.float_of_int i
  else begin
    let b = (i / 16) - 1 in
    Stdlib.float_of_int (((i - (b * 16) + 1) lsl b) - 1)
  end

(* Indices into [acc]. *)
let sum_i = 0
let sq_i = 1
let lo_i = 2
let hi_i = 3

type t = { mutable buckets : int array; mutable n : int; acc : float array }

let create () =
  {
    buckets = [||];
    n = 0;
    acc = [| 0.0; 0.0; Float.nan; Float.nan |];
  }

let add t x =
  let x = if Float.is_finite x then x else 0.0 in
  let i = index_of x in
  if Array.length t.buckets = 0 then t.buckets <- Array.make nbuckets 0;
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  let a = t.acc in
  a.(sum_i) <- a.(sum_i) +. x;
  a.(sq_i) <- a.(sq_i) +. (x *. x);
  if t.n = 1 then begin
    a.(lo_i) <- x;
    a.(hi_i) <- x
  end
  else begin
    if x < a.(lo_i) then a.(lo_i) <- x;
    if x > a.(hi_i) then a.(hi_i) <- x
  end

let count t = t.n

let sum t = t.acc.(sum_i)

let mean t = if t.n = 0 then 0.0 else t.acc.(sum_i) /. Stdlib.float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else begin
    let n = Stdlib.float_of_int t.n in
    let m = t.acc.(sum_i) /. n in
    let var = (t.acc.(sq_i) /. n) -. (m *. m) in
    if var < 0.0 then 0.0 else sqrt var
  end

let min t = t.acc.(lo_i)

let max t = t.acc.(hi_i)

(* Nearest rank over the buckets: the rank's bucket upper bound,
   clamped into the exact [min, max] envelope; the extreme ranks are
   the exact extremes. *)
let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. Stdlib.float_of_int t.n)) in
    let lo = t.acc.(lo_i) and hi = t.acc.(hi_i) in
    if rank <= 1 then lo
    else if rank >= t.n then hi
    else begin
      let i = ref (index_of lo) and cum = ref 0 in
      while
        cum := !cum + t.buckets.(!i);
        !cum < rank
      do
        incr i
      done;
      Float.min hi (Float.max lo (upper_of !i))
    end
  end

let buckets t =
  let acc = ref [] in
  for i = Array.length t.buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (upper_of i, t.buckets.(i)) :: !acc
  done;
  !acc

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.n <- 0;
  t.acc.(sum_i) <- 0.0;
  t.acc.(sq_i) <- 0.0;
  t.acc.(lo_i) <- Float.nan;
  t.acc.(hi_i) <- Float.nan

module Counter = struct
  type c = { mutable v : int }

  let create () = { v = 0 }

  let incr ?(by = 1) c = c.v <- c.v + by

  let value c = c.v

  let rate_per_sec c ~elapsed_ns =
    if elapsed_ns <= 0.0 then 0.0
    else Stdlib.float_of_int c.v /. (elapsed_ns /. 1e9)

  let reset c = c.v <- 0
end
