(* Tail-latency exemplar store.

   The span tracer samples 1-in-N requests prospectively, so the
   p99.9 outliers that actually burn SLO budget are almost never in
   the sample. An [Exemplar.t] fixes that retroactively: every
   request's stage anatomy is captured into a pooled fixed-capacity
   buffer (see {!Trace.flow}), and at completion the buffer is either
   recycled (not among the K slowest so far — the common case, no
   allocation, no copy) or promoted into this bounded top-K store with
   its full stage breakdown.

   Admission is exact top-K: the store remembers its minimum slot, and
   once full admits an offer only when it is strictly slower than that
   minimum, which it then replaces. Only a replacement rescans the K
   slots for the new minimum, so a rejected offer costs one comparison.
   Equal latencies keep the earlier offer — a new offer never beats an
   equal incumbent, and among tied minimums the latest-offered one is
   evicted — so the store holds exactly the first K of the offers
   stably sorted by descending latency, deterministic for a
   deterministic run. Promotion is a copy into preallocated entry
   slots, so the steady state allocates nothing. *)

(* Stage slots per captured request. The deepest stock stack
   (inject_lag/submit/queue_wait/dispatch/module_stack + one span per
   LabMod + complete/reap + a few instants) fits well inside 24. *)
let stage_capacity = 24

type entry = {
  mutable e_seq : int; (* offer number, for tie-breaking *)
  mutable e_id : int;
  mutable e_t0 : float;
  mutable e_latency : float;
  mutable e_n : int; (* captured stage records *)
  mutable e_dropped : int; (* records past capacity *)
  e_names : string array;
  e_cats : string array;
  e_t0s : float array;
  e_t1s : float array;
}

type t = {
  k : int;
  entries : entry array;
  mutable n : int; (* live entries, <= k *)
  mutable min_i : int; (* slot to evict once full *)
  mutable offered : int;
  mutable promoted : int;
  mutable recycled : int;
  mutable evicted : int;
}

let fresh_entry () =
  {
    e_seq = 0;
    e_id = -1;
    e_t0 = 0.0;
    e_latency = 0.0;
    e_n = 0;
    e_dropped = 0;
    e_names = Array.make stage_capacity "";
    e_cats = Array.make stage_capacity "";
    e_t0s = Array.make stage_capacity 0.0;
    e_t1s = Array.make stage_capacity 0.0;
  }

let create ~k () =
  let k = if k < 0 then 0 else k in
  {
    k;
    entries = Array.init k (fun _ -> fresh_entry ());
    n = 0;
    min_i = 0;
    offered = 0;
    promoted = 0;
    recycled = 0;
    evicted = 0;
  }

let k t = t.k
let stored t = t.n
let offered t = t.offered
let promoted t = t.promoted
let recycled t = t.recycled
let evicted t = t.evicted

let fill e ~seq ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s =
  e.e_seq <- seq;
  e.e_id <- id;
  e.e_t0 <- t0;
  e.e_latency <- latency;
  e.e_n <- n;
  e.e_dropped <- dropped;
  Array.blit names 0 e.e_names 0 n;
  Array.blit cats 0 e.e_cats 0 n;
  Array.blit t0s 0 e.e_t0s 0 n;
  Array.blit t1s 0 e.e_t1s 0 n

(* The eviction victim: the smallest latency, and among equal ones the
   latest offer. *)
let rescan t =
  let es = t.entries in
  let mi = ref 0 in
  for i = 1 to t.k - 1 do
    let e = es.(i) and m = es.(!mi) in
    if e.e_latency < m.e_latency
       || (e.e_latency = m.e_latency && e.e_seq > m.e_seq)
    then mi := i
  done;
  t.min_i <- !mi

(* Offer one completed request. Arrays belong to the caller's pooled
   flow buffer and are only read during the call; on promotion the
   first [n] records are copied into a preallocated slot. Returns
   [true] iff promoted. *)
let offer t ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s =
  t.offered <- t.offered + 1;
  let seq = t.offered and n = Stdlib.min n stage_capacity in
  if t.n < t.k then begin
    fill t.entries.(t.n) ~seq ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s
      ~t1s;
    t.n <- t.n + 1;
    if t.n = t.k then rescan t;
    t.promoted <- t.promoted + 1;
    true
  end
  else if t.k > 0 && latency > t.entries.(t.min_i).e_latency then begin
    fill t.entries.(t.min_i) ~seq ~id ~t0 ~latency ~n ~dropped ~names ~cats
      ~t0s ~t1s;
    rescan t;
    t.evicted <- t.evicted + 1;
    t.promoted <- t.promoted + 1;
    true
  end
  else begin
    t.recycled <- t.recycled + 1;
    false
  end

(* ---- read-out ----------------------------------------------------- *)

type stage = { s_name : string; s_cat : string; s_t0 : float; s_t1 : float }

type view = {
  v_id : int;
  v_t0 : float;
  v_latency : float;
  v_dropped : int;
  v_stages : stage list;
}

(* Slowest first; equal latencies order by request id so two same-seed
   runs render identically. *)
let ranked t =
  let live = Array.sub t.entries 0 t.n in
  Array.sort
    (fun a b ->
      match Stdlib.compare b.e_latency a.e_latency with
      | 0 -> Stdlib.compare a.e_id b.e_id
      | c -> c)
    live;
  live

let dump t =
  Array.to_list (ranked t)
  |> List.map (fun e ->
         let stages = ref [] in
         for i = e.e_n - 1 downto 0 do
           stages :=
             {
               s_name = e.e_names.(i);
               s_cat = e.e_cats.(i);
               s_t0 = e.e_t0s.(i);
               s_t1 = e.e_t1s.(i);
             }
             :: !stages
         done;
         {
           v_id = e.e_id;
           v_t0 = e.e_t0;
           v_latency = e.e_latency;
           v_dropped = e.e_dropped;
           v_stages = !stages;
         })

(* Byte-stable: fixed float format, deterministic order. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"k":%d,"stored":%d,"offered":%d,"promoted":%d,"recycled":%d,"evicted":%d,"exemplars":[|}
       t.k t.n t.offered t.promoted t.recycled t.evicted);
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"id\":%d,\"t0_ns\":%s,\"latency_ns\":%s,\"stages_dropped\":%d,\"stages\":["
           e.e_id (Json.ns e.e_t0) (Json.ns e.e_latency) e.e_dropped);
      for j = 0 to e.e_n - 1 do
        if j > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf {|{"name":%s,"cat":%s,"t0_ns":%s,"dur_ns":%s}|}
             (Json.string e.e_names.(j))
             (Json.string e.e_cats.(j))
             (Json.ns e.e_t0s.(j))
             (Json.ns (e.e_t1s.(j) -. e.e_t0s.(j))))
      done;
      Buffer.add_string b "]}")
    (ranked t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
