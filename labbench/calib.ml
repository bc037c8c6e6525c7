(* Machine-speed calibration.

   The host shares its cores with other tenants. Their load changes the
   CPU time of identical work by up to 2x, in bursts and in drifts that
   last minutes, because a descheduled vCPU's time is charged to the
   process that was running. So the benchmark times a fixed reference
   kernel in short slices interleaved with the timed phase, and divides
   the phase's CPU time by the mean slice's: both see the same machine
   state, so drifts cancel. Host times are then reported in reference
   seconds, where one reference second is [nominal_s / slice time] CPU
   seconds, [nominal_s] being the slice's time on the development
   machine (Intel Xeon, KVM guest, 2 vCPUs) when quiet.

   The kernel uses the standard library only, so no change to the
   program's code can change its cost; a change to the process's GC
   settings would, and shows in [host.ref_scale]. It is an event loop
   over a binary heap of float keys, with scattered writes into a
   history table, random accesses to a 32 MiB table and short-lived
   allocations per event: the same mix of branches, cache and memory
   misses and minor GC as the simulator, which is what makes it slow
   down with the simulator. Its arrays are allocated once, before any
   round, and nothing it allocates outlives a minor collection, so a
   slice leaves no garbage in the major heap to slow the program down. *)

let slots = 65536

let events = 10_000

let nominal_s = 4.5e-3

let depth = 4

let far_bits = 22

type t = {
  far : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  keys : float array;
  ids : int array;
  hist : float array;  (** [depth] latest keys per id, a ring each *)
  fill : int array;
  mutable size : int;
}

let create () =
  let far = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (1 lsl far_bits) in
  Bigarray.Array1.fill far 0.0;
  {
    far;
    keys = Array.make slots 0.0;
    ids = Array.make slots 0;
    hist = Array.make (slots * depth) 0.0;
    fill = Array.make slots 0;
    size = 0;
  }

let swap t i j =
  let k = t.keys.(i) and d = t.ids.(i) in
  t.keys.(i) <- t.keys.(j);
  t.ids.(i) <- t.ids.(j);
  t.keys.(j) <- k;
  t.ids.(j) <- d

let less t i j = Float.compare t.keys.(i) t.keys.(j) < 0

let push t k d =
  let i = ref t.size in
  t.keys.(!i) <- k;
  t.ids.(!i) <- d;
  t.size <- t.size + 1;
  while !i > 0 && less t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  let k = t.keys.(0) and d = t.ids.(0) in
  t.size <- t.size - 1;
  swap t 0 t.size;
  let i = ref 0 and stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    let m = ref !i in
    if l < t.size && less t l !m then m := l;
    if l + 1 < t.size && less t (l + 1) !m then m := l + 1;
    if !m = !i then stop := true
    else begin
      swap t !i !m;
      i := !m
    end
  done;
  (k, d)

let run t =
  t.size <- 0;
  Array.fill t.fill 0 slots 0;
  for i = 0 to slots - 1 do
    push t (float_of_int i) i
  done;
  let rng = Random.State.make [| 7 |] in
  let acc = ref 0.0 in
  for _ = 1 to events do
    let k, d = pop t in
    let j = t.fill.(d) in
    t.hist.((d * depth) + j) <- k;
    t.fill.(d) <- (j + 1) mod depth;
    acc := !acc +. t.hist.((d * depth) + ((j + 1) mod depth));
    let mask = (1 lsl far_bits) - 1 in
    let a = ((d * 2654435761) + (j * 40503)) land mask in
    let b = ((a * 69069) + 1) land mask in
    t.far.{a} <- t.far.{b} +. k;
    push t (k +. Random.State.float rng 1000.0) d
  done;
  !acc

(* CPU seconds of one slice. *)
let slice t =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (run t));
  Sys.time () -. t0
