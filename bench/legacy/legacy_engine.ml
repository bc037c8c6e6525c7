(* Replica of the pre-rewrite DES hot loop, kept so `bench sim` can
   measure the rewrite's speedup against the engine it replaced rather
   than against a guess. Faithful to the old Lab_sim.Engine per-event
   costs: a boxed {time; seq} key record and a [unit -> unit] closure
   allocated per event, a generic binary heap comparing keys through an
   indirect [cmp] closure, and a [Fun.protect] + engine-option
   save/restore around every dispatch. Only the scheduling subset the
   synthetic workload needs is replicated — effects/processes ran on
   top of exactly this path. *)

type key = { time : float; seq : int }

type t = {
  mutable now : float;
  events : (key, unit -> unit) Heap.t;
  mutable seq : int;
  mutable executed : int;
}

let compare_key a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let current : t option ref = ref None

let create () =
  { now = 0.0; events = Heap.create ~cmp:compare_key (); seq = 0; executed = 0 }

let now t = t.now

let schedule t time thunk =
  t.seq <- t.seq + 1;
  Heap.push t.events { time; seq = t.seq } thunk

let exec_event t k thunk =
  t.now <- k.time;
  t.executed <- t.executed + 1;
  let saved = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := saved) thunk

let run t =
  let rec drain () =
    match Heap.pop t.events with
    | None -> ()
    | Some (k, thunk) ->
        exec_event t k thunk;
        drain ()
  in
  drain ()

let events_executed t = t.executed
