(* Tests for the lab_sim discrete-event simulation substrate. *)

open Lab_sim
module Heap = Lab_legacy.Heap

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_wait_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.wait 10.0;
      log := ("a", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.wait 5.0;
      log := ("b", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "events in time order"
    [ ("b", 5.0); ("a", 10.0) ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () ->
        Engine.wait 7.0;
        log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal timestamps" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_spawn () =
  let e = Engine.create () in
  let finished = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.wait 3.0;
      Engine.spawn e (fun () ->
          Engine.wait 4.0;
          finished := Engine.now e));
  Engine.run e;
  check_float "child sees parent's clock" 7.0 !finished

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        Engine.wait 10.0;
        incr hits
      done);
  Engine.run ~until:55.0 e;
  Alcotest.(check int) "stopped at limit" 5 !hits;
  check_float "clock clamped to limit" 55.0 (Engine.now e)

let test_engine_negative_wait () =
  let e = Engine.create () in
  let ok = ref false in
  Engine.spawn e (fun () ->
      Engine.wait (-5.0);
      ok := Engine.now e = 0.0);
  Engine.run e;
  Alcotest.(check bool) "negative wait is zero" true !ok

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref None in
  let resumed_at = ref Float.nan in
  Engine.spawn e (fun () ->
      Engine.suspend (fun r -> resumer := Some r);
      resumed_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.wait 42.0;
      match !resumer with Some r -> r () | None -> Alcotest.fail "no resumer");
  Engine.run e;
  check_float "resumed at resumer's time" 42.0 !resumed_at

let test_engine_resumer_one_shot () =
  let e = Engine.create () in
  let wakeups = ref 0 in
  let resumer = ref None in
  Engine.spawn e (fun () ->
      Engine.suspend (fun r -> resumer := Some r);
      incr wakeups);
  Engine.spawn e (fun () ->
      Engine.wait 1.0;
      let r = Option.get !resumer in
      r ();
      r ();
      r ());
  Engine.run e;
  Alcotest.(check int) "woken exactly once" 1 !wakeups

let test_engine_until_pushback_order () =
  let e = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i d -> Engine.schedule e d (fun () -> log := (i, Engine.now e) :: !log))
    [ 10.0; 20.0; 20.0; 30.0 ];
  Engine.run ~until:15.0 e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "only the pre-horizon event ran" [ (0, 10.0) ] (List.rev !log);
  (* The event popped past the horizon was pushed back with its original
     (time, seq) key: resuming must preserve same-time FIFO order. *)
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "pushed-back event keeps its slot"
    [ (0, 10.0); (1, 20.0); (2, 20.0); (3, 30.0) ]
    (List.rev !log)

(* Regression for tick-boundary drift: boundaries are derived as
   base + k*period, so with period 0.1 every sample instant is exactly
   float k *. 0.1 — the old [next_tick +. period] accumulation drifted
   off these values within ten ticks. Exact comparison, epsilon 0. *)
let test_engine_tick_exact_boundaries () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.set_tick e ~period:0.1 (fun b -> ticks := b :: !ticks);
  Engine.schedule e 1.0 (fun () -> ());
  Engine.run e;
  let expected = List.init 10 (fun i -> Stdlib.float_of_int (i + 1) *. 0.1) in
  Alcotest.(check (list (float 0.0))) "boundaries exact" expected
    (List.rev !ticks)

let test_engine_timer () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec fn n =
    incr count;
    if n > 1 then Engine.timer e ~ns:50 fn (n - 1)
  in
  Engine.timer e ~ns:50 fn 10;
  Engine.run e;
  Alcotest.(check int) "ten firings" 10 !count;
  check_float "clock advanced 10 * 50ns" 500.0 (Engine.now e);
  Alcotest.(check int) "one event per firing" 10 (Engine.events_executed e)

(* The pooled timer path must not allocate in steady state: slots are
   recycled, times travel through staging cells, dispatch is tagged.
   Budget is <= 2 minor words/event (the occasional calendar-window
   re-anchor writes one boxed float). Native only — bytecode boxes
   everything. *)
let test_engine_timer_alloc_free () =
  let e = Engine.create () in
  let remaining = ref 0 in
  let rec fn arg =
    if !remaining > 0 then begin
      decr remaining;
      Engine.timer e ~ns:100 fn arg
    end
  in
  remaining := 1_000;
  Engine.timer e ~ns:100 fn 0;
  Engine.run e;
  remaining := 5_000;
  Engine.timer e ~ns:100 fn 0;
  let e0 = Engine.events_executed e in
  let w0 = Gc.minor_words () in
  Engine.run e;
  let w1 = Gc.minor_words () in
  let events = Engine.events_executed e - e0 in
  let per_event = (w1 -. w0) /. Stdlib.float_of_int events in
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "timer path allocates <= 2 words/event (got %.3f)"
           per_event)
        true
        (per_event <= 2.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* stop_all must blank the event pool, not just the queue indices, so
   dropped events release their closures to the GC. *)
let test_engine_stop_all_releases () =
  let e = Engine.create () in
  let freed = ref false in
  let mk () =
    let payload = ref 42 in
    Gc.finalise (fun _ -> freed := true) payload;
    fun () -> ignore !payload
  in
  Engine.schedule e 10.0 (mk ());
  Engine.stop_all e;
  Gc.full_major ();
  Alcotest.(check bool) "stopped engine retains no closures" true !freed

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create () in
    let rng = Rng.create 7 in
    let trace = Buffer.create 256 in
    for i = 1 to 20 do
      Engine.spawn e (fun () ->
          Engine.wait (Rng.float rng 100.0);
          Buffer.add_string trace (Printf.sprintf "%d@%.3f;" i (Engine.now e)))
    done;
    Engine.run e;
    (Buffer.contents trace, Engine.events_executed e)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair string int)) "identical replay" a b

(* [Engine.join] against the countdown idiom it replaced, kept here once
   as the reference. Each case forks n in [0, 16] bodies, each running a
   random sequence of waits (small delays, so completions tie and the
   same-time FIFO order exposes the spawn order). Both must complete
   the bodies in the same order, end at the same virtual time and
   execute the same number of events, and, whenever the reference
   returns at all (n >= 1), resume the caller at the same time. *)
let prop_join_matches_countdown =
  let countdown e n body =
    let ended = ref 0 in
    Engine.suspend (fun resume ->
        for i = 0 to n - 1 do
          Engine.spawn e (fun () ->
              body i;
              incr ended;
              if !ended = n then resume ())
        done)
  in
  let run fork waits =
    let e = Engine.create () in
    let order = ref [] and resumed = ref None in
    Engine.spawn e (fun () ->
        fork e (Array.length waits) (fun i ->
            List.iter (fun d -> Engine.wait (float_of_int d)) waits.(i);
            order := i :: !order);
        resumed := Some (Engine.now e));
    Engine.run e;
    (List.rev !order, !resumed, Engine.now e, Engine.events_executed e)
  in
  QCheck.Test.make ~name:"join matches the hand-rolled countdown" ~count:300
    QCheck.(
      array_of_size Gen.(int_range 0 16)
        (list_of_size Gen.(int_range 0 4) (int_range 0 20)))
    (fun waits ->
      let o1, r1, t1, e1 = run Engine.join waits in
      let o2, r2, t2, e2 = run countdown waits in
      o1 = o2 && t1 = t2 && e1 = e2 && (r2 = None || r1 = r2))

(* The countdown never resumes its caller for n = 0; join returns
   without suspending, inside the caller's own first event. *)
let test_engine_join_zero () =
  let e = Engine.create () in
  let returned = ref false in
  Engine.spawn e (fun () ->
      Engine.join e 0 (fun _ -> Alcotest.fail "no body runs for n = 0");
      returned := true);
  Alcotest.(check bool) "one event to run" true (Engine.step e);
  Alcotest.(check bool) "returned within it" true !returned;
  Alcotest.(check bool) "nothing left queued" false (Engine.active e)

(* [Engine.spin] against the per-tick loop it replaced
   ([Lab_legacy.Tick_spin], one [wait period] event per poll). A case
   runs 1-4 spinning processes and 1-3 pokers. A spinning process
   alternates work ([wait]) with idle stretches: it polls once, and if
   that finds nothing it spins for its budget, then parks until poked.
   A poker waits random delays and then gives a spinner one unit of
   work and pokes it. Everything is an integer number of ns, so events
   and ticks really tie, and processes often start idle at the same
   time. Both versions must log the same (label, now) at every process
   resumption, in order, and end at the same [now] with the same
   [active]. Driven by [run], [run ~until], [run ~until] then [stop_all]
   (then a late poker), and [step]; only the bounded drivers get
   spinners without a last tick. *)
type spin_case = {
  periods : int array;
  budgets : int option array;  (* None: no last tick *)
  works : int list array;
  pokes : (int * int) list list;  (* per poker: (delay, target) *)
  driver : int;  (* 0 run · 1 until · 2 until + stop_all · 3 step *)
  limit : int;
}

let run_spin_case ~reference c =
  let e = Engine.create () in
  let n = Array.length c.periods in
  let bounded = c.driver = 1 || c.driver = 2 in
  let budget i =
    match c.budgets.(i) with
    | Some b -> float_of_int b
    | None -> if bounded then Float.infinity else 50.0
  in
  let period i = float_of_int c.periods.(i) in
  let sps =
    Array.init n (fun i -> Engine.make_spinner ~period:(period i) ~budget:(budget i))
  in
  let cells = Array.init n (fun _ -> Engine.make_park_cell ()) in
  let pending = Array.make n 0 in
  let log = ref [] in
  let note fmt =
    Printf.ksprintf (fun l -> log := (l, Engine.now e) :: !log) fmt
  in
  let poll i () =
    pending.(i) > 0
    && begin
         pending.(i) <- pending.(i) - 1;
         true
       end
  in
  let idle i =
    if reference then
      Lab_legacy.Tick_spin.spin ~period:(period i) ~budget:(budget i) (poll i)
    else begin
      let sp = sps.(i) in
      Engine.spin_begin sp;
      let rec go () = Engine.spin sp && (poll i () || go ()) in
      go ()
    end
  in
  let poke j =
    pending.(j) <- pending.(j) + 1;
    if not reference then Engine.poke sps.(j);
    Engine.unpark cells.(j)
  in
  Array.iteri
    (fun i works ->
      Engine.spawn e (fun () ->
          List.iter
            (fun w ->
              Engine.wait (float_of_int w);
              note "s%d idle" i;
              if poll i () then note "s%d busy" i
              else if idle i then note "s%d polled" i
              else begin
                note "s%d park" i;
                Engine.park cells.(i);
                note "s%d woke" i
              end)
            works))
    c.works;
  let poker k pokes () =
    List.iter
      (fun (d, j) ->
        Engine.wait (float_of_int d);
        note "p%d>s%d" k (j mod n);
        poke (j mod n))
      pokes
  in
  List.iteri (fun k p -> Engine.spawn e (poker k p)) c.pokes;
  let limit = float_of_int c.limit in
  (match c.driver with
  | 0 -> Engine.run e
  | 1 -> Engine.run ~until:limit e
  | 2 ->
      Engine.run ~until:limit e;
      Engine.stop_all e;
      (* Dropped spinners stay dropped: a late poke resumes no one. *)
      Engine.spawn e (poker 9 [ (3, 0); (0, n - 1) ]);
      Engine.run e
  | _ ->
      while Engine.step e do
        ()
      done);
  (List.rev !log, Engine.now e, Engine.active e)

let spin_case_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    array_size (return n) (int_range 1 12) >>= fun periods ->
    array_size (return n)
      (frequency
         [ (6, map Option.some (int_range 0 90)); (1, return (Some (-3))); (1, return None) ])
    >>= fun budgets ->
    array_size (return n) (list_size (int_range 1 4) (oneofl [ 0; 0; 1; 5; 12; 30 ]))
    >>= fun works ->
    list_size (int_range 1 3)
      (list_size (int_range 1 6) (pair (int_range 0 60) (int_range 0 3)))
    >>= fun pokes ->
    int_range 0 3 >>= fun driver ->
    int_range 0 250 >>= fun limit ->
    return { periods; budgets; works; pokes; driver; limit })

let prop_spin_matches_per_tick_loop =
  QCheck.Test.make ~name:"spin matches the per-tick loop" ~count:1000
    (QCheck.make spin_case_gen) (fun c ->
      run_spin_case ~reference:false c = run_spin_case ~reference:true c)

(* A 100 ms budget is 1.25 M ticks of 80 ns: passing them allocates
   nothing per tick, and the process resumes at exactly the tick the
   per-tick loop would end on (its float accumulation). *)
let test_engine_spin_long_budget () =
  let e = Engine.create () in
  let sp = Engine.make_spinner ~period:80.0 ~budget:1e8 in
  let resumed = ref Float.nan and polled = ref false in
  Engine.spawn e (fun () ->
      Engine.wait 3.5;
      Engine.spin_begin sp;
      let rec go () = Engine.spin sp && (polled := true; go ()) in
      ignore (go ());
      resumed := Engine.now e);
  let w0 = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. w0 in
  let expect = ref 3.5 in
  while !expect < 3.5 +. 1e8 do
    expect := !expect +. 80.0
  done;
  check_float "ends on the per-tick loop's last tick" !expect !resumed;
  Alcotest.(check bool) "only the last tick resumed it" true !polled;
  Alcotest.(check int) "three real events" 3 (Engine.events_executed e);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "no allocation per tick (%.0f words)" words)
        true (words < 1000.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* With nothing queued, [step] passes one tick per call, as the one
   event it stands for; a poke makes the next tick the resume. *)
let test_engine_spin_step () =
  let e = Engine.create () in
  let sp = Engine.make_spinner ~period:10.0 ~budget:Float.infinity in
  let resumed = ref Float.nan in
  Engine.spawn e (fun () ->
      Engine.spin_begin sp;
      ignore (Engine.spin sp);
      resumed := Engine.now e);
  Alcotest.(check bool) "start" true (Engine.step e);
  for k = 1 to 3 do
    Alcotest.(check bool) "a tick" true (Engine.step e);
    check_float "clock on the tick" (10.0 *. float_of_int k) (Engine.now e)
  done;
  Alcotest.(check bool) "still spinning" true (Engine.active e);
  Engine.poke sp;
  Alcotest.(check bool) "the resume" true (Engine.step e);
  check_float "resumed on the next tick" 40.0 !resumed;
  Alcotest.(check bool) "drained" false (Engine.active e);
  Alcotest.(check int) "two real events" 2 (Engine.events_executed e)

(* A zero or negative budget returns at once: no tick, no event. *)
let test_engine_spin_zero_budget () =
  List.iter
    (fun budget ->
      let e = Engine.create () in
      let sp = Engine.make_spinner ~period:80.0 ~budget in
      let r = ref true in
      Engine.spawn e (fun () ->
          Engine.spin_begin sp;
          r := Engine.spin sp);
      Engine.run e;
      Alcotest.(check bool) "spin returns false" false !r;
      check_float "clock did not move" 0.0 (Engine.now e);
      Alcotest.(check int) "one event" 1 (Engine.events_executed e))
    [ 0.0; -1.0 ]

(* ------------------------------------------------------------------ *)
(* Evq                                                                 *)
(* ------------------------------------------------------------------ *)

(* The calendar queue must pop the exact same (time, seq, slot)
   sequence as a binary heap ordered on (time, seq) — the engine's
   byte-identical-output guarantee rests on this. The generator drives
   random push/pop interleavings with duplicate times (same-time FIFO),
   a tiny 8x16ns window so times up to ~1000 constantly overflow into
   the far-future heap and force window advances, and pushes landing at
   or before the drain cursor (schedule-at-now). *)
let prop_evq_matches_heap =
  let key_cmp (t1, s1) (t2, s2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare s1 s2
  in
  QCheck.Test.make ~name:"evq pops the same (time,seq) sequence as a heap"
    ~count:300
    QCheck.(list (pair (int_range 0 4) small_int))
    (fun ops ->
      let q = Evq.create ~nbuckets:8 ~width:16.0 () in
      let h = Heap.create ~cmp:key_cmp () in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () =
        let slot = Evq.pop q in
        match Heap.pop h with
        | None -> ok := !ok && slot < 0
        | Some ((time, s), hslot) ->
            ok :=
              !ok && slot = hslot
              && q.Evq.key_out.(0) = time
              && q.Evq.out_seq = s
      in
      List.iter
        (fun (sel, m) ->
          if sel = 0 then pop_both ()
          else begin
            incr seq;
            let time = Stdlib.float_of_int (m * 97 mod 1000) in
            q.Evq.key_in.(0) <- time;
            Evq.push q ~seq:!seq ~slot:!seq;
            Heap.push h (time, !seq) !seq
          end)
        ops;
      while not (Evq.is_empty q) || not (Heap.is_empty h) do
        pop_both ()
      done;
      !ok && Evq.length q = 0)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (fun k -> Heap.push h k (string_of_int k)) [ 5; 3; 9; 1; 7; 1 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 5; 7; 9 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any input sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.sort Int.compare xs)

(* Leak regression: a drained or cleared heap must not pin popped
   values — pop blanks the vacated tail slot and an emptied/cleared
   heap drops its backing arrays. *)
let test_heap_releases_entries () =
  let h = Heap.create ~cmp:Int.compare () in
  let freed = ref 0 in
  let add k =
    let v = ref k in
    Gc.finalise (fun _ -> incr freed) v;
    Heap.push h k v
  in
  List.iter add [ 3; 1; 2 ];
  for _ = 1 to 3 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Alcotest.(check int) "drained heap retains nothing" 3 !freed;
  List.iter add [ 5; 4 ];
  Heap.clear h;
  Gc.full_major ();
  Alcotest.(check int) "cleared heap retains nothing" 5 !freed

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks push/pop" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let n = List.length xs in
      let ok = ref (Heap.length h = n) in
      for i = 1 to n do
        ignore (Heap.pop h);
        ok := !ok && Heap.length h = n - i
      done;
      !ok && Heap.pop h = None)

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 4 do
        Mailbox.put mb i
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 4 do
        got := Mailbox.get mb :: !got
      done);
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4 ] (List.rev !got)

let test_mailbox_blocking_get () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let received_at = ref Float.nan in
  Engine.spawn e (fun () ->
      ignore (Mailbox.get mb);
      received_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.wait 30.0;
      Mailbox.put mb 1);
  Engine.run e;
  check_float "getter blocked until put" 30.0 !received_at

let test_mailbox_capacity_blocks_put () =
  let e = Engine.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let done_at = ref Float.nan in
  Engine.spawn e (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3;
      (* must block until a get *)
      done_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.wait 50.0;
      ignore (Mailbox.get mb));
  Engine.run e;
  check_float "third put blocked" 50.0 !done_at

let test_mailbox_try_ops () =
  let e = Engine.create () in
  let mb = Mailbox.create ~capacity:1 () in
  Engine.spawn e (fun () ->
      Alcotest.(check bool) "try_put into empty" true (Mailbox.try_put mb 1);
      Alcotest.(check bool) "try_put into full" false (Mailbox.try_put mb 2);
      Alcotest.(check (option int)) "try_get" (Some 1) (Mailbox.try_get mb);
      Alcotest.(check (option int)) "try_get empty" None (Mailbox.try_get mb));
  Engine.run e

let prop_mailbox_preserves_sequence =
  QCheck.Test.make ~name:"mailbox delivers every message in order" ~count:100
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, cap) ->
      let e = Engine.create () in
      let mb = Mailbox.create ~capacity:cap () in
      let out = ref [] in
      Engine.spawn e (fun () -> List.iter (fun x -> Mailbox.put mb x) xs);
      Engine.spawn e (fun () ->
          for _ = 1 to List.length xs do
            out := Mailbox.get mb :: !out
          done);
      Engine.run e;
      List.rev !out = xs)

(* ------------------------------------------------------------------ *)
(* Semaphore                                                           *)
(* ------------------------------------------------------------------ *)

let test_semaphore_mutex () =
  let e = Engine.create () in
  let s = Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        Semaphore.acquire s;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.wait 10.0;
        decr inside;
        Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  check_float "serialized duration" 50.0 (Engine.now e)

let test_semaphore_counting () =
  let e = Engine.create () in
  let s = Semaphore.create 3 in
  let peak = ref 0 and inside = ref 0 in
  for _ = 1 to 9 do
    Engine.spawn e (fun () ->
        Semaphore.acquire s;
        incr inside;
        if !inside > !peak then peak := !inside;
        Engine.wait 10.0;
        decr inside;
        Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "three at a time" 3 !peak;
  check_float "three batches" 30.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cpu_dedicated_core_no_switches () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:2 () in
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Cpu.compute cpu ~thread:0 100.0
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Cpu.compute cpu ~thread:1 100.0
      done);
  Engine.run e;
  Alcotest.(check int) "no switches on dedicated cores" 0
    (Cpu.context_switches cpu)

let test_cpu_shared_core_switches () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:1 () in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Cpu.compute cpu ~thread:0 100.0
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Cpu.compute cpu ~thread:1 100.0
      done);
  Engine.run e;
  Alcotest.(check bool) "interleaving causes switches" true
    (Cpu.context_switches cpu >= 4)

let test_cpu_utilization () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:4 () in
  Engine.spawn e (fun () -> Cpu.compute cpu ~thread:0 1000.0);
  Engine.run e;
  check_float "one core busy 1000 of 4*1000" 0.25
    (Cpu.utilization cpu ~elapsed:1000.0)

let test_cpu_pinning () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:4 () in
  Cpu.pin cpu ~thread:9 ~core:2;
  Engine.spawn e (fun () -> Cpu.compute cpu ~thread:9 500.0);
  Engine.run e;
  check_float "burst landed on pinned core" 500.0 (Cpu.busy_ns_of_core cpu 2)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (Stdlib.float_of_int i)
  done;
  (* 50 and 99 sit in 2- and 4-wide buckets: their upper bounds. *)
  check_float "p50" 51.0 (Stats.percentile s 50.0);
  check_float "p99" 99.0 (Stats.percentile s 99.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0);
  check_float "p0" 1.0 (Stats.percentile s 0.0);
  (* Below 32 every integer has its own bucket. *)
  check_float "p20" 20.0 (Stats.percentile s 20.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "empty mean" 0.0 (Stats.mean s);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Stats.percentile s 50.0))

(* Queries are pure reads; add and clear are observed by the next
   query. *)
let test_stats_percentile_add_clear () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 9.0; 1.0; 8.0; 2.0; 7.0; 3.0 ];
  let first = Stats.percentile s 50.0 in
  check_float "p50 stable across repeated queries" first
    (Stats.percentile s 50.0);
  check_float "mean unperturbed" (30.0 /. 6.0) (Stats.mean s);
  check_float "min unperturbed" 1.0 (Stats.min s);
  Stats.add s 0.5;
  check_float "p0 sees a later add" 0.5 (Stats.percentile s 0.0);
  Stats.clear s;
  Alcotest.(check bool) "cleared percentile is nan" true
    (Float.is_nan (Stats.percentile s 50.0));
  Stats.add s 5.0;
  check_float "reusable after clear" 5.0 (Stats.percentile s 50.0)

(* Memory stays flat: the bucket array is allocated once. *)
let test_stats_flat_memory () =
  let s = Stats.create () in
  for i = 1 to 1_000 do
    Stats.add s (Stdlib.float_of_int (i * 7919))
  done;
  let words_1k = Obj.reachable_words (Obj.repr s) in
  for i = 1 to 99_000 do
    Stats.add s (Stdlib.float_of_int (i * 7919))
  done;
  Alcotest.(check int) "same words after 100k adds" words_1k
    (Obj.reachable_words (Obj.repr s))

(* An idle histogram owns no bucket array: a registered but silent QoS
   tenant stays a few words. *)
let test_stats_idle_is_small () =
  let s = Stats.create () in
  let idle = Obj.reachable_words (Obj.repr s) in
  Alcotest.(check bool) (Printf.sprintf "idle histogram %d words < 64" idle) true
    (idle < 64);
  Stats.add s 5.0;
  Alcotest.(check (float 0.0)) "p50 after first add" 5.0 (Stats.percentile s 50.0);
  Stats.clear s;
  Alcotest.(check int) "buckets empty after clear" 0 (List.length (Stats.buckets s))

(* The HDR contract against the exact nearest-rank value x: the
   estimate is within x/16 + 1 of it and inside [min, max]; p0 and p100
   are exact. *)
let prop_stats_percentile_hdr_bound =
  QCheck.Test.make ~name:"percentile within HDR error bound"
    ~count:500
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (oneof [ float_range 0. 100.; float_range 0. 1e5; float_range 0. 1e12 ]))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length sorted in
      let exact p =
        let rank = int_of_float (ceil (p /. 100.0 *. Stdlib.float_of_int n)) in
        sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
      in
      Stats.percentile s 0.0 = sorted.(0)
      && Stats.percentile s 100.0 = sorted.(n - 1)
      && List.for_all
           (fun p ->
             let est = Stats.percentile s p in
             Float.abs (est -. exact p) <= (exact p /. 16.0) +. 1.0
             && est >= Stats.min s && est <= Stats.max s)
           [ 1.0; 25.0; 50.0; 90.0; 99.0; 99.9 ])

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-6 && Stats.mean s <= Stats.max s +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        ok := !ok && v >= 0 && v < bound
      done;
      !ok)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays within bound" ~count:200
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.float r 10.0 in
        ok := !ok && v >= 0.0 && v < 10.0
      done;
      !ok)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let s = Stats.create () in
  for _ = 1 to 20000 do
    Stats.add s (Rng.exponential r 100.0)
  done;
  Alcotest.(check bool) "empirical mean near 100" true
    (Float.abs (Stats.mean s -. 100.0) < 5.0)

let test_rng_zipf_skew () =
  let r = Rng.create 5 in
  let hits = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Rng.zipf r ~n:10 ~theta:1.0 in
    hits.(k) <- hits.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (hits.(0) > hits.(9))

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "lab_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "wait order" `Quick test_engine_wait_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested spawn" `Quick test_engine_nested_spawn;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "negative wait" `Quick test_engine_negative_wait;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "resumer one-shot" `Quick test_engine_resumer_one_shot;
          Alcotest.test_case "until pushback order" `Quick
            test_engine_until_pushback_order;
          Alcotest.test_case "tick exact boundaries" `Quick
            test_engine_tick_exact_boundaries;
          Alcotest.test_case "timer" `Quick test_engine_timer;
          Alcotest.test_case "timer alloc-free" `Quick
            test_engine_timer_alloc_free;
          Alcotest.test_case "stop_all releases" `Quick
            test_engine_stop_all_releases;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "join zero" `Quick test_engine_join_zero;
          QCheck_alcotest.to_alcotest prop_join_matches_countdown;
          QCheck_alcotest.to_alcotest prop_spin_matches_per_tick_loop;
          Alcotest.test_case "spin long budget" `Quick
            test_engine_spin_long_budget;
          Alcotest.test_case "spin zero budget" `Quick
            test_engine_spin_zero_budget;
          Alcotest.test_case "spin step" `Quick test_engine_spin_step;
        ] );
      ("evq", [ QCheck_alcotest.to_alcotest prop_evq_matches_heap ]);
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "releases entries" `Quick test_heap_releases_entries
        :: List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts; prop_heap_length ]
      );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking get" `Quick test_mailbox_blocking_get;
          Alcotest.test_case "capacity blocks put" `Quick
            test_mailbox_capacity_blocks_put;
          Alcotest.test_case "try ops" `Quick test_mailbox_try_ops;
          QCheck_alcotest.to_alcotest prop_mailbox_preserves_sequence;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutex" `Quick test_semaphore_mutex;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "dedicated no switches" `Quick
            test_cpu_dedicated_core_no_switches;
          Alcotest.test_case "shared core switches" `Quick
            test_cpu_shared_core_switches;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "pinning" `Quick test_cpu_pinning;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile add/clear" `Quick
            test_stats_percentile_add_clear;
          Alcotest.test_case "flat memory" `Quick test_stats_flat_memory;
          Alcotest.test_case "idle histogram is small" `Quick test_stats_idle_is_small;
          QCheck_alcotest.to_alcotest prop_stats_percentile_hdr_bound;
          QCheck_alcotest.to_alcotest prop_stats_mean_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_rng_float_in_bounds;
        ] );
    ];
  ignore qsuite
