(* Discrete-event engine, zero-allocation hot path.

   Events live in an int-indexed pool: parallel arrays of tag / payload
   / int-arg, with the free list threaded through [args]. Scheduling
   reuses a slot and pushes (time, seq, slot) into the monomorphic
   {!Evq} calendar queue; dispatch switches on the tag instead of
   calling a megamorphic [unit -> unit] closure:

     tag 1  run a [unit -> unit] thunk (generic [schedule])
     tag 2  resume an effect continuation ([wait] / resumers)
     tag 3  call a preallocated [int -> unit] with the slot's int arg
            ({!timer} — the fully closure-free path)
     tag 4  start a process under the engine's effect handler ([spawn])

   Slots are freed (tag 0) before dispatch so the callback can
   reschedule straight into the slot it just vacated.

   Spinners (a process polling every [period] until poked or out of
   budget) keep their ticks out of the queue. Each spinner holds its
   next tick's (time, seq) key; before a popped event runs, every tick
   with a smaller key is passed in key order, and passing a tick takes
   the next sequence number for the tick after it, exactly as the
   [wait] the tick stands for would have. So every queued event keeps
   the key it would have with one event per tick. A tick becomes a real
   resume event, with its own key, when it is poked or is the first at
   or past the spinner's deadline.

   Floats are kept out of function signatures on the hot path — an
   OCaml float crossing a non-inlined call is boxed — by staging times
   through [Evq.key_in]/[key_out] and keeping the engine's own hot
   floats (now, next_tick, tick period/base, the pending [wait] delay)
   in the flat [fl] array. The effect handler, its [Some callback]
   returns, and [Some t] for [current_engine] are all preallocated at
   {!create} time, so steady-state [timer] traffic allocates nothing
   and [wait] traffic allocates only the runtime's continuation. *)

type resumer = unit -> unit

type t = {
  evq : Evq.t;
  mutable seq : int;
  mutable executed : int;
  (* fl.(0) now · fl.(1) next_tick · fl.(2) tick_period ·
     fl.(3) tick_base · fl.(4) delay staged by [wait] for the handler ·
     fl.(5) earliest spinner tick · fl.(6) bound staged for [pass_ticks] *)
  fl : float array;
  mutable tick_fn : (float -> unit) option;
  mutable tick_k : int;  (* next boundary is base +. float k *. period *)
  (* event pool *)
  mutable tags : int array;
  mutable pays : Obj.t array;
  mutable args : int array;  (* tag 3 argument, or free-list next *)
  mutable free_head : int;  (* -1 = pool exhausted *)
  (* preallocated once per engine; mutable only for create-time tying *)
  mutable eff_handler : (unit, unit) Effect.Deep.handler;
  mutable wait_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable susp_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable park_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable pending_register : resumer -> unit;
  mutable park_into : park_cell;
  mutable spin_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable spin_into : spinner;
  (* Spinner tables, indexed by a spinner's [sid]: next tick's time and
     seq, deadline, period. Flat arrays, so passing a tick reads and
     writes unboxed cells only. *)
  mutable sreg : spinner array;
  mutable kt : float array;
  mutable ks : int array;
  mutable kd : float array;
  mutable kp : float array;
  (* The spinners between ticks, as a ring of ids sorted by next-tick
     key: [ord.((ohead + i) land (length - 1))] for i < nspin. A passed
     tick usually moves its spinner from the front to the back. *)
  mutable ord : int array;
  mutable ohead : int;
  mutable nspin : int;
  mutable self_some : t option;
}

(* A reusable parking spot: the suspended continuation is stored
   directly in the cell, so park/unpark needs no per-use closure, ref
   cell, or queue node — only the continuation the runtime itself
   allocates at the perform. [peng] caches the owning engine (written
   once per cell in steady state) so {!unpark} works from outside any
   process, like a {!resumer} does. *)
and park_cell = { mutable pk : Obj.t; mutable peng : t option }

(* The owner's continuation waits in [scell] while its ticks pass. *)
and spinner = {
  scell : park_cell;
  sf : float array;  (* 0 period · 1 budget *)
  mutable sid : int;  (* index in [scell.peng]'s tables; -1 before use *)
  mutable spinning : bool;  (* between ticks, in the engine's ring *)
  mutable spoked : bool;  (* poked while its owner ran between ticks *)
}

exception Stopped

(* Payload-free: the per-perform data rides in engine fields ([fl].(4)
   for the wait delay, [pending_register] for suspend) — a payload
   would allocate a tuple and box the float on every perform. The
   performing process always runs under its own engine's handler, so
   no owner field is needed to route the effect. *)
type _ Effect.t += Wait : unit Effect.t
type _ Effect.t += Suspend : unit Effect.t
type _ Effect.t += Park : unit Effect.t
type _ Effect.t += Spin : unit Effect.t

(* The engine a process belongs to, used so [wait]/[suspend] need no
   explicit engine argument. Set for the dynamic extent of [run]/[step]
   (not per event — saving/restoring per event cost a [Fun.protect]
   closure on every dispatch). *)
let current_engine : t option ref = ref None

let dummy_pay : Obj.t = Obj.repr ()

let dummy_cell : park_cell = { pk = dummy_pay; peng = None }

let make_park_cell () = { pk = dummy_pay; peng = None }

let make_spinner ~period ~budget =
  {
    scell = make_park_cell ();
    sf = [| Stdlib.max 0.0 period; budget |];
    sid = -1;
    spinning = false;
    spoked = false;
  }

let dummy_spinner = make_spinner ~period:0.0 ~budget:0.0

let dummy_handler : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = raise;
    effc = (fun (type a) (_ : a Effect.t) -> None);
  }

(* ---------------- event pool ---------------- *)

let[@inline never] pool_grow t =
  let old = Array.length t.tags in
  let n = Stdlib.max 64 (2 * old) in
  let tags = Array.make n 0 in
  let pays = Array.make n dummy_pay in
  let args = Array.make n 0 in
  Array.blit t.tags 0 tags 0 old;
  Array.blit t.pays 0 pays 0 old;
  Array.blit t.args 0 args 0 old;
  for i = old to n - 1 do
    args.(i) <- i + 1
  done;
  args.(n - 1) <- -1;
  t.tags <- tags;
  t.pays <- pays;
  t.args <- args;
  t.free_head <- old

(* Grow only ever runs with the free list empty, so this returns a
   valid slot unconditionally. *)
let[@inline] alloc_slot t =
  if t.free_head < 0 then pool_grow t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.args slot;
  slot

(* ---------------- spinners ---------------- *)

(* (t1, s1) < (t2, s2) in event order. Annotated, and local to this
   module, so the floats stay unboxed. *)
let[@inline] key_lt (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let refresh_earliest t =
  t.fl.(5) <-
    (if t.nspin > 0 then t.kt.(t.ord.(t.ohead)) else Float.infinity)

(* The spinner's id in [t]'s tables, registering it on first use. *)
let spin_id t sp =
  match sp.scell.peng with
  | Some e when e == t && sp.sid >= 0 -> sp.sid
  | _ ->
      let id = Array.length t.sreg in
      let grow a fill =
        let b = Array.make (id + 1) fill in
        Array.blit a 0 b 0 id;
        b
      in
      t.sreg <- grow t.sreg sp;
      t.kt <- grow t.kt 0.0;
      t.ks <- grow t.ks 0;
      t.kd <- grow t.kd 0.0;
      t.kp <- grow t.kp 0.0;
      t.kp.(id) <- sp.sf.(0);
      sp.sid <- id;
      sp.spinning <- false;
      sp.scell.peng <- t.self_some;
      id

(* Sorted insert from the back: a tick just passed is usually the
   latest, so this is one compare. *)
let ring_insert t id =
  let n = Array.length t.ord in
  if t.nspin = n then begin
    let o = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      o.(i) <- t.ord.((t.ohead + i) land (n - 1))
    done;
    t.ord <- o;
    t.ohead <- 0
  end;
  let m = Array.length t.ord - 1 and kt = t.kt and ks = t.ks in
  let ord = t.ord and h = t.ohead in
  let i = ref t.nspin in
  while
    !i > 0
    &&
    let o = ord.((h + !i - 1) land m) in
    key_lt kt.(id) ks.(id) kt.(o) ks.(o)
  do
    ord.((h + !i) land m) <- ord.((h + !i - 1) land m);
    decr i
  done;
  ord.((h + !i) land m) <- id;
  t.nspin <- t.nspin + 1

let ring_remove t id =
  let m = Array.length t.ord - 1 and ord = t.ord and h = t.ohead in
  if ord.(h) = id then t.ohead <- (h + 1) land m
  else begin
    let j = ref 1 in
    while ord.((h + !j) land m) <> id do
      incr j
    done;
    for i = !j to t.nspin - 2 do
      ord.((h + i) land m) <- ord.((h + i + 1) land m)
    done
  end;
  t.nspin <- t.nspin - 1

(* The spinner's next tick becomes a real resume event under the key
   it already holds: no new sequence number. *)
let materialize t sp =
  let id = sp.sid in
  if sp.spinning then begin
    sp.spinning <- false;
    ring_remove t id;
    refresh_earliest t
  end;
  let c = sp.scell in
  let k = c.pk in
  c.pk <- dummy_pay;
  let slot = alloc_slot t in
  t.tags.(slot) <- 2;
  t.pays.(slot) <- k;
  t.evq.Evq.key_in.(0) <- t.kt.(id);
  Evq.push t.evq ~seq:t.ks.(id) ~slot

(* Passes, in key order across spinners, every tick whose key is below
   the bound (fl.(6), [lseq]). A tick before its spinner's deadline
   takes the next sequence number for the tick after it; the first tick
   at or past the deadline becomes a real event instead, and the pass
   stops there and returns true so the caller pops it. Each pass takes
   the ring's front and puts it back in key order — at the back, when
   the spinners share a period, so that costs one compare. All floats
   live in float arrays: passing a tick allocates nothing. *)
let[@inline never] pass_ticks t lseq =
  let fl = t.fl and kt = t.kt and ks = t.ks and kd = t.kd and kp = t.kp in
  let materialized = ref false in
  let more = ref (t.nspin > 0) in
  while !more do
    let m = Array.length t.ord - 1 and h = t.ohead and n = t.nspin in
    let id = t.ord.(h) in
    if not (key_lt kt.(id) ks.(id) fl.(6) lseq) then more := false
    else if kt.(id) >= kd.(id) then begin
      materialize t t.sreg.(id);
      materialized := true;
      more := false
    end
    else begin
      kt.(id) <- kt.(id) +. kp.(id);
      t.seq <- t.seq + 1;
      ks.(id) <- t.seq;
      if n > 1 then begin
        let back = t.ord.((h + n - 1) land m) in
        if key_lt kt.(back) ks.(back) kt.(id) ks.(id) then begin
          t.ord.((h + n) land m) <- id;
          t.ohead <- (h + 1) land m
        end
        else begin
          t.ohead <- (h + 1) land m;
          t.nspin <- n - 1;
          ring_insert t id
        end
      end
    end
  done;
  refresh_earliest t;
  !materialized

(* ---------------- construction ---------------- *)

let create () =
  let t =
    {
      evq = Evq.create ();
      seq = 0;
      executed = 0;
      fl = [| 0.0; Float.infinity; 0.0; 0.0; 0.0; Float.infinity; 0.0 |];
      tick_fn = None;
      tick_k = 0;
      tags = [||];
      pays = [||];
      args = [||];
      free_head = -1;
      eff_handler = dummy_handler;
      wait_some = None;
      susp_some = None;
      park_some = None;
      pending_register = (fun _ -> ());
      park_into = dummy_cell;
      spin_some = None;
      spin_into = dummy_spinner;
      sreg = [||];
      kt = [||];
      ks = [||];
      kd = [||];
      kp = [||];
      ord = Array.make 8 0;
      ohead = 0;
      nspin = 0;
      self_some = None;
    }
  in
  t.self_some <- Some t;
  (* Handle Wait: pop the staged delay and park the continuation in a
     pooled tag-2 slot due at now + delay. Everything here is field
     traffic on [t] — no floats cross a call, nothing allocates. *)
  t.wait_some <-
    Some
      (fun k ->
        let fl = t.fl in
        let d = fl.(4) in
        let d = if d < 0.0 then 0.0 else d in
        let slot = alloc_slot t in
        t.tags.(slot) <- 2;
        t.pays.(slot) <- Obj.repr k;
        t.seq <- t.seq + 1;
        t.evq.Evq.key_in.(0) <- fl.(0) +. d;
        Evq.push t.evq ~seq:t.seq ~slot);
  (* Handle Suspend: hand the registered callback a one-shot resumer
     that schedules the continuation at resume-time [now]. This path
     allocates (the resumer closure escapes to arbitrary holders) —
     that is inherent to handing out a first-class resumer. *)
  t.susp_some <-
    Some
      (fun k ->
        let register = t.pending_register in
        t.pending_register <- (fun _ -> ());
        let fired = ref false in
        let resume () =
          if not !fired then begin
            fired := true;
            let slot = alloc_slot t in
            t.tags.(slot) <- 2;
            t.pays.(slot) <- Obj.repr k;
            t.seq <- t.seq + 1;
            t.evq.Evq.key_in.(0) <- t.fl.(0);
            Evq.push t.evq ~seq:t.seq ~slot
          end
        in
        register resume);
  (* Handle Park: stash the continuation in the caller-supplied cell.
     Pure field traffic — no event, no closure, no allocation beyond
     the continuation itself. *)
  t.park_some <-
    Some
      (fun k ->
        let c = t.park_into in
        t.park_into <- dummy_cell;
        c.pk <- Obj.repr k);
  (* Handle Spin: the continuation waits in the spinner's cell and its
     ticks join the engine's spinning set — unless it was poked since
     its last tick, in which case the first tick is real at once. *)
  t.spin_some <-
    Some
      (fun k ->
        let sp = t.spin_into in
        t.spin_into <- dummy_spinner;
        sp.scell.pk <- Obj.repr k;
        if sp.spoked then begin
          sp.spoked <- false;
          materialize t sp
        end
        else begin
          sp.spinning <- true;
          ring_insert t sp.sid;
          refresh_earliest t
        end);
  let effc : type a.
      a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    function
    | Wait -> t.wait_some
    | Suspend -> t.susp_some
    | Park -> t.park_some
    | Spin -> t.spin_some
    | _ -> None
  in
  t.eff_handler <- { Effect.Deep.retc = (fun () -> ()); exnc = raise; effc };
  t

let now t = t.fl.(0)

(* ---------------- scheduling ---------------- *)

let schedule t time thunk =
  let slot = alloc_slot t in
  t.tags.(slot) <- 1;
  t.pays.(slot) <- Obj.repr thunk;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- time;
  Evq.push t.evq ~seq:t.seq ~slot

let timer t ~ns fn arg =
  let ns = if ns < 0 then 0 else ns in
  let slot = alloc_slot t in
  (* Unchecked: [slot] comes from the free list, always in bounds. *)
  Array.unsafe_set t.tags slot 3;
  Array.unsafe_set t.pays slot (Obj.repr fn);
  Array.unsafe_set t.args slot arg;
  t.seq <- t.seq + 1;
  Array.unsafe_set t.evq.Evq.key_in 0
    (Array.unsafe_get t.fl 0 +. Stdlib.float_of_int ns);
  Evq.push t.evq ~seq:t.seq ~slot

let spawn t ?name f =
  ignore name;
  let slot = alloc_slot t in
  t.tags.(slot) <- 4;
  t.pays.(slot) <- Obj.repr f;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- t.fl.(0);
  Evq.push t.evq ~seq:t.seq ~slot

let spawn_at t time f =
  let time = Stdlib.max time t.fl.(0) in
  let slot = alloc_slot t in
  t.tags.(slot) <- 4;
  t.pays.(slot) <- Obj.repr f;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- time;
  Evq.push t.evq ~seq:t.seq ~slot

(* ---------------- process-side API ---------------- *)

let engine_of_process () =
  match !current_engine with
  | Some t -> t
  | None -> invalid_arg "Engine.wait/suspend called outside a process"

let now_here () = (engine_of_process ()).fl.(0)

let wait d =
  let t = engine_of_process () in
  t.fl.(4) <- d;
  Effect.perform Wait

let suspend register =
  let t = engine_of_process () in
  t.pending_register <- register;
  Effect.perform Suspend

(* Bodies are queued inside the suspend callback, after the caller's
   continuation is captured, and the last one to return resumes it at
   its own completion time. *)
let join t n body =
  if n > 0 then begin
    let left = ref n in
    suspend (fun resume ->
        for i = 0 to n - 1 do
          spawn t (fun () ->
              body i;
              decr left;
              if !left = 0 then resume ())
        done)
  end

let park cell =
  let t = engine_of_process () in
  (match cell.peng with
  | Some e when e == t -> ()
  | _ -> cell.peng <- Some t);
  t.park_into <- cell;
  Effect.perform Park

(* One-shot like a resumer: the first unpark schedules the parked
   continuation at the owning engine's current time; later calls (or
   calls on an empty cell) are no-ops. *)
let unpark cell =
  if cell.pk != dummy_pay then
    match cell.peng with
    | None -> ()
    | Some t ->
        let k = cell.pk in
        cell.pk <- dummy_pay;
        let slot = alloc_slot t in
        t.tags.(slot) <- 2;
        t.pays.(slot) <- k;
        t.seq <- t.seq + 1;
        t.evq.Evq.key_in.(0) <- t.fl.(0);
        Evq.push t.evq ~seq:t.seq ~slot

let parked cell = cell.pk != dummy_pay

let spin_begin sp =
  let t = engine_of_process () in
  let id = spin_id t sp in
  t.kd.(id) <- t.fl.(0) +. sp.sf.(1);
  sp.spoked <- false

(* The first tick is due like [wait period]: now + period, under the
   next sequence number. *)
let spin sp =
  let t = engine_of_process () in
  let id = spin_id t sp in
  if t.fl.(0) >= t.kd.(id) then false
  else begin
    t.kt.(id) <- t.fl.(0) +. t.kp.(id);
    t.seq <- t.seq + 1;
    t.ks.(id) <- t.seq;
    t.spin_into <- sp;
    Effect.perform Spin;
    true
  end

let poke sp =
  if sp.spinning then
    match sp.scell.peng with Some t -> materialize t sp | None -> ()
  else sp.spoked <- true

(* ---------------- ticks ---------------- *)

let set_tick t ~period f =
  if period <= 0.0 then invalid_arg "Engine.set_tick: period must be positive";
  let fl = t.fl in
  fl.(2) <- period;
  fl.(3) <- fl.(0);
  t.tick_k <- 1;
  t.tick_fn <- Some f;
  fl.(1) <- fl.(3) +. period

let clear_tick t =
  let fl = t.fl in
  fl.(2) <- 0.0;
  t.tick_fn <- None;
  fl.(1) <- Float.infinity

(* Fire the tick hook at every period boundary up to [time], then land
   the clock on [time]. Boundaries are derived as base + k*period — not
   accumulated with [+. period] per tick — so sample instants carry no
   cumulative rounding drift over long runs. Out of line: it runs only
   when a tick is installed and due. *)
let[@inline never] advance_ticks t time =
  let fl = t.fl in
  (match t.tick_fn with
  | Some f ->
      let period = fl.(2) in
      if period > 0.0 then
        while fl.(1) <= time do
          let b = fl.(1) in
          fl.(0) <- b;
          f b;
          t.tick_k <- t.tick_k + 1;
          fl.(1) <- fl.(3) +. (Stdlib.float_of_int t.tick_k *. period)
        done
  | None -> ());
  fl.(0) <- time

(* ---------------- dispatch ---------------- *)

let[@inline] dispatch t slot =
  (* Unchecked: [slot] was allocated from this pool and the pool never
     shrinks, so it is always in bounds. *)
  let tag = Array.unsafe_get t.tags slot in
  let pay = Array.unsafe_get t.pays slot in
  let arg = Array.unsafe_get t.args slot in
  (* Free before calling: the callback may reschedule into this slot. *)
  Array.unsafe_set t.tags slot 0;
  Array.unsafe_set t.pays slot dummy_pay;
  Array.unsafe_set t.args slot t.free_head;
  t.free_head <- slot;
  match tag with
  | 1 -> (Obj.obj pay : unit -> unit) ()
  | 2 ->
      Effect.Deep.continue
        (Obj.obj pay : (unit, unit) Effect.Deep.continuation)
        ()
  | 3 -> (Obj.obj pay : int -> unit) arg
  | 4 -> Effect.Deep.match_with (Obj.obj pay : unit -> unit) () t.eff_handler
  | _ -> assert false

(* Advance the clock to the just-popped event's time and run it. The
   no-tick case is two array cells compared and one store; the tick
   loop is out of line. *)
let[@inline] exec t slot =
  let fl = t.fl in
  let time = t.evq.Evq.key_out.(0) in
  if time >= fl.(1) then advance_ticks t time else fl.(0) <- time;
  t.executed <- t.executed + 1;
  dispatch t slot

(* ---------------- driving ---------------- *)

(* The popped event [slot] may come after spinner ticks: pass them.
   When one of them turns real, push the popped event back under its
   own key and return true, so the caller pops again. *)
let[@inline never] ticks_before t slot =
  let q = t.evq in
  let seq = q.Evq.out_seq in
  t.fl.(6) <- q.Evq.key_out.(0);
  if pass_ticks t seq then begin
    q.Evq.key_in.(0) <- t.fl.(6);
    Evq.push q ~seq ~slot;
    true
  end
  else false

(* With nothing queued, pass the earliest tick as the one event it
   stands for, moving the clock to it; a last tick turns real. *)
let pass_one t =
  let id = t.ord.(t.ohead) in
  t.fl.(6) <- t.kt.(id);
  if pass_ticks t (t.ks.(id) + 1) then false
  else begin
    let time = t.fl.(6) in
    if time >= t.fl.(1) then advance_ticks t time else t.fl.(0) <- time;
    true
  end

let rec step_once t =
  let slot = Evq.pop t.evq in
  if slot >= 0 then
    if t.evq.Evq.key_out.(0) >= t.fl.(5) && ticks_before t slot then
      step_once t
    else begin
      exec t slot;
      true
    end
  else if t.nspin > 0 then pass_one t || step_once t
  else false

let step t =
  let saved = !current_engine in
  current_engine := t.self_some;
  match step_once t with
  | r ->
      current_engine := saved;
      r
  | exception e ->
      current_engine := saved;
      raise e

(* The hot loop costs exactly one queue operation per event, plus one
   float compare against the earliest spinner tick; the
   [current_engine] save/restore happens once per [run], not per event.
   With an [until] bound the one event past the horizon is pushed back
   — it re-enters with its original (time, seq) key, so it re-lands in
   its exact slot — instead of peeking before every pop. *)
let run ?until t =
  let saved = !current_engine in
  current_engine := t.self_some;
  Fun.protect
    ~finally:(fun () -> current_engine := saved)
    (fun () ->
      match until with
      | None ->
          let rec drain () =
            let slot = Evq.pop t.evq in
            if slot >= 0 then begin
              if
                not
                  (t.evq.Evq.key_out.(0) >= t.fl.(5) && ticks_before t slot)
              then exec t slot;
              drain ()
            end
            else if t.nspin > 0 then begin
              (* Only spinners left: they run out to their last ticks. *)
              t.fl.(6) <- Float.infinity;
              ignore (pass_ticks t max_int);
              drain ()
            end
          in
          drain ()
      | Some limit ->
          let rec drain () =
            let slot = Evq.pop t.evq in
            if slot >= 0 then
              if t.evq.Evq.key_out.(0) > limit then begin
                t.evq.Evq.key_in.(0) <- t.evq.Evq.key_out.(0);
                Evq.push t.evq ~seq:t.evq.Evq.out_seq ~slot;
                horizon ()
              end
              else begin
                if
                  not
                    (t.evq.Evq.key_out.(0) >= t.fl.(5)
                    && ticks_before t slot)
                then exec t slot;
                drain ()
              end
            else if t.nspin > 0 then horizon ()
          (* Nothing at or before [limit] is queued: pass the ticks up
             to it. Something is still pending, so the clock lands on
             the limit. *)
          and horizon () =
            t.fl.(6) <- limit;
            if t.nspin > 0 && pass_ticks t max_int then drain ()
            else advance_ticks t limit
          in
          drain ())

let active t = (not (Evq.is_empty t.evq)) || t.nspin > 0

let events_executed t = t.executed

(* Blank the pool — not just the queue — so dropped events release
   their closures/continuations to the GC instead of pinning them in
   stale slots (the old heap-backed engine leaked exactly that way). *)
let stop_all t =
  Evq.clear t.evq;
  let m = Array.length t.ord - 1 in
  for i = 0 to t.nspin - 1 do
    let s = t.sreg.(t.ord.((t.ohead + i) land m)) in
    s.spinning <- false;
    s.scell.pk <- dummy_pay
  done;
  t.nspin <- 0;
  t.fl.(5) <- Float.infinity;
  let n = Array.length t.tags in
  if n > 0 then begin
    Array.fill t.tags 0 n 0;
    Array.fill t.pays 0 n dummy_pay;
    for i = 0 to n - 1 do
      t.args.(i) <- i + 1
    done;
    t.args.(n - 1) <- -1;
    t.free_head <- 0
  end
