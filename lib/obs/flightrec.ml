(* Always-on flight recorder with triggered black-box dumps.

   A fixed-size ring of recent encoded events — submissions,
   completions, errno failures, worker park/wake, scheduler decisions,
   SLO window rolls, injected faults. Recording is a handful of array
   stores into preallocated struct-of-arrays columns (no allocation,
   no engine events, no simulated time), so the recorder can stay on
   for every run at bounded cost: the ring holds the last [cap]
   events and older ones are overwritten.

   When a trigger fires — an injected fault, a client-visible
   ENODEV/ETIMEDOUT, a deadline miss, an SLO burn rate above 1 — the
   ring is serialized into a black-box dump: a JSON snapshot of what
   the system was doing just before the event. The first few dumps
   are kept (a crashing run triggers in bursts; the earliest context
   is the diagnostic one) and exported by [Platform.export] to
   out/blackbox.json. *)

type kind =
  | Submit
  | Complete
  | Errno
  | Deadline
  | Park
  | Wake
  | Slo_roll
  | Fault
  | Sched
  | Trigger

let code_of_kind = function
  | Submit -> 0
  | Complete -> 1
  | Errno -> 2
  | Deadline -> 3
  | Park -> 4
  | Wake -> 5
  | Slo_roll -> 6
  | Fault -> 7
  | Sched -> 8
  | Trigger -> 9

let kind_names =
  [|
    "submit"; "complete"; "errno"; "deadline"; "park"; "wake"; "slo_roll";
    "fault"; "sched"; "trigger";
  |]

let kind_name k = kind_names.(code_of_kind k)

type t = {
  cap : int;
  codes : int array;
  ts : float array;
  ids : int array;
  args : int array;
  tags : string array;
  mutable head : int; (* next write slot *)
  mutable recorded : int; (* total events ever recorded *)
  mutable triggers : int;
  max_dumps : int;
  mutable rev_dumps : string list; (* first [max_dumps] dumps, newest head *)
  mutable dumped_reasons : string list; (* one dump kept per reason *)
}

let create ?(max_dumps = 4) ~cap () =
  let cap = if cap < 0 then 0 else cap in
  {
    cap;
    codes = Array.make (Stdlib.max cap 1) 0;
    ts = Array.make (Stdlib.max cap 1) 0.0;
    ids = Array.make (Stdlib.max cap 1) (-1);
    args = Array.make (Stdlib.max cap 1) 0;
    tags = Array.make (Stdlib.max cap 1) "";
    head = 0;
    recorded = 0;
    triggers = 0;
    max_dumps;
    rev_dumps = [];
    dumped_reasons = [];
  }

let cap t = t.cap
let recorded t = t.recorded
let triggers t = t.triggers
let dumps t = List.rev t.rev_dumps

(* The hot path: five array stores and two integer updates, with no
   optional arguments to box. [tag] should be a shared/literal string —
   the recorder never copies or builds strings while recording. *)
let record t kind ~now ~id ~arg ~tag =
  if t.cap > 0 then begin
    let i = t.head in
    t.codes.(i) <- code_of_kind kind;
    t.ts.(i) <- now;
    t.ids.(i) <- id;
    t.args.(i) <- arg;
    t.tags.(i) <- tag;
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    t.recorded <- t.recorded + 1
  end

(* ---- read-out ----------------------------------------------------- *)

type event = {
  e_kind : string;
  e_ts : float;
  e_id : int;
  e_arg : int;
  e_tag : string;
}

(* Ring contents oldest-to-newest. *)
let events t =
  let n = Stdlib.min t.recorded t.cap in
  let out = ref [] in
  for j = n - 1 downto 0 do
    let i = (t.head - n + j + t.cap) mod t.cap in
    out :=
      {
        e_kind = kind_names.(t.codes.(i));
        e_ts = t.ts.(i);
        e_id = t.ids.(i);
        e_arg = t.args.(i);
        e_tag = t.tags.(i);
      }
      :: !out
  done;
  !out

let dump_json t ~reason ~now =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf {|{"reason":%s,"now_ns":%s,"events":[|} (Json.string reason)
       (Json.ns now));
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"kind\":%s,\"ts_ns\":%s,\"id\":%d,\"arg\":%d,\"tag\":%s}"
           (Json.string e.e_kind) (Json.ns e.e_ts) e.e_id e.e_arg (Json.string e.e_tag)))
    (events t);
  Buffer.add_string b "\n]}";
  Buffer.contents b

(* Fire a trigger: record it (so the dump's last event names its own
   cause), count it, and snapshot the ring for the first trigger of
   each distinct reason, up to [max_dumps] dumps total. Later triggers
   only count: a saturated failing run fires thousands of times and
   the earliest context per failure mode is the diagnostic one —
   dedup by reason keeps a rare trigger (a client-visible errno) from
   being crowded out by a chatty one (per-op injected faults). *)
let trigger t ~reason ~now =
  if t.cap > 0 then begin
    record t Trigger ~now ~id:(-1) ~arg:0 ~tag:reason;
    t.triggers <- t.triggers + 1;
    if
      List.length t.rev_dumps < t.max_dumps
      && not (List.mem reason t.dumped_reasons)
    then begin
      t.dumped_reasons <- reason :: t.dumped_reasons;
      t.rev_dumps <- dump_json t ~reason ~now :: t.rev_dumps
    end
  end

(* Export artifact: counters plus the retained dumps (each already a
   JSON object, embedded verbatim). Byte-stable. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf {|{"cap":%d,"recorded":%d,"triggers":%d,"dumps":[|} t.cap
       t.recorded t.triggers);
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Buffer.add_string b d)
    (dumps t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
