(* Repository benchmark: simulator cost and simulated latency of three
   LabStack workloads, end to end and per layer.

     labbench --workload NAME --seed N --seconds S --trace 0|1

   One host process, one host thread. Each run repeats rounds — fresh
   boot from the same seed, same pre-generated request stream — until
   the timed phases have used [--seconds] of process CPU time. Every
   round must reproduce the first one's virtual results exactly.

   --trace 0 prints the end-to-end metrics, measured with the
   benchmark's tracing off. --trace 1 alternates untraced rounds with
   traced rounds (trace_sample = 1, per-LabMod probe installed), checks
   that both give the same events, virtual time and sim_* values, and
   prints the per-layer metrics plus isolated host-cost drives of single
   layers.

   Host numbers (CPU time, minor words, heap) are what the simulator
   spends; host times are in reference seconds (see {!Calib}). Virtual
   numbers ("virt" units) are what the modelled LabStor would spend.
   The model is not validated against hardware, so no error figure
   against a real system is given.

   The last line of stdout is one JSON object: correct, attempted,
   failed, metrics. A failed correctness check prints correct = false
   and exits 1. *)

let usage () =
  prerr_endline
    "usage: labbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : Workload.t; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match Workload.find v with
        | Some w -> workload := Some w
        | None ->
            prerr_endline ("labbench: unknown workload " ^ v);
            exit 2);
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* ---- correctness -------------------------------------------------- *)

let errors = ref []

let check cond msg = if not cond then errors := msg :: !errors

let check_round (r : Workload.round) =
  check (r.failed = 0)
    (Printf.sprintf "%d requests did not return Ok %d" r.failed Workload.bytes);
  check
    (r.completed + r.shed = r.attempted)
    (Printf.sprintf "completed %d + shed %d <> attempted %d" r.completed
       r.shed r.attempted)

(* What must repeat bit for bit: across rounds at one seed, and between
   a traced round and an untraced one. *)
let fingerprint (r : Workload.round) =
  ( r.events,
    r.virt_ns,
    r.lat_ns,
    r.lag_ns,
    r.kops,
    (r.completed, r.shed, r.late),
    r.counters )

(* ---- the run ------------------------------------------------------ *)

let () =
  let a = parse_args () in
  let w = a.workload in
  let stream = Workload.generate w ~seed:a.seed in
  (* Only the first untraced and the first traced round keep their
     per-request arrays; later rounds are checked against the first one
     as they finish and keep just their host numbers, so the heap does
     not grow with the number of rounds. *)
  let untraced = ref [] and traced = ref [] in
  let calib = Calib.create () in
  let budget_used () =
    List.fold_left
      (fun s (r : Workload.round) -> s +. r.timed_cpu_s)
      0.0 (!untraced @ !traced)
  in
  let min_rounds = if a.trace then 1 else 3 in
  while
    budget_used () < a.seconds
    || List.length !untraced < min_rounds
    || (a.trace && !traced = [])
  do
    let traced_turn = a.trace && List.length !traced < List.length !untraced in
    let r =
      Workload.run_round w stream ~seed:a.seed ~traced:traced_turn ~calib
    in
    check_round r;
    let kept = if traced_turn then traced else untraced in
    (match List.rev !untraced with
    | first :: _ ->
        check
          (fingerprint r = fingerprint first)
          (Printf.sprintf
             "%s round %d differs from the first untraced round at seed %d \
              (events %d vs %d, virtual ns %.1f vs %.1f)"
             (if traced_turn then "traced" else "untraced")
             (List.length !kept) a.seed r.events first.events r.virt_ns
             first.virt_ns)
    | [] -> ());
    kept := (match !kept with [] -> r | _ -> Workload.strip r) :: !kept
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let first = List.hd untraced in
  let total f = List.fold_left (fun s r -> s + f r) 0 (untraced @ traced) in
  let attempted = total (fun r -> r.Workload.attempted) in
  let failed = total (fun r -> r.Workload.failed + r.shed) in
  let metrics =
    if a.trace then
      let timer, micro = Micro.run () in
      Layers.per_layer ~untraced ~traced ~timer ~micro
    else
      let setups = List.map (fun (r : Workload.round) -> r.setup_ref_s) untraced in
      let extra =
        List.init
          (Stdlib.max 0 (Workload.min_setups - List.length setups))
          (fun _ -> Workload.extra_setup w ~seed:a.seed ~calib)
      in
      Layers.end_to_end ~untraced ~setups:(setups @ extra)
  in
  Printf.printf
    "workload %s  seed %d  rounds %d untraced + %d traced  (%d requests each)\n"
    w.name a.seed (List.length untraced) (List.length traced) w.requests;
  Printf.printf "  first round's phases (host CPU s, virtual ns):\n";
  List.iter
    (fun (p : Spans.phase) ->
      Printf.printf "    %-8s %10.6f s  %14.1f -> %14.1f virt_ns\n" p.name
        (p.host_t1 -. p.host_t0) p.virt_t0 p.virt_t1)
    first.phases;
  List.iter
    (fun (m : Layers.metric) ->
      Printf.printf "  %-44s %18.6f %-12s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev !errors);
  let correct = !errors = [] in
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (m : Layers.metric) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
             (if Float.is_finite m.value then m.value else 0.0)
             m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed json_metrics;
  if not correct then exit 1
