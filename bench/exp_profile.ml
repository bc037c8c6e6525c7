(* Continuous profiling: CPU-utilization timelines (paper Section 5.4).

   The paper contrasts dedicated-core worker pools (statically
   provisioned, busy-polling) against time-shared pools (workers park
   when idle): dedicated cores burn at ~100% utilization regardless of
   load, while time-shared workers' utilization tracks offered load.
   This experiment reproduces that ordering from the continuous
   profiler's own sampler timelines rather than from end-of-run
   aggregates: the same workload runs under both pool configurations
   with the sampler on, and the per-worker `runtime.worker<i>.util`
   series (per-interval awake fraction) must show dedicated cores at a
   strictly higher sustained utilization than time-shared ones.

   Also asserts the profiling layer's own invariants:
   - determinism: two same-seed runs export byte-identical profile
     JSON (sampler timeline + span flamegraph + tail attribution);
   - sampler neutrality: the tick hook rides the engine clock between
     events, so a run with the sampler on executes the identical event
     count in identical simulated time as one with it off.

   Writes BENCH_profile.json. LABSTOR_SMOKE=1 shrinks the workload. *)

open Labstor
open Lab_sim

let stack_spec =
  {|
mount: "blk::/profile"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: noop_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let threads = 4

let bytes = 4096

let period_ns = 20_000.0

type run = {
  elapsed : float;
  events : int;
  util_means : float list;  (* per-worker mean of the util series *)
  profile : string;  (* Platform.profile_json *)
}

let run_case ~seed ~ops ~busy_poll ~profile =
  let profile_period = if profile then period_ns else 0.0 in
  let trace_sample = if profile then 1 else 0 in
  let platform =
    Platform.boot ~nworkers:4 ~seed ~workers_busy_poll:busy_poll ~trace_sample
      ~profile_period ()
  in
  ignore (Platform.mount_exn platform stack_spec);
  let machine = Platform.machine platform in
  Platform.go platform (fun () ->
      Engine.join machine.Machine.engine threads (fun th ->
          let c = Platform.client platform ~thread:th () in
          let rng = Rng.create (seed lxor (th * 7919)) in
          for i = 1 to ops do
            let lba = Rng.int rng 262144 in
            if i mod 4 = 0 then
              ignore
                (Runtime.Client.write_block c ~mount:"blk::/profile"
                   ~lba ~bytes)
            else
              ignore
                (Runtime.Client.read_block c ~mount:"blk::/profile"
                   ~lba ~bytes)
          done));
  let util_means =
    match Runtime.Runtime.timeseries (Platform.runtime platform) with
    | None -> []
    | Some ts ->
        Obs.Timeseries.stats ts
        |> List.filter_map (fun (s : Obs.Timeseries.stat) ->
               let n = s.Obs.Timeseries.st_name in
               if
                 String.length n > 4
                 && String.sub n 0 14 = "runtime.worker"
                 && String.sub n (String.length n - 5) 5 = ".util"
               then Some s.Obs.Timeseries.st_mean
               else None)
  in
  {
    elapsed = Platform.now platform;
    events = Engine.events_executed machine.Machine.engine;
    util_means;
    profile = Platform.profile_json platform;
  }

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. Stdlib.float_of_int (List.length l)

let run () =
  let smoke = Bench_util.smoke () in
  let ops = if smoke then 200 else 2000 in
  let seed = 0x5E54 in
  Bench_util.heading "profile"
    "Continuous profiling: dedicated vs time-shared worker CPU timelines";
  Printf.printf
    "  %d random 4 KiB ops (1-in-4 writes) x %d threads, sampler every %.0f us, seed %#x\n"
    ops threads (period_ns /. 1e3) seed;
  let dedicated, wall1 =
    Bench_util.time_events (fun () ->
        run_case ~seed ~ops ~busy_poll:true ~profile:true)
  in
  let timeshared, wall2 =
    Bench_util.time_events (fun () ->
        run_case ~seed ~ops ~busy_poll:false ~profile:true)
  in
  let ded_mean = mean dedicated.util_means in
  let ts_mean = mean timeshared.util_means in
  Bench_util.print_table [ 14; 12; 14; 16 ]
    [ "pool"; "mean util"; "worker utils"; "simulated(ms)" ]
    [
      [
        "dedicated";
        Bench_util.f2 ded_mean;
        String.concat " " (List.map Bench_util.f2 dedicated.util_means);
        Bench_util.f2 (dedicated.elapsed /. 1e6);
      ];
      [
        "time-shared";
        Bench_util.f2 ts_mean;
        String.concat " " (List.map Bench_util.f2 timeshared.util_means);
        Bench_util.f2 (timeshared.elapsed /. 1e6);
      ];
    ];
  (* Same-seed byte-identical export. *)
  let again = run_case ~seed ~ops ~busy_poll:true ~profile:true in
  let deterministic = String.equal again.profile dedicated.profile in
  (* Sampler neutrality: profiling on must not perturb the simulation. *)
  let off = run_case ~seed ~ops ~busy_poll:true ~profile:false in
  let neutral =
    off.events = dedicated.events && off.elapsed = dedicated.elapsed
  in
  let oc = open_out "BENCH_profile.json" in
  Printf.fprintf oc
    "{\n\
    \  \"ops\": %d,\n\
    \  \"threads\": %d,\n\
    \  \"sampler_period_ns\": %.1f,\n\
    \  \"dedicated_util_mean\": %.4f,\n\
    \  \"timeshared_util_mean\": %.4f,\n\
    \  \"dedicated_elapsed_ns\": %.1f,\n\
    \  \"timeshared_elapsed_ns\": %.1f,\n\
    \  \"deterministic_export\": %b,\n\
    \  \"sampler_neutral\": %b\n\
     }\n"
    (ops * threads) threads period_ns ded_mean ts_mean dedicated.elapsed
    timeshared.elapsed deterministic neutral;
  close_out oc;
  (* Acceptance: the paper's ordering — dedicated cores sustain higher
     per-core utilization than time-shared ones on the same load. *)
  if ded_mean <= ts_mean then begin
    Bench_util.note
      "ORDERING FAILED: dedicated mean util %.4f <= time-shared %.4f"
      ded_mean ts_mean;
    exit 1
  end
  else
    Bench_util.note
      "ordering holds: dedicated %.2f > time-shared %.2f mean worker utilization"
      ded_mean ts_mean;
  if not deterministic then begin
    Bench_util.note "DETERMINISM FAILED: same-seed profile JSON differs";
    exit 1
  end
  else
    Bench_util.note "determinism: same-seed runs export byte-identical profile.json (%d bytes)"
      (String.length dedicated.profile);
  if not neutral then begin
    Bench_util.note
      "NEUTRALITY FAILED: sampler on %d events/%.1f ns vs off %d events/%.1f ns"
      dedicated.events dedicated.elapsed off.events off.elapsed;
    exit 1
  end
  else
    Bench_util.note
      "sampler neutrality: profiling on and off both ran %d events in %.2f ms simulated"
      off.events (off.elapsed /. 1e6);
  Bench_util.note_event_rate
    ~events:(dedicated.events + timeshared.events)
    ~wall_s:(wall1 +. wall2)
