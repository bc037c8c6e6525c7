(* Open-loop offered-rate sweep: throughput-vs-p99 knee curves with
   coordinated-omission-safe measurement.

   Each point boots a fresh platform with a blkswitch_sched ->
   kernel_driver stack and drives it with the open-loop harness
   (Workloads.Load): a seeded Poisson arrival process fired from Engine
   timers at the offered rate, a 16-injector pool (one client each —
   queue-pair completion queues are single-consumer), 4 KiB reads. The
   Latrec recorder keeps two latency distributions per point:

   - corrected: completion − *scheduled* arrival (CO-safe), and
   - naive: completion − send (what a closed-loop bench reports).

   Below the knee injectors are idle when arrivals fire, the two agree
   and achieved tracks offered. Past the knee the backlog grows and the
   corrected tail diverges by the queueing delay the naive view hides.

   Gates: (1) at the lowest rate the corrected p99 agrees with the
   naive p99 within 10% and nothing is shed; (2) at the highest rate
   the corrected p99 diverges by at least 5x; (3) achieved throughput
   is monotone non-decreasing along the sweep; (4) a same-seed rerun of
   the knee point matches exactly (p99s and event count).

   BENCH_load.json carries the full curves as arrays — gated by
   bench_diff's per-point band check (the *_curve_band keys) and
   monotone-direction check — plus the knee position and max
   sustainable rate as scalars. Key set is identical in smoke and full
   runs; the committed baseline is a smoke run. *)

open Labstor
open Lab_sim

let mount_pt = "blk::/load"

let stack_spec =
  {|
mount: "blk::/load"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let read_bytes = 4096

let injectors = 16

type point = {
  rate_kops : float;
  offered_kops : float;
  achieved_kops : float;
  p50_c_us : float;
  p99_c_us : float;
  p99_n_us : float;
  lag_mean_us : float;
  drops : int;
  late : int;
  failed : int;
  events : int;
}

let run_point ~seed ~rate_kops ~total =
  let platform = Platform.boot ~nworkers:4 ~worker_max_inflight:32 ~seed () in
  ignore (Platform.mount_exn platform stack_spec);
  let machine = Platform.machine platform in
  let res =
    Platform.go platform (fun () ->
        let clients =
          Array.init injectors (fun i ->
              Platform.client platform ~thread:(i mod 16) ())
        in
        (* Deterministic rotating LBA pattern over a 512 MiB region:
           no cache in the stack, so the pattern only needs to be
           deterministic, not representative. *)
        let next = ref 0 in
        let region_blocks = 1 lsl 17 in
        let spec =
          {
            Workloads.Load.default_spec with
            proc = Workloads.Load.Poisson { rate_ops_s = rate_kops *. 1e3 };
            seed;
            total;
            injectors;
          }
        in
        Workloads.Load.run machine spec ~submit:(fun ~injector ~scheduled ->
            let lba = !next mod region_blocks * 8 in
            incr next;
            match
              Runtime.Client.read_block clients.(injector)
                ~scheduled_at:scheduled ~mount:mount_pt ~lba ~bytes:read_bytes
            with
            | Ok _ -> true
            | Error _ -> false))
  in
  let r = res.Workloads.Load.recorder in
  let q = Obs.Latrec.corrected_quantile r in
  {
    rate_kops;
    offered_kops = res.Workloads.Load.offered_ops_s /. 1e3;
    achieved_kops = res.Workloads.Load.achieved_ops_s /. 1e3;
    p50_c_us = q 0.50 /. 1e3;
    p99_c_us = q 0.99 /. 1e3;
    p99_n_us = Obs.Latrec.naive_quantile r 0.99 /. 1e3;
    lag_mean_us = Obs.Latrec.lag_mean_ns r /. 1e3;
    drops = res.Workloads.Load.dropped;
    late = res.Workloads.Load.late;
    failed = res.Workloads.Load.completed - res.Workloads.Load.succeeded;
    events = Engine.events_executed machine.Machine.engine;
  }

let widths = [ 9; 9; 9; 9; 10; 9; 9; 7; 7 ]

let run () =
  let smoke = Bench_util.smoke () in
  Bench_util.heading "load"
    "Open-loop sweep: offered rate vs CO-corrected tail latency";
  let seed = 0x10AD in
  let total = if smoke then 2000 else 8000 in
  let rates = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] in
  Printf.printf
    "  Poisson arrivals fired from Engine timers, %d injectors, 4 KiB reads \
     on blkswitch_sched -> kernel_driver;\n\
    \  %d arrivals per point, seed %#x. corrected = completion - scheduled \
     arrival; naive = completion - send.\n"
    injectors total seed;
  Bench_util.print_row widths
    [
      "offered"; "achieved"; "p50-corr"; "p99-corr"; "p99-naive"; "co-ratio";
      "lag-mean"; "drops"; "late";
    ];
  let points =
    List.map
      (fun rate_kops ->
        let p = run_point ~seed ~rate_kops ~total in
        Bench_util.print_row widths
          [
            Bench_util.kops (p.rate_kops *. 1e3);
            Bench_util.kops (p.achieved_kops *. 1e3);
            Bench_util.f1 p.p50_c_us;
            Bench_util.f1 p.p99_c_us;
            Bench_util.f1 p.p99_n_us;
            Printf.sprintf "%.2f" (p.p99_c_us /. Stdlib.max 1e-9 p.p99_n_us);
            Bench_util.f1 p.lag_mean_us;
            string_of_int p.drops;
            string_of_int p.late;
          ];
        if p.failed > 0 then
          Bench_util.note "WARNING: %d requests failed at %.0f kops/s" p.failed
            p.rate_kops;
        p)
      rates
  in
  let first = List.hd points in
  let last = List.nth points (List.length points - 1) in
  (* Gate 1: below the knee the two views must agree — CO correction is
     a no-op when the injectors keep up. *)
  let agreement_low = first.p99_c_us /. Stdlib.max 1e-9 first.p99_n_us in
  if agreement_low > 1.10 || first.drops > 0 then begin
    Bench_util.note
      "CO REGRESSION: at %.0f kops/s corrected p99 %.2fx naive (bound 1.10x), \
       %d drops (bound 0)"
      first.rate_kops agreement_low first.drops;
    exit 1
  end;
  (* Gate 2: past saturation the corrected tail must expose the hidden
     queueing delay. *)
  let divergence_high = last.p99_c_us /. Stdlib.max 1e-9 last.p99_n_us in
  if divergence_high < 5.0 then begin
    Bench_util.note
      "CO REGRESSION: at %.0f kops/s corrected p99 only %.2fx naive (bound \
       5x) — the recorder is not exposing coordinated omission"
      last.rate_kops divergence_high;
    exit 1
  end;
  (* Gate 3: achieved throughput saturates; it must never regress as
     offered load grows (1% slack for arrival-stream noise). *)
  let rec monotone = function
    | a :: (b : point) :: rest ->
        if b.achieved_kops < 0.99 *. a.achieved_kops then begin
          Bench_util.note
            "THROUGHPUT REGRESSION: achieved fell from %.1f to %.1f kops/s as \
             offered rose %.0f -> %.0f"
            a.achieved_kops b.achieved_kops a.rate_kops b.rate_kops;
          exit 1
        end;
        monotone (b :: rest)
    | _ -> ()
  in
  monotone points;
  (* The knee: the highest swept rate that is actually served — achieved
     within 10% of offered and the corrected tail still agreeing with
     the naive one within 50%. *)
  let served p =
    p.achieved_kops >= 0.90 *. p.offered_kops
    && p.p99_c_us <= 1.5 *. p.p99_n_us
  in
  let knee_kops =
    List.fold_left
      (fun acc p -> if served p then p.rate_kops else acc)
      (List.hd points).rate_kops points
  in
  let max_sustainable_kops =
    List.fold_left (fun acc p -> Float.max acc p.achieved_kops) 0.0 points
  in
  Bench_util.note
    "knee at %.0f kops/s offered; max sustainable %.1f kops/s; CO divergence \
     %.2fx naive at %.0f kops/s"
    knee_kops max_sustainable_kops divergence_high last.rate_kops;
  (* Gate 4: same-seed determinism of the knee point. *)
  let p1 = List.find (fun p -> p.rate_kops = knee_kops) points in
  let p2 = run_point ~seed ~rate_kops:knee_kops ~total in
  let deterministic =
    p1.p99_c_us = p2.p99_c_us
    && p1.p99_n_us = p2.p99_n_us
    && p1.events = p2.events
  in
  if deterministic then
    Bench_util.note "determinism: two %.0f kops/s runs matched exactly"
      knee_kops
  else begin
    Bench_util.note
      "determinism VIOLATED: %.0f kops/s runs differ (events %d/%d)" knee_kops
      p1.events p2.events;
    exit 1
  end;

  (* JSON: curves as arrays (band + monotone gated by bench_diff) plus
     scalar knee keys. Same key set in smoke and full runs. *)
  let curve f = String.concat ", " (List.map (fun p -> f p) points) in
  let oc = open_out "BENCH_load.json" in
  Printf.fprintf oc "{\"rates_kops_curve\": [%s],\n"
    (curve (fun p -> Printf.sprintf "%.0f" p.rate_kops));
  Printf.fprintf oc " \"achieved_kops_curve\": [%s],\n"
    (curve (fun p -> Printf.sprintf "%.2f" p.achieved_kops));
  Printf.fprintf oc " \"achieved_kops_curve_band\": 0.10,\n";
  Printf.fprintf oc " \"p99_corrected_us_curve\": [%s],\n"
    (curve (fun p -> Printf.sprintf "%.2f" p.p99_c_us));
  Printf.fprintf oc " \"p99_corrected_us_curve_band\": 0.30,\n";
  Printf.fprintf oc " \"p99_naive_us_curve\": [%s],\n"
    (curve (fun p -> Printf.sprintf "%.2f" p.p99_n_us));
  Printf.fprintf oc " \"p99_naive_us_curve_band\": 0.30,\n";
  Printf.fprintf oc " \"drops_curve\": [%s],\n"
    (curve (fun p -> string_of_int p.drops));
  Printf.fprintf oc
    " \"knee_kops\": %.0f, \"max_sustainable_kops\": %.1f,\n" knee_kops
    max_sustainable_kops;
  Printf.fprintf oc
    " \"agreement_low\": %.3f, \"divergence_high\": %.2f, \"deterministic\": \
     %d}\n"
    agreement_low divergence_high
    (if deterministic then 1 else 0);
  close_out oc;
  Bench_util.note "wrote BENCH_load.json"
