(* Robustness experiment — fault injection sweep.

   Drives a fio-style random-write workload (4 KiB, 8 threads) through
   a scheduler -> driver LabStack while the NVMe device runs a
   deterministic fault plan, sweeping the per-command I/O-error rate.
   Reports throughput, tail latency and the full error-path accounting
   (injected faults, client retries/requeues, failures surfaced to the
   application), then checks the determinism guarantee: two runs with
   the same seed must produce byte-identical fault traces.

   LABSTOR_SMOKE=1 shrinks the workload for CI. *)

open Labstor
open Lab_sim

let stack_spec =
  {|
mount: "blk::/faults"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: noop_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let threads = 8

let bytes = 4096

type outcome = {
  kiops : float;
  p50_us : float;
  p99_us : float;
  injected : int;
  retries : int;
  requeues : int;
  failed : int;
  trace : string;
}

let run_case ~rate ~seed ~ops =
  let rates = { Fault.no_rates with Fault.io_error = rate } in
  let platform =
    Platform.boot ~nworkers:4 ~seed
      ?fault_rates:(if rate > 0.0 then Some rates else None)
      ()
  in
  ignore (Platform.mount_exn platform stack_spec);
  let machine = Platform.machine platform in
  let lat = Stats.create () in
  let failed = ref 0 in
  let clients = ref [] in
  Platform.go platform (fun () ->
      Engine.join machine.Machine.engine threads (fun th ->
          let c = Platform.client platform ~thread:th () in
          clients := c :: !clients;
          let rng = Rng.create (seed lxor (th * 7919)) in
          for _ = 1 to ops do
            let lba = Rng.int rng 262144 in
            let t0 = Machine.now machine in
            match
              Runtime.Client.write_block c ~mount:"blk::/faults" ~lba
                ~bytes
            with
            | Ok _ -> Stats.add lat (Machine.now machine -. t0)
            | Error _ -> incr failed
          done));
  let elapsed = Platform.now platform in
  let total = ops * threads in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 !clients in
  let injected, trace =
    match Platform.fault_plan platform Lab_device.Profile.Nvme with
    | Some plan -> (Fault.injected_total plan, Fault.trace_to_string plan)
    | None -> (0, "")
  in
  {
    kiops = Stdlib.float_of_int total /. (elapsed /. 1e9) /. 1000.0;
    p50_us = Stats.percentile lat 50.0 /. 1e3;
    p99_us = Stats.percentile lat 99.0 /. 1e3;
    injected;
    retries = sum Runtime.Client.retries;
    requeues = sum Runtime.Client.requeues;
    failed = !failed;
    trace;
  }

let run () =
  let smoke = Sys.getenv_opt "LABSTOR_SMOKE" <> None in
  let ops = if smoke then 100 else 2000 in
  let seed = 0xFA17 in
  Bench_util.heading "faults"
    "Robustness: deterministic fault injection, retry & degraded mode";
  Printf.printf "  %d random 4 KiB writes x %d threads per point, seed %#x\n"
    ops threads seed;
  let sweep = [ 0.0; 0.001; 0.01; 0.05 ] in
  let widths = [ 8; 10; 10; 10; 9; 8; 9; 7 ] in
  let rows =
    List.map
      (fun rate ->
        let o = run_case ~rate ~seed ~ops in
        [
          Printf.sprintf "%.3f" rate;
          Bench_util.f1 o.kiops;
          Bench_util.f1 o.p50_us;
          Bench_util.f1 o.p99_us;
          string_of_int o.injected;
          string_of_int o.retries;
          string_of_int o.requeues;
          string_of_int o.failed;
        ])
      sweep
  in
  Bench_util.print_table widths
    [ "io_err"; "kIOPS"; "p50(us)"; "p99(us)"; "injected"; "retries"; "requeues"; "failed" ]
    rows;
  Bench_util.note
    "graceful degradation: bounded retries absorb transient errors;";
  Bench_util.note
    "only exhausted retries surface EIO to the application.";
  (* Determinism: identical seeds must give byte-identical traces. *)
  let a = run_case ~rate:0.01 ~seed ~ops in
  let b = run_case ~rate:0.01 ~seed ~ops in
  if a.trace = b.trace && a.trace <> "" then
    Bench_util.note "determinism: two seed-%#x runs gave identical %d-line fault traces"
      seed
      (List.length (String.split_on_char '\n' a.trace))
  else begin
    Bench_util.note "determinism VIOLATED: traces differ across identical runs";
    exit 1
  end
