(* Figure 8 + Table II — Developing & customizing I/O policies.

   No-Op vs. blk-switch I/O schedulers, each in its in-kernel form
   (fio over the kernel block layer) and as a LabStor LabMod. A
   throughput app (T-App: 64 KiB random writes, I/O depth 8 x 8
   threads) and a latency app (L-App: 4 KiB writes, depth 1 x 8
   threads) run isolated and colocated. The NVMe is configured with 8
   hardware queues so the 16 threads must share queues — the
   head-of-line-blocking regime the paper evaluates. *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let profile = { Profile.nvme with Profile.n_hw_queues = 8; n_channels = 8 }

let l_threads = 8

let t_threads = 8

let t_iodepth = 8

let duration_ns = 100e6

(* ---------------- Linux paths (kernel block layer) ---------------- *)

let linux_case sched ~colocated =
  let m = Machine.create ~ncores:24 () in
  let lat = Stats.create () in
  let result = ref None in
  Machine.spawn m (fun () ->
      let dev = Device.create m.Machine.engine profile in
      let blk = Blk.create m dev ~sched in
      let api = Api.create m blk in
      let deadline = duration_ns in
      let n_t = if colocated then t_threads else 0 in
      Engine.join m.Machine.engine (n_t + l_threads) (fun i ->
          if i < n_t then begin
            let th = i in
            let rng = Rng.create (900 + th) in
            while Machine.now m < deadline do
              let offs =
                Array.init t_iodepth (fun _ -> Rng.int rng 100000 * 65536)
              in
              Api.submit_batch_wait api ~api:Api.Io_uring ~thread:th
                ~kind:Device.Write ~offs ~bytes:65536
            done
          end
          else begin
            let th = t_threads + i - n_t in
            let rng = Rng.create (40 + th) in
            while Machine.now m < deadline do
              let off = Rng.int rng 100000 * 4096 in
              let t0 = Machine.now m in
              Api.submit_wait api ~api:Api.Io_uring ~thread:th
                ~kind:Device.Write ~off ~bytes:4096;
              Stats.add lat (Machine.now m -. t0);
              Engine.wait 50_000.0
            done
          end);
      result := Some (Stats.mean lat, Stats.percentile lat 99.0));
  Machine.run m;
  Option.get !result

(* ---------------- LabStor paths (scheduler LabMods) ---------------- *)

(* The paper's scheduler stacks are just scheduler -> driver: fio-style
   raw block access, no filesystem. *)
let lab_stack_spec sched_mod =
  Printf.sprintf
    {|
mount: "blk::/sched"
dag:
  - uuid: s-sched
    mod: %s
    outputs: [s-drv]
  - uuid: s-drv
    mod: kernel_driver
|}
    sched_mod

let lab_case sched_mod ~colocated =
  let machine = Machine.create ~ncores:24 () in
  let dev = Device.create machine.Machine.engine profile in
  let backend = Mods.Mods_env.backend_of_device machine dev in
  let config =
    {
      Runtime.Runtime.default_config with
      Runtime.Runtime.nworkers = 8;
      policy = Runtime.Orchestrator.Round_robin 8;
      worker_core_base = 16;
    }
  in
  let rt =
    Runtime.Runtime.create machine ~config ~backends:[ ("nvme", backend) ]
      ~default_backend:"nvme" ()
  in
  Runtime.Runtime.start rt;
  (match Runtime.Runtime.mount_text rt (lab_stack_spec sched_mod) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let lat = Stats.create () in
  let result = ref None in
  Machine.spawn machine (fun () ->
      let deadline = duration_ns in
      (* I/O depth as parallel streams: t_threads x t_iodepth
         writers, each its own client/queue pair. *)
      let n_t = if colocated then t_threads * t_iodepth else 0 in
      Engine.join machine.Machine.engine (n_t + l_threads) (fun i ->
          if i < n_t then begin
            let slot = i in
            let th = slot mod t_threads in
            let c =
              Runtime.Client.connect rt ~pid:(2000 + slot) ~uid:1 ~thread:th ()
            in
            let rng = Rng.create (1300 + slot) in
            while Machine.now machine < deadline do
              let lba = Rng.int rng 100000 * 16 in
              ignore
                (Runtime.Client.write_block c ~mount:"blk::/sched" ~lba
                   ~bytes:65536)
            done
          end
          else begin
            let th = t_threads + i - n_t in
            let c = Runtime.Client.connect rt ~pid:(3000 + th) ~uid:1 ~thread:th () in
            let rng = Rng.create (50 + th) in
            while Machine.now machine < deadline do
              let lba = Rng.int rng 100000 in
              let t0 = Machine.now machine in
              ignore
                (Runtime.Client.write_block c ~mount:"blk::/sched" ~lba
                   ~bytes:4096);
              Stats.add lat (Machine.now machine -. t0);
              Engine.wait 50_000.0
            done
          end);
      result := Some (Stats.mean lat, Stats.percentile lat 99.0));
  Machine.run ~until:(duration_ns *. 3.0) machine;
  match !result with Some r -> r | None -> failwith "scheduler bench did not finish"

let run () =
  Bench_util.heading "fig8"
    "I/O schedulers: L-App 4 KiB write latency, isolated vs. colocated with T-App";
  let cases =
    [
      ("Linux-NoOp", fun ~colocated -> linux_case Blk.Noop ~colocated);
      ("Linux-Blk", fun ~colocated -> linux_case Blk.Blk_switch ~colocated);
      ("Lab-NoOp", fun ~colocated -> lab_case "noop_sched" ~colocated);
      ("Lab-Blk", fun ~colocated -> lab_case "blkswitch_sched" ~colocated);
    ]
  in
  Bench_util.print_table [ 12; 13; 13; 13; 13 ]
    [ "system"; "iso avg(us)"; "iso p99(us)"; "colo avg(us)"; "colo p99(us)" ]
    (List.map
       (fun (name, f) ->
         let iso_avg, iso_p99 = f ~colocated:false in
         let co_avg, co_p99 = f ~colocated:true in
         [
           name;
           Bench_util.f1 (iso_avg /. 1e3);
           Bench_util.f1 (iso_p99 /. 1e3);
           Bench_util.f1 (co_avg /. 1e3);
           Bench_util.f1 (co_p99 /. 1e3);
         ])
       cases);
  Bench_util.note
    "paper shape (Table II): isolated, NoOp ~ blk-switch (separate queues);";
  Bench_util.note
    "colocated, NoOp degrades badly (head-of-line blocking: 110 us -> 945 us for";
  Bench_util.note
    "Linux) while blk-switch holds ~100 us; Lab versions ~20%% (Blk) and ~5%%";
  Bench_util.note "(NoOp isolated) better than their kernel counterparts."
