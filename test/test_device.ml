(* Tests for lab_device: service model, FIFO per queue, parallelism,
   seek behaviour, flush, counters. *)

open Lab_sim
open Lab_device

let in_sim f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let test_single_write_latency () =
  let elapsed =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        let c = Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096 in
        c.c_completed -. c.c_submitted)
  in
  (* 6 us latency + 4096 B / 2 B/ns = 2048 ns transfer *)
  Alcotest.(check (float 1.0)) "4K NVMe write" 8048.0 elapsed

let test_reads_and_writes_counted () =
  in_sim (fun e ->
      let dev = Device.create e Profile.pmem in
      ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096);
      ignore (Device.submit_wait dev ~hctx:0 ~kind:Read ~lba:0 ~bytes:8192);
      Alcotest.(check int) "writes" 1 (Device.completed_writes dev);
      Alcotest.(check int) "reads" 1 (Device.completed_reads dev);
      Alcotest.(check int) "bytes written" 4096 (Device.bytes_written dev);
      Alcotest.(check int) "bytes read" 8192 (Device.bytes_read dev))

let test_hdd_sequential_vs_random () =
  let seq =
    in_sim (fun e ->
        let dev = Device.create e Profile.hdd in
        for i = 0 to 9 do
          ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:i ~bytes:4096)
        done;
        Engine.now e)
  in
  let rand =
    in_sim (fun e ->
        let dev = Device.create e Profile.hdd in
        for i = 0 to 9 do
          ignore
            (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:(i * 1000) ~bytes:4096)
        done;
        Engine.now e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "random (%.0f) much slower than sequential (%.0f)" rand seq)
    true
    (rand > seq *. 5.0)

let test_nvme_parallelism () =
  (* 16 concurrent 4K writes on 16 queues should take far less than 16x
     one write (latency stage overlaps). *)
  let one =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096);
        Engine.now e)
  in
  let sixteen =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        let remaining = ref 16 in
        Engine.suspend (fun resume ->
            for i = 0 to 15 do
              Device.submit dev ~hctx:i ~kind:Write ~lba:(i * 8) ~bytes:4096
                ~on_complete:(fun _ ->
                  decr remaining;
                  if !remaining = 0 then resume ())
            done);
        Engine.now e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "16 parallel (%.0f) < 8x single (%.0f)" sixteen one)
    true
    (sixteen < one *. 8.0)

let test_sata_single_queue_serializes () =
  (* SATA has 1 hw queue; its 4 channels still allow some overlap, but
     the transfer stage and queueing keep scaling well below 16x. *)
  let one =
    in_sim (fun e ->
        let dev = Device.create e Profile.sata_ssd in
        ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096);
        Engine.now e)
  in
  let sixteen =
    in_sim (fun e ->
        let dev = Device.create e Profile.sata_ssd in
        let remaining = ref 16 in
        Engine.suspend (fun resume ->
            for i = 0 to 15 do
              Device.submit dev ~hctx:i ~kind:Write ~lba:(i * 8) ~bytes:4096
                ~on_complete:(fun _ ->
                  decr remaining;
                  if !remaining = 0 then resume ())
            done);
        Engine.now e)
  in
  Alcotest.(check bool) "sata scales worse than nvme" true (sixteen >= one *. 3.0)

let test_large_io_bandwidth_bound () =
  let t_4k =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096);
        Engine.now e)
  in
  let t_1m =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        ignore
          (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:(1024 * 1024));
        Engine.now e)
  in
  (* 1 MiB transfer = 524288 ns dominates the 12 us latency. *)
  Alcotest.(check bool) "1M dominated by transfer" true
    (t_1m > t_4k *. 10.0 && t_1m > 500_000.0)

let test_flush_waits_for_outstanding () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let completions = ref 0 in
      for i = 0 to 7 do
        Device.submit dev ~hctx:i ~kind:Write ~lba:(i * 8) ~bytes:65536
          ~on_complete:(fun _ -> incr completions)
      done;
      Device.flush dev;
      Alcotest.(check int) "flush returned after all completions" 8 !completions;
      Alcotest.(check int) "nothing outstanding" 0 (Device.outstanding dev))

let test_per_queue_fifo () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let order = ref [] in
      let remaining = ref 8 in
      Engine.suspend (fun resume ->
          for i = 0 to 7 do
            Device.submit dev ~hctx:0 ~kind:Write ~lba:(i * 1000) ~bytes:4096
              ~on_complete:(fun c ->
                order := c.c_lba :: !order;
                decr remaining;
                if !remaining = 0 then resume ())
          done);
      Alcotest.(check (list int)) "same-queue completions in order"
        [ 0; 1000; 2000; 3000; 4000; 5000; 6000; 7000 ]
        (List.rev !order))

let test_service_stats_collected () =
  in_sim (fun e ->
      let dev = Device.create e Profile.pmem in
      for _ = 1 to 10 do
        ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096)
      done;
      Alcotest.(check int) "10 samples" 10 (Stats.count (Device.service_stats dev));
      Device.reset_stats dev;
      Alcotest.(check int) "reset" 0 (Stats.count (Device.service_stats dev)))

(* Service times go into a bounded histogram: its footprint after 10k
   ops equals the one after 1k. *)
let test_service_stats_flat_memory () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let ops n =
        for i = 1 to n do
          ignore (Device.submit_wait dev ~hctx:0 ~kind:Read ~lba:(i * 8) ~bytes:4096)
        done
      in
      let words () = Obj.reachable_words (Obj.repr (Device.service_stats dev)) in
      ops 1_000;
      let w1k = words () in
      ops 9_000;
      Alcotest.(check int) "10k samples" 10_000 (Stats.count (Device.service_stats dev));
      Alcotest.(check int) "same words after 10k ops" w1k (words ()))

let prop_device_kinds_latency_order =
  QCheck.Test.make ~name:"PMEM < NVMe < SSD < HDD for 4K random writes"
    ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let time_for profile =
        in_sim (fun e ->
            let dev = Device.create e profile in
            let rng = Rng.create seed in
            for _ = 1 to 20 do
              let lba = Rng.int rng 100000 in
              ignore (Device.submit_wait dev ~hctx:0 ~kind:Write ~lba ~bytes:4096)
            done;
            Engine.now e)
      in
      let pm = time_for Profile.pmem
      and nv = time_for Profile.nvme
      and sd = time_for Profile.sata_ssd
      and hd = time_for Profile.hdd in
      pm < nv && nv < sd && sd < hd)

let () =
  Alcotest.run "lab_device"
    [
      ( "service-model",
        [
          Alcotest.test_case "single write latency" `Quick test_single_write_latency;
          Alcotest.test_case "counters" `Quick test_reads_and_writes_counted;
          Alcotest.test_case "hdd seek" `Quick test_hdd_sequential_vs_random;
          Alcotest.test_case "nvme parallelism" `Quick test_nvme_parallelism;
          Alcotest.test_case "sata serialization" `Quick
            test_sata_single_queue_serializes;
          Alcotest.test_case "large io bandwidth bound" `Quick
            test_large_io_bandwidth_bound;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "flush" `Quick test_flush_waits_for_outstanding;
          Alcotest.test_case "per-queue fifo" `Quick test_per_queue_fifo;
          Alcotest.test_case "service stats" `Quick test_service_stats_collected;
          Alcotest.test_case "service stats flat memory" `Quick
            test_service_stats_flat_memory;
          QCheck_alcotest.to_alcotest prop_device_kinds_latency_order;
        ] );
    ]
