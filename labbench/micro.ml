(* Isolated host-cost drives of single layers' public functions: host
   ns and minor words per call, each measured after a warm-up pass.

   The [Engine.timer] reference loop runs in the same process, so a
   host cost divided by its ns/event cancels out the machine's speed. *)

open Labstor
open Lab_sim

type cost = { ns : float; words : float }

(* [drive n] performs [n] calls; the first [n/10] warm pools and heaps. *)
let measure ~calls drive =
  drive (Stdlib.max 1 (calls / 10));
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  drive calls;
  let t1 = Sys.time () in
  let w1 = Gc.minor_words () in
  let n = float_of_int calls in
  { ns = (t1 -. t0) *. 1e9 /. n; words = (w1 -. w0) /. n }

(* 256 self-re-arming timers on the closure-free path; one in sixteen
   sleeps past the calendar window, as in the engine's own bench. *)
let timer_ref calls =
  let e = Engine.create () in
  let left = ref calls in
  let delay slot = if slot land 15 = 0 then 500_000 else 100 + (slot * 37 mod 1400) in
  let rec fire slot =
    if !left > 0 then begin
      decr left;
      Engine.timer e ~ns:(delay slot) fire slot
    end
  in
  for i = 0 to 255 do
    Engine.timer e ~ns:(100 + i) fire i
  done;
  Engine.run e

(* Two processes hand control back and forth through park cells: each
   handoff is one [unpark] plus one [park]. *)
let park_unpark calls =
  let e = Engine.create () in
  let a = Engine.make_park_cell () and b = Engine.make_park_cell () in
  Engine.spawn e (fun () ->
      while true do
        Engine.park b;
        Engine.unpark a
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to (calls + 1) / 2 do
        Engine.unpark b;
        Engine.park a
      done);
  Engine.run e

let qp_roundtrip calls =
  let e = Engine.create () in
  let q = Ipc.Qp.create ~role:Ipc.Qp.Primary ~ordering:Ipc.Qp.Ordered ~id:0 () in
  let dst = Array.make 1 0 in
  Engine.spawn e (fun () ->
      for i = 1 to calls do
        Ipc.Qp.submit q i;
        ignore (Ipc.Qp.poll_sq_into q dst 1);
        Ipc.Qp.complete q dst.(0);
        ignore (Ipc.Qp.await_completion q)
      done);
  Engine.run e

let device_submit_wait calls =
  let e = Engine.create () in
  let dev = Device.Device.create e Device.Profile.nvme in
  Engine.spawn e (fun () ->
      for i = 1 to calls do
        ignore
          (Device.Device.submit_wait dev ~hctx:0 ~kind:Device.Device.Read
             ~lba:(i land 1023) ~bytes:4096)
      done);
  Engine.run e

let latrec_record calls =
  let r = Obs.Latrec.create () in
  for i = 1 to calls do
    let t = float_of_int i in
    Obs.Latrec.record r ~scheduled:t ~sent:(t +. 100.0)
      ~completed:(t +. float_of_int (1000 + (i land 4095)))
      ~ok:true
  done

let metrics_observe calls =
  let h = Obs.Metrics.histogram "labbench.observe" in
  for i = 1 to calls do
    Obs.Metrics.observe h (float_of_int (1000 + (i land 65535)))
  done

(* One 4 KiB read per call through [Mod_harness.run], cycling over 64
   LBAs so a cache serves hits after the warm-up pass. *)
let harness make calls =
  let h = Runtime.Mod_harness.create make in
  for i = 1 to calls do
    ignore
      (Runtime.Mod_harness.run h
         (Core.Request.Block
            {
              Core.Request.b_kind = Core.Request.Read;
              b_lba = i land 63;
              b_bytes = 4096;
              b_sync = false;
            }));
    Runtime.Mod_harness.clear_forwarded h
  done

let nvme m = Device.Device.create m.Machine.engine Device.Profile.nvme

let mods =
  [
    ("lru_cache", fun _ -> Mods.Lru_cache.factory ());
    ("blkswitch_sched", fun _ -> Mods.Blkswitch_sched.factory ~nqueues:4 ());
    ( "kernel_driver",
      fun m ->
        Mods.Kernel_driver.factory
          ~blk:(Kernel.Blk.create m (nvme m) ~sched:Kernel.Blk.Noop) );
    ("spdk", fun m -> Mods.Spdk_driver.factory ~device:(nvme m));
  ]

(* (name, cost) rows; the per-LabMod rows are net of the [dummy] LabMod
   driven through the same harness. *)
let run () =
  let timer = measure ~calls:2_000_000 timer_ref in
  let dummy = measure ~calls:50_000 (harness (fun _ -> Mods.Dummy_mod.factory ())) in
  let net c = { ns = c.ns -. dummy.ns; words = c.words -. dummy.words } in
  ( timer,
    [
      ("engine_park_unpark", measure ~calls:1_000_000 park_unpark);
      ("qp_roundtrip", measure ~calls:1_000_000 qp_roundtrip);
      ("device_submit_wait", measure ~calls:200_000 device_submit_wait);
      ("latrec_record", measure ~calls:5_000_000 latrec_record);
      ("metrics_observe", measure ~calls:5_000_000 metrics_observe);
      ("mod_harness_dummy", dummy);
    ]
    @ List.map
        (fun (name, make) ->
          ("mod_harness_" ^ name ^ "_net", net (measure ~calls:50_000 (harness make))))
        mods )
