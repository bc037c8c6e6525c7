(* Tests for the extension features: tunable consistency, ARC cache,
   LabMod repos with trust levels, Runtime configuration files, LabFS
   provenance. *)

open Lab_sim
open Lab_core
open Lab_mods

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let mk_req m ?(thread = 0) payload =
  Request.make ~id:1 ~pid:1 ~uid:0 ~thread ~stack_id:1 ~now:(Machine.now m) payload

let drive m ?(forward = fun _ -> Request.Done) (labmod : Labmod.t) req =
  let ctx =
    {
      Labmod.machine = m;
      thread = req.Request.thread;
      forward;
      forward_async = (fun r k -> k (forward r));
    }
  in
  labmod.Labmod.ops.Labmod.operate labmod ctx req

let block_write ?(lba = 0) ?(sync = false) bytes =
  Request.Block
    { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = sync }

let block_read ?(lba = 0) bytes =
  Request.Block
    { Request.b_kind = Request.Read; b_lba = lba; b_bytes = bytes; b_sync = false }

(* ------------------------------------------------------------------ *)
(* Consistency LabMod                                                  *)
(* ------------------------------------------------------------------ *)

let test_consistency_durable_tags_writes () =
  in_sim (fun m ->
      let cons =
        Consistency_mod.factory ~uuid:"c"
          ~attrs:[ ("mode", Yamlite.Str "durable") ]
      in
      let saw_sync = ref false in
      let forward r =
        (match r.Request.payload with
        | Request.Block { b_sync; _ } -> saw_sync := b_sync
        | _ -> ());
        Request.Done
      in
      ignore (drive m ~forward cons (mk_req m (block_write 4096)));
      Alcotest.(check bool) "durable write tagged FUA" true !saw_sync;
      Alcotest.(check int) "write counted" 1 (Consistency_mod.writes_seen cons))

let test_consistency_relaxed_passthrough () =
  in_sim (fun m ->
      let cons = Consistency_mod.factory ~uuid:"c" ~attrs:[] in
      Alcotest.(check (option string)) "default mode" (Some "relaxed")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons));
      let saw_sync = ref true in
      let forward r =
        (match r.Request.payload with
        | Request.Block { b_sync; _ } -> saw_sync := b_sync
        | _ -> ());
        Request.Done
      in
      ignore (drive m ~forward cons (mk_req m (block_write 4096)));
      Alcotest.(check bool) "relaxed leaves writes untouched" false !saw_sync)

let test_consistency_ordered_serializes () =
  in_sim (fun m ->
      let cons =
        Consistency_mod.factory ~uuid:"c" ~attrs:[ ("mode", Yamlite.Str "ordered") ]
      in
      let inside = ref 0 and peak = ref 0 in
      let forward _ =
        incr inside;
        if !inside > !peak then peak := !inside;
        Engine.wait 1000.0;
        decr inside;
        Request.Done
      in
      Engine.join m.Machine.engine 4 (fun i ->
          ignore (drive m ~forward cons (mk_req m ~thread:(i + 1) (block_write 4096))));
      Alcotest.(check int) "one write downstream at a time" 1 !peak)

let test_consistency_live_mode_switch () =
  in_sim (fun m ->
      let cons = Consistency_mod.factory ~uuid:"c" ~attrs:[] in
      ignore (drive m cons (mk_req m (Request.Control 2)));
      Alcotest.(check (option string)) "switched to durable" (Some "durable")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons));
      ignore (drive m cons (mk_req m (Request.Control 0)));
      Alcotest.(check (option string)) "back to relaxed" (Some "relaxed")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons)))

(* ------------------------------------------------------------------ *)
(* ARC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_arc_basic_hit () =
  let a = Arc_cache.Arc.create ~capacity:4 in
  Alcotest.(check bool) "cold miss" false (Arc_cache.Arc.touch a 1);
  Alcotest.(check bool) "warm hit" true (Arc_cache.Arc.touch a 1);
  Alcotest.(check bool) "member" true (Arc_cache.Arc.mem a 1)

let test_arc_scan_resistance () =
  (* A hot set re-touched between one-shot scan pages should survive in
     ARC where plain LRU of the same size would evict it. *)
  let cap = 8 in
  let a = Arc_cache.Arc.create ~capacity:cap in
  let hot = [ 1; 2; 3; 4 ] in
  (* Establish frequency for the hot set. *)
  List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot;
  List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot;
  (* Long scan of cold pages interleaved with hot touches. *)
  for i = 100 to 160 do
    ignore (Arc_cache.Arc.touch a i);
    if i mod 4 = 0 then List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot
  done;
  let survivors = List.length (List.filter (Arc_cache.Arc.mem a) hot) in
  Alcotest.(check bool)
    (Printf.sprintf "%d/4 hot pages survive the scan" survivors)
    true (survivors >= 3)

let prop_arc_capacity_invariant =
  QCheck.Test.make ~name:"ARC: resident <= capacity, ghosts bounded, p in range"
    ~count:200
    QCheck.(pair (int_range 1 32) (list small_int))
    (fun (cap, keys) ->
      let a = Arc_cache.Arc.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Arc_cache.Arc.touch a k);
          Arc_cache.Arc.live_count a <= cap
          && Arc_cache.Arc.live_count a + Arc_cache.Arc.ghost_count a <= (2 * cap) + 1
          && Arc_cache.Arc.p a >= 0
          && Arc_cache.Arc.p a <= cap)
        keys)

let prop_arc_hit_iff_resident =
  QCheck.Test.make ~name:"ARC: touch reports hit exactly when resident" ~count:200
    QCheck.(list (int_range 0 20))
    (fun keys ->
      let a = Arc_cache.Arc.create ~capacity:8 in
      List.for_all
        (fun k ->
          let resident = Arc_cache.Arc.mem a k in
          Arc_cache.Arc.touch a k = resident)
        keys)

let test_arc_mod_interchangeable_with_lru () =
  (* Same attributes, same stack slot, same behaviour contract. *)
  in_sim (fun m ->
      let arc =
        Arc_cache.factory () ~uuid:"arc" ~attrs:[ ("capacity_mb", Yamlite.Int 1) ]
      in
      let downstream = ref 0 in
      let forward _ =
        incr downstream;
        Request.Done
      in
      ignore (drive m ~forward arc (mk_req m (block_write ~lba:7 4096)));
      Alcotest.(check int) "write absorbed" 0 !downstream;
      let r = drive m ~forward arc (mk_req m (block_read ~lba:7 4096)) in
      Alcotest.(check bool) "read hit" true (r = Request.Size 4096);
      Alcotest.(check int) "hits" 1 (Arc_cache.hits arc);
      ignore (drive m ~forward arc (mk_req m (block_read ~lba:4242 4096)));
      Alcotest.(check int) "miss forwarded" 1 !downstream;
      (* FUA passthrough, like the LRU mod. *)
      ignore (drive m ~forward arc (mk_req m (block_write ~sync:true 4096)));
      Alcotest.(check int) "sync write bypasses" 2 !downstream)

(* ------------------------------------------------------------------ *)
(* Repos & trust                                                       *)
(* ------------------------------------------------------------------ *)

let noop_factory : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name:"thirdparty" ~uuid ~mod_type:Labmod.Control
    {
      Labmod.operate = (fun _ _ _ -> Request.Done);
      est_processing_time = Labmod.default_est;
      state_update = (fun s -> s);
      state_repair = (fun _ -> ());
    }

let test_repo_trust_assignment () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 () in
  (match Repo.mount_repo repos reg ~name:"official" ~owner_uid:0 ~mods:[ ("off_mod", noop_factory) ] with
  | Ok Repo.Trusted -> ()
  | _ -> Alcotest.fail "runtime-owned repo should be trusted");
  (match Repo.mount_repo repos reg ~name:"community" ~owner_uid:1000 ~mods:[ ("com_mod", noop_factory) ] with
  | Ok Repo.Untrusted -> ()
  | _ -> Alcotest.fail "user repo should be untrusted");
  Alcotest.(check bool) "factories installed" true
    (Registry.find_factory reg "off_mod" <> None
    && Registry.find_factory reg "com_mod" <> None);
  Alcotest.(check bool) "builtin mods trusted" true
    (Repo.trust_of_mod repos "not_from_any_repo" = Repo.Trusted)

let test_repo_quota_and_collisions () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 ~max_repos_per_user:2 () in
  let mount i mods =
    Repo.mount_repo repos reg ~name:(Printf.sprintf "r%d" i) ~owner_uid:5 ~mods
  in
  (match mount 1 [ ("m1", noop_factory) ] with Ok _ -> () | Error e -> Alcotest.fail e);
  (match mount 2 [ ("m2", noop_factory) ] with Ok _ -> () | Error e -> Alcotest.fail e);
  (match mount 3 [ ("m3", noop_factory) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "quota should reject the third repo");
  (* Name collision with an installed implementation. *)
  let repos2 = Repo.create ~runtime_uid:0 () in
  (match
     Repo.mount_repo repos2 reg ~name:"dup" ~owner_uid:0 ~mods:[ ("m1", noop_factory) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "collision should be rejected");
  (* Unmount removes the factories. *)
  (match Repo.unmount_repo repos reg ~name:"r1" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "factory gone" true (Registry.find_factory reg "m1" = None)

let test_repo_untrusted_stack_rejected () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 () in
  ignore
    (Repo.mount_repo repos reg ~name:"community" ~owner_uid:1000
       ~mods:[ ("com_mod", noop_factory) ]);
  let spec exec =
    Result.get_ok
      (Stack_spec.parse
         (Printf.sprintf
            "mount: \"x::/m\"\nrules:\n  exec_mode: %s\ndag:\n  - uuid: v1\n    mod: com_mod"
            exec))
  in
  (match Repo.validate_stack_trust repos (spec "async") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "untrusted mod must not run inside the Runtime");
  match Repo.validate_stack_trust repos (spec "sync") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_runtime_mount_enforces_trust () =
  in_sim (fun m ->
      let nvme = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let backend = Lab_mods.Mods_env.backend_of_device m nvme in
      let rt =
        Lab_runtime.Runtime.create m ~backends:[ ("nvme", backend) ]
          ~default_backend:"nvme" ()
      in
      (match
         Lab_runtime.Runtime.mount_repo rt ~name:"third" ~owner_uid:1000
           ~mods:[ ("sketchy", noop_factory) ]
       with
      | Ok Repo.Untrusted -> ()
      | _ -> Alcotest.fail "expected untrusted mount");
      let spec exec =
        Printf.sprintf
          "mount: \"x::/m\"\nrules:\n  exec_mode: %s\ndag:\n  - uuid: v1\n    mod: sketchy"
          exec
      in
      (match Lab_runtime.Runtime.mount_text rt (spec "async") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "async untrusted stack must be rejected");
      match Lab_runtime.Runtime.mount_text rt (spec "sync") with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Runtime configuration files                                         *)
(* ------------------------------------------------------------------ *)

let test_run_config_defaults () =
  match Lab_runtime.Run_config.parse "" with
  | Ok c ->
      Alcotest.(check int) "default workers"
        Lab_runtime.Runtime.default_config.Lab_runtime.Runtime.nworkers
        c.Lab_runtime.Runtime.nworkers
  | Error e -> Alcotest.fail e

let test_run_config_full () =
  let doc =
    {|
workers: 12
busy_poll: true
admin_period_us: 500
worker_spin_us: 10
policy:
  kind: dynamic
  max_workers: 10
  threshold: 0.3
  lq_cutoff_us: 250
|}
  in
  match Lab_runtime.Run_config.parse doc with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check int) "workers" 12 c.Lab_runtime.Runtime.nworkers;
      Alcotest.(check bool) "busy poll" true c.Lab_runtime.Runtime.workers_busy_poll;
      Alcotest.(check (float 1e-9)) "admin period" 5e5
        c.Lab_runtime.Runtime.admin_period_ns;
      (match c.Lab_runtime.Runtime.policy with
      | Lab_runtime.Orchestrator.Dynamic { max_workers; threshold; lq_cutoff_ns } ->
          Alcotest.(check int) "max workers" 10 max_workers;
          Alcotest.(check (float 1e-9)) "threshold" 0.3 threshold;
          Alcotest.(check (float 1e-9)) "cutoff" 250_000.0 lq_cutoff_ns
      | _ -> Alcotest.fail "expected dynamic policy")

let test_run_config_rejects_bad () =
  (match Lab_runtime.Run_config.parse "workers: 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero workers should be rejected");
  match Lab_runtime.Run_config.parse "policy:\n  kind: quantum" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy should be rejected"

let expect_error ~names what = function
  | Ok _ -> Alcotest.failf "%s should be rejected" what
  | Error e ->
      let n = String.length names in
      let rec has i =
        i + n <= String.length e && (String.sub e i n = names || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%s: error %S does not name %S" what e names

let test_run_config_strict () =
  let open Lab_runtime in
  let d = Runtime.default_config in
  expect_error ~names:"busy_pol" "unknown key" (Run_config.parse "busy_pol: true");
  expect_error ~names:"no_such_key" "unknown --set key" (Run_config.set d "no_such_key=1");
  expect_error ~names:"workers" "workers: four" (Run_config.parse "workers: four");
  expect_error ~names:"busy_poll" "busy_poll: 3" (Run_config.parse "busy_poll: 3");
  expect_error ~names:"workers" "workers=four" (Run_config.set d "workers=four");
  expect_error ~names:"trace_path" "trace_path: 3" (Run_config.parse "trace_path: 3");
  expect_error ~names:"max_workers" "static max_workers"
    (Run_config.parse "policy:\n  kind: static\n  max_workers: 3");
  expect_error ~names:"workers" "missing =" (Run_config.set d "workers")

(* Every row of the knob table, set to a non-default value through YAML
   and through [set], gives the same config, and that config differs
   from the default in that knob only (the round-robin policy follows
   [workers]). A new row is covered without touching this test. *)
let test_run_config_every_knob () =
  let open Lab_runtime in
  let d = Runtime.default_config in
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  let bump = function
    | Yamlite.Int i -> string_of_int (i + 1)
    | Yamlite.Float f -> Printf.sprintf "%.17g" (f +. 1.5)
    | Yamlite.Bool b -> string_of_bool (not b)
    | Yamlite.Str s -> s ^ "x"
    | Yamlite.Null -> "out/knob.out"
    | _ -> "static"
  in
  List.iter
    (fun (k : Run_config.knob) ->
      let v = bump (k.get d) in
      let c = ok (Run_config.parse (k.key ^ ": " ^ v)) in
      Alcotest.(check bool) (k.key ^ ": yaml = set") true
        (c = ok (Run_config.set d (k.key ^ "=" ^ v)));
      Alcotest.(check bool) (k.key ^ " changed") true (k.get c <> k.get d);
      Alcotest.(check int) (k.key ^ ": core base") d.worker_core_base
        c.worker_core_base;
      List.iter
        (fun (o : Run_config.knob) ->
          if o.key <> k.key && not (k.key = "workers" && o.key = "policy") then
            Alcotest.(check bool) (k.key ^ " leaves " ^ o.key) true
              (o.get c = o.get d))
        Run_config.knobs)
    Run_config.knobs

(* A config that sets [workers: 8] and no policy spreads queues over all
   eight workers, however it was built. *)
let test_run_config_workers_policy () =
  let open Lab_runtime in
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  let busy_workers config =
    let p = Labstor.Platform.boot ~config () in
    let rt = Labstor.Platform.runtime p in
    Labstor.Platform.go p (fun () ->
        let ipc = Runtime.ipc rt in
        for pid = 1 to 16 do
          let conn = Lab_ipc.Ipc_manager.connect ipc ~pid ~uid:1 in
          ignore
            (Lab_ipc.Ipc_manager.create_qp ipc conn ~role:Lab_ipc.Qp.Primary
               ~ordering:Lab_ipc.Qp.Ordered ())
        done);
    Runtime.rebalance_now rt;
    Array.fold_left
      (fun n w -> if Worker.queues w = [] then n else n + 1)
      0 (Runtime.workers rt)
  in
  List.iter
    (fun (label, (config : Runtime.config)) ->
      Alcotest.(check int) (label ^ ": pool") 8 config.nworkers;
      Alcotest.(check int) (label ^ ": workers with queues") 8 (busy_workers config))
    [
      ("yaml", ok (Run_config.parse "workers: 8"));
      ("set", ok (Run_config.set Runtime.default_config "workers=8"));
      ("record update", { Runtime.default_config with nworkers = 8 });
    ]

(* ------------------------------------------------------------------ *)
(* Mod harness (debugging mode)                                        *)
(* ------------------------------------------------------------------ *)

let test_harness_runs_mod_in_isolation () =
  let h =
    Lab_runtime.Mod_harness.create (fun _m -> Compress_mod.factory)
  in
  let result, elapsed =
    Lab_runtime.Mod_harness.run h (block_write (1 lsl 20))
  in
  Alcotest.(check bool) "completed" true (Request.is_ok result);
  (* ~0.625 ns/B over 1 MiB: the harness observes the charged time. *)
  Alcotest.(check bool)
    (Printf.sprintf "compression cpu measured (%.0f ns)" elapsed)
    true
    (elapsed > 5e5 && elapsed < 1e6);
  match Lab_runtime.Mod_harness.forwarded h with
  | [ fwd ] ->
      Alcotest.(check int) "halved downstream" (1 lsl 19) (Request.bytes_of fwd)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 forward, got %d" (List.length l))

let test_harness_scripted_downstream () =
  (* Script the downstream to fail and watch the module surface it. *)
  let h =
    Lab_runtime.Mod_harness.create
      ~downstream:(fun _ -> Request.Failed "injected fault")
      (fun _m -> Noop_sched.factory ~nqueues:4)
  in
  let result, _ = Lab_runtime.Mod_harness.run h (block_write 4096) in
  (match result with
  | Request.Failed "injected fault" -> ()
  | r -> Alcotest.fail (Fmt.str "fault not propagated: %a" Request.pp_result r));
  Lab_runtime.Mod_harness.clear_forwarded h;
  Alcotest.(check int) "log cleared" 0
    (List.length (Lab_runtime.Mod_harness.forwarded h))

let test_harness_driver_with_device () =
  let h =
    Lab_runtime.Mod_harness.create (fun m ->
        let dev =
          Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme
        in
        let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
        Kernel_driver.factory ~blk)
  in
  let result, elapsed = Lab_runtime.Mod_harness.run h (block_write 4096) in
  Alcotest.(check bool) "driver completed" true (result = Request.Size 4096);
  Alcotest.(check bool) "device time observed" true (elapsed > 8000.0)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_labfs_provenance () =
  in_sim (fun m ->
      let fs = Labfs.factory ~total_blocks:100000 ~nworkers:2 () ~uuid:"fs" ~attrs:[] in
      let forward _ = Request.Done in
      let exec payload = ignore (drive m ~forward fs (mk_req m (Request.Posix payload))) in
      exec (Request.Create { path = "/a" });
      exec (Request.Pwrite { fd = 3; path = "/a"; off = 0; bytes = 8192 });
      exec (Request.Rename { src = "/a"; dst = "/b" });
      exec (Request.Pwrite { fd = 3; path = "/b"; off = 8192; bytes = 4096 });
      (* Unrelated traffic must not appear in /b's history. *)
      exec (Request.Create { path = "/noise" });
      exec (Request.Pwrite { fd = 4; path = "/noise"; off = 0; bytes = 4096 });
      let history = Labfs.provenance fs "/b" in
      Alcotest.(check int) "create + 2 writes + rename" 4 (List.length history);
      (match history with
      | Labfs.Rec_create { path = "/a"; _ } :: _ -> ()
      | _ -> Alcotest.fail "history must start at the original create");
      Alcotest.(check bool) "rename recorded" true
        (List.exists
           (function Labfs.Rec_rename { dst = "/b"; _ } -> true | _ -> false)
           history);
      Alcotest.(check (list int)) "no history for missing files" []
        (List.map (fun _ -> 0) (Labfs.provenance fs "/ghost")))

let () =
  Alcotest.run "lab_extensions"
    [
      ( "consistency",
        [
          Alcotest.test_case "durable tags FUA" `Quick test_consistency_durable_tags_writes;
          Alcotest.test_case "relaxed passthrough" `Quick
            test_consistency_relaxed_passthrough;
          Alcotest.test_case "ordered serializes" `Quick
            test_consistency_ordered_serializes;
          Alcotest.test_case "live mode switch" `Quick test_consistency_live_mode_switch;
        ] );
      ( "arc",
        [
          Alcotest.test_case "basic hit" `Quick test_arc_basic_hit;
          Alcotest.test_case "scan resistance" `Quick test_arc_scan_resistance;
          Alcotest.test_case "interchangeable with lru" `Quick
            test_arc_mod_interchangeable_with_lru;
          QCheck_alcotest.to_alcotest prop_arc_capacity_invariant;
          QCheck_alcotest.to_alcotest prop_arc_hit_iff_resident;
        ] );
      ( "repos",
        [
          Alcotest.test_case "trust assignment" `Quick test_repo_trust_assignment;
          Alcotest.test_case "quota & collisions" `Quick test_repo_quota_and_collisions;
          Alcotest.test_case "untrusted stack rejected" `Quick
            test_repo_untrusted_stack_rejected;
          Alcotest.test_case "runtime enforces trust" `Quick
            test_runtime_mount_enforces_trust;
        ] );
      ( "run-config",
        [
          Alcotest.test_case "defaults" `Quick test_run_config_defaults;
          Alcotest.test_case "full document" `Quick test_run_config_full;
          Alcotest.test_case "rejects bad" `Quick test_run_config_rejects_bad;
          Alcotest.test_case "strict keys and types" `Quick test_run_config_strict;
          Alcotest.test_case "every knob" `Quick test_run_config_every_knob;
          Alcotest.test_case "workers without policy" `Quick
            test_run_config_workers_policy;
        ] );
      ( "mod-harness",
        [
          Alcotest.test_case "isolated run" `Quick test_harness_runs_mod_in_isolation;
          Alcotest.test_case "scripted downstream" `Quick
            test_harness_scripted_downstream;
          Alcotest.test_case "driver with device" `Quick
            test_harness_driver_with_device;
        ] );
      ( "provenance",
        [ Alcotest.test_case "file history" `Quick test_labfs_provenance ] );
    ]
