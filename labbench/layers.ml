(* Metric derivation: end-to-end metrics from untraced rounds, per-layer
   metrics from traced rounds, the registry counters and the isolated
   host-cost drives. *)

type metric = { name : string; value : float; unit : string; samples : int }

let m name unit ~n value = { name; value; unit; samples = n }

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank over a sorted array: exact, no bucketing. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = Float.to_int (Float.ceil (q *. Float.of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* Host cost per simulated request in reference seconds: a round's
   timed-phase CPU time over the mean CPU time of the calibration slices
   interleaved with it (see {!Calib}), per completed request, median
   over [rounds]. Whole-round totals, so every request's work counts,
   the busy and tail paths' included. *)
let ref_s_per_req (rounds : Workload.round list) =
  median
    (List.map
       (fun (r : Workload.round) ->
         let k = Array.length r.slice_cpu_s in
         let slice = Array.fold_left ( +. ) 0.0 r.slice_cpu_s /. float_of_int k in
         r.timed_cpu_s /. slice *. Calib.nominal_s /. float_of_int r.completed)
       rounds)

(* The same without calibration: CPU seconds per completed request. *)
let cpu_s_per_req (rounds : Workload.round list) =
  median
    (List.map
       (fun (r : Workload.round) -> r.timed_cpu_s /. float_of_int r.completed)
       rounds)

let end_to_end ~(untraced : Workload.round list) ~setups =
  let r0 = List.hd untraced in
  let rounds = List.length untraced in
  let per f = median (List.map f untraced) in
  let lat q = quantile r0.lat_ns q /. 1e3 in
  let n_lat = Array.length r0.lat_ns in
  (* The first round's peak: one boot + warm-up + timed phase. Later
     rounds repeat that work; their only effect on the process peak is
     GC-pacing noise, which would make the metric depend on how many
     rounds fit in the run. *)
  let words = float_of_int r0.peak_heap_words in
  [
    m "sim_req_per_host_s" "req/ref_s" ~n:rounds (1.0 /. ref_s_per_req untraced);
    m "host_minor_words_per_req" "words/req" ~n:rounds
      (per (fun r -> r.minor_words /. float_of_int r.attempted));
    m "host_peak_heap_mb" "MB" ~n:1
      (words *. float_of_int (Sys.word_size / 8) /. 1e6);
    m "setup_s" "s" ~n:(List.length setups) (median setups);
    m "sim_p50_us" "virt_us" ~n:n_lat (lat 0.50);
    m "sim_p99_us" "virt_us" ~n:n_lat (lat 0.99);
    m "sim_p999_us" "virt_us" ~n:n_lat (lat 0.999);
    m "sim_kops" "kops/virt_s" ~n:n_lat r0.kops;
  ]

(* ---- per layer ---------------------------------------------------- *)

let sum_matching counters ~prefix ~suffix =
  List.fold_left
    (fun s (k, v) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then s +. v
      else s)
    0.0 counters

let counter counters k = Option.value (List.assoc_opt k counters) ~default:0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per_layer ~(untraced : Workload.round list) ~(traced : Workload.round list)
    ~(timer : Micro.cost) ~micro =
  let r = List.hd traced in
  let c = r.counters in
  let n = float_of_int r.completed in
  let rounds = List.length untraced in
  let s_per_req = cpu_s_per_req untraced in
  let slices =
    Array.concat (List.map (fun (u : Workload.round) -> u.slice_cpu_s) untraced)
  in
  Array.sort Float.compare slices;
  let host_ns_per_event =
    median
      (List.map
         (fun (u : Workload.round) -> u.timed_cpu_s *. 1e9 /. float_of_int u.events)
         untraced)
  in
  let workers =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"runtime.worker" k
           && String.ends_with ~suffix:".active_ns" k
        then Some (v /. r.virt_ns)
        else None)
      c
  in
  let nworkers = List.length workers in
  let util = ratio (List.fold_left ( +. ) 0.0 workers) (float_of_int nworkers) in
  let imbalance = ratio (List.fold_left Float.max 0.0 workers) util in
  let stage_rows =
    List.concat_map
      (fun name ->
        let a = Option.value (List.assoc_opt name r.stages) ~default:[||] in
        let k = Array.length a in
        let mean = ratio (Array.fold_left ( +. ) 0.0 a) (float_of_int k) in
        [
          m ("stage." ^ name ^ ".mean_ns") "virt_ns" ~n:k mean;
          m ("stage." ^ name ^ ".p99_ns") "virt_ns" ~n:k (quantile a 0.99);
        ])
      Stages.names
  in
  let mod_rows =
    List.map
      (fun uuid ->
        let sum, k =
          Option.value (List.assoc_opt uuid r.probe) ~default:(0.0, 0)
        in
        m ("mod." ^ uuid ^ ".excl_ns_mean") "virt_ns" ~n:k
          (ratio sum (float_of_int k)))
      [ "cache0"; "sched0"; "drv0" ]
  in
  let hits = counter c "mod.cache0.hits"
  and misses = counter c "mod.cache0.misses" in
  let flush_ops = counter c "mod.cache0.flush_ops" in
  let qp k = sum_matching c ~prefix:"ipc.qp" ~suffix:k in
  let client k = sum_matching c ~prefix:"client." ~suffix:k in
  let user_write_bytes = float_of_int (r.user_writes * Workload.bytes) in
  let dev k = counter c ("device.nvme." ^ k) in
  let dev_ops = Float.to_int (dev "completed_reads" +. dev "completed_writes") in
  let micro_rows =
    m "host.timer_ref.ns_per_event" "ns" ~n:1 timer.ns
    :: m "host.timer_ref.words_per_event" "words" ~n:1 timer.words
    :: List.concat_map
         (fun (name, (cost : Micro.cost)) ->
           [
             m ("host." ^ name ^ ".ns_per_call") "ns" ~n:1 cost.ns;
             m ("host." ^ name ^ ".words_per_call") "words" ~n:1 cost.words;
           ])
         micro
  in
  [
    m "host.ref_scale" "ratio" ~n:(Array.length slices)
      (quantile slices 0.5 /. Calib.nominal_s);
    m "sim.req_per_cpu_s" "req/cpu_s" ~n:rounds (1.0 /. s_per_req);
    m "sim.events_per_req" "count" ~n:r.completed
      (ratio (float_of_int r.events) n);
    m "sim.host_ns_per_event" "ns" ~n:rounds host_ns_per_event;
    m "sim.host_event_cost_ratio" "ratio" ~n:rounds
      (ratio host_ns_per_event timer.ns);
    m "ipc.doorbells_per_req" "count" ~n:r.completed
      (ratio (qp ".doorbell_rings") n);
    m "ipc.sq_stalls" "count" ~n:1 (qp ".sq_stalls");
    m "ipc.cq_stalls" "count" ~n:1 (qp ".cq_stalls");
    m "runtime.worker_util" "ratio" ~n:nworkers util;
    m "runtime.worker_imbalance" "ratio" ~n:nworkers imbalance;
    m "client.retries" "count" ~n:1 (client ".retries");
    m "client.requeues" "count" ~n:1 (client ".requeues");
    m "client.deadline_misses" "count" ~n:1 (client ".deadline_misses");
    m "error_rate" "ratio" ~n:r.attempted
      (ratio (float_of_int (r.failed + r.shed)) (float_of_int r.attempted));
  ]
  @ stage_rows @ mod_rows
  @ [
      m "cache.hit_ratio" "ratio" ~n:(Float.to_int (hits +. misses))
        (ratio hits (hits +. misses));
      m "cache.dirty_evictions_per_write" "count" ~n:r.user_writes
        (ratio
           (counter c "mod.cache0.dirty_evictions")
           (float_of_int r.user_writes));
      m "cache.flush_pages_per_op" "count" ~n:(Float.to_int flush_ops)
        (ratio (counter c "mod.cache0.flush_pages") flush_ops);
      m "sched.merged_ops_per_req" "count" ~n:r.completed
        (ratio (counter c "mod.sched0.merged_ops") n);
      m "device.ops_per_req" "count" ~n:r.completed (ratio (float_of_int dev_ops) n);
      m "device.write_bytes_per_user_byte" "ratio" ~n:r.user_writes
        (ratio (dev "bytes_written") user_write_bytes);
      m "device.service_p50_us" "virt_us" ~n:dev_ops (dev "service_p50_ns" /. 1e3);
      m "device.service_p99_us" "virt_us" ~n:dev_ops (dev "service_p99_ns" /. 1e3);
      m "obs.exemplar_promote_ratio" "ratio" ~n:r.exemplar_offered
        (ratio
           (float_of_int r.exemplar_promoted)
           (float_of_int r.exemplar_offered));
      m "obs.trace_overhead_ratio" "ratio" ~n:(List.length traced)
        (ratio (ref_s_per_req traced) (ref_s_per_req untraced));
      m "load.inject_lag_p99_us" "virt_us" ~n:(Array.length r.lag_ns)
        (quantile r.lag_ns 0.99 /. 1e3);
      m "load.late" "count" ~n:r.attempted (float_of_int r.late);
      m "load.dropped" "count" ~n:r.attempted (float_of_int r.shed);
      m "mem.heap_growth_ratio" "ratio" ~n:rounds
        (median
           (List.map
              (fun (u : Workload.round) ->
                ratio (float_of_int u.heap_words_end) (float_of_int u.heap_words_mid))
              untraced));
    ]
  @ micro_rows
