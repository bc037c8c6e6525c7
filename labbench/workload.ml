(* The three benchmark workloads, their seeded request streams, and one
   measured round: boot + mount + warm-up (set-up), then the timed phase
   that replays the pre-generated stream through the simulated stack.

   Host time is taken per phase (set-up, timed phase), never per
   blocking client call: a suspended call's host interval contains other
   simulated processes' work. Virtual time is taken per request from the
   engine clock around each client call. *)

open Labstor
open Lab_sim

type loop =
  | Closed of { clients : int }
  | Open of { rate_kops : float; injectors : int }

type t = {
  name : string;
  stack : string;  (** LabStack YAML *)
  mount : string;
  loop : loop;
  read_pct : int;
  region_pages : int;  (** uniform LBA range, 4 KiB pages *)
  warm_pages : int;  (** pages read once during set-up to fill the cache *)
  requests : int;  (** per round *)
  observed : bool;  (** exemplars, flight recorder, profiler, SLO on *)
}

let bytes = 4096

let cache_stack ~mount ~capacity_mb ~shards =
  Printf.sprintf
    {|
mount: "%s"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: %d%s
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
    mount capacity_mb
    (match shards with
    | None -> ""
    | Some n -> Printf.sprintf "\n      shards: %d" n)

let direct_randrw =
  {
    name = "direct_randrw";
    stack =
      {|
mount: "blk::/direct"
rules:
  exec_mode: async
dag:
  - uuid: drv0
    mod: spdk
|};
    mount = "blk::/direct";
    loop = Closed { clients = 4 };
    read_pct = 70;
    region_pages = 262144 (* 1 GiB *);
    warm_pages = 0;
    requests = 96000;
    observed = false;
  }

let cached_hot_read =
  {
    name = "cached_hot_read";
    stack = cache_stack ~mount:"blk::/hot" ~capacity_mb:64 ~shards:(Some 4);
    mount = "blk::/hot";
    loop = Closed { clients = 4 };
    read_pct = 90;
    region_pages = 4096 (* 16 MiB hot set *);
    warm_pages = 4096;
    requests = 192000;
    observed = false;
  }

let open_mixed_observed =
  {
    name = "open_mixed_observed";
    stack = cache_stack ~mount:"blk::/open" ~capacity_mb:8 ~shards:None;
    mount = "blk::/open";
    loop = Open { rate_kops = 400.0; injectors = 16 };
    read_pct = 50;
    region_pages = 65536 (* 256 MiB *);
    warm_pages = 2048 (* fills the 8 MiB cache *);
    requests = 96000;
    observed = true;
  }

let all = [ direct_randrw; cached_hot_read; open_mixed_observed ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---- the seeded request stream ------------------------------------ *)

type stream = {
  writes : bool array;
  lbas : int array;
  gaps_ns : int array;  (** open loop: integer inter-arrival gaps *)
}

(* Everything the program receives is generated here, before any timed
   phase: op kinds, LBAs and (open loop) the Poisson arrival schedule,
   replayed through the harness as fixed integer gaps. *)
let generate w ~seed =
  let rng = Rng.create seed in
  let n = w.requests in
  let writes = Array.init n (fun _ -> Rng.int rng 100 >= w.read_pct) in
  let lbas = Array.init n (fun _ -> Rng.int rng w.region_pages) in
  let gaps_ns =
    match w.loop with
    | Closed _ -> [||]
    | Open { rate_kops; _ } ->
        let arr =
          Workloads.Load.arrivals ~seed
            (Workloads.Load.Poisson { rate_ops_s = rate_kops *. 1e3 })
            n
        in
        let prev = ref 0 in
        Array.map
          (fun a ->
            let t = Float.to_int (Float.round a) in
            let g = Stdlib.max 0 (t - !prev) in
            prev := !prev + g;
            g)
          arr
  in
  { writes; lbas; gaps_ns }

(* ---- one round ------------------------------------------------------ *)

(* A calibration slice ({!Calib}) runs after every [chunk] completed
   requests, so slices interleave with the timed phase at a fixed share
   of the program's work. Their time and allocation are excluded from
   the timed phase's figures. *)
let chunk = 1000

(* Per-request timestamps live outside the OCaml heap, so that the
   heap figures count the program's data, not the benchmark's. *)
let off_heap n =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a Float.nan;
  a

type round = {
  setup_ref_s : float;  (** see {!set_up} *)
  timed_cpu_s : float;  (** without the calibration slices *)
  slice_cpu_s : float array;  (** the calibration slices of the timed phase *)
  minor_words : float;
  heap_words_mid : int;
  heap_words_end : int;
  peak_heap_words : int;
      (** process top heap after the timed phase, less the heap before boot *)
  events : int;
  virt_ns : float;  (** virtual elapsed of the timed phase *)
  attempted : int;
  user_writes : int;  (** write requests in the stream *)
  completed : int;
  failed : int;  (** completed with an error or a wrong byte count *)
  shed : int;
  lat_ns : float array;  (** per completed request, virtual, sorted *)
  lag_ns : float array;  (** open loop: send - scheduled, sorted *)
  kops : float;  (** virtual throughput; open loop: achieved *)
  late : int;
  counters : (string * float) list;  (** registry deltas over the timed phase *)
  probe : (string * (float * int)) list;  (** traced: per-mod exclusive ns *)
  stages : (string * float array) list;
      (** traced: per-stage virtual self times, see {!Stages} *)
  exemplar_offered : int;
  exemplar_promoted : int;
  phases : Spans.phase list;
}

let snapshot p =
  List.map
    (fun (k, v) ->
      ( k,
        match v with
        | Obs.Metrics.V_counter n -> Float.of_int n
        | Obs.Metrics.V_gauge g -> g
        | Obs.Metrics.V_histogram h -> Float.of_int h.Obs.Metrics.hs_count ))
    (Obs.Metrics.to_list (Platform.metrics p))

(* Counters are cumulative; gauges such as device service percentiles
   are already scoped to the timed phase by [Device.reset_stats]. *)
let delta before after =
  List.map
    (fun (k, v) ->
      let is_level =
        String.ends_with ~suffix:"p50_ns" k || String.ends_with ~suffix:"p99_ns" k
      in
      match List.assoc_opt k before with
      | Some v0 when not is_level -> (k, v -. v0)
      | _ -> (k, v))
    after

let ok_size = function
  | Ok n -> n = bytes
  | Error _ -> false

let boot w ~seed ~traced =
  let trace_sample = if traced then 1 else 0 in
  if w.observed then
    Platform.boot ~seed ~worker_max_inflight:32 ~trace_sample ~exemplar_k:16
      ~blackbox_cap:4096 ~profile_period:100_000.0 ~slo_p99_target_us:200.0 ()
  else Platform.boot ~seed ~worker_max_inflight:32 ~trace_sample ()

let clients_of w =
  match w.loop with Closed { clients } -> clients | Open { injectors; _ } -> injectors

type booted = {
  p : Platform.t;
  eng : Engine.t;
  clients : Runtime.Client.t array;
  spans : Spans.t;
  setup_ref_s : float;
}

(* The set-up: boot, mount, connect and warm-up, timed as one phase. Its
   CPU time is divided by the mean of the calibration slices just before
   and after it, and reported in reference seconds (see {!Calib}). *)
let set_up w ~seed ~traced ~calib =
  let spans = Spans.create () in
  let pre_slice = Calib.slice calib in
  let c0 = Sys.time () in
  let p =
    Spans.phase spans ~name:"boot" ~virt:(fun () -> 0.0) (fun () ->
        boot w ~seed ~traced)
  in
  let virt () = Platform.now p in
  Spans.phase spans ~name:"mount" ~virt (fun () ->
      match Platform.mount p w.stack with
      | Ok _ -> ()
      | Error e -> failwith ("labbench: mount: " ^ e));
  let eng = (Platform.machine p).Machine.engine in
  let nclients = clients_of w in
  let clients =
    Spans.phase spans ~name:"connect" ~virt (fun () ->
        Platform.go p (fun () ->
            Array.init nclients (fun i ->
                Platform.client p ~thread:(i mod 16) ())))
  in
  let warm_failed = ref 0 in
  Spans.phase spans ~name:"warm_up" ~virt (fun () ->
      if w.warm_pages > 0 then
        Platform.go p (fun () ->
            let left = ref nclients in
            Engine.suspend (fun resume ->
                Array.iteri
                  (fun c cl ->
                    Engine.spawn eng (fun () ->
                        let page = ref c in
                        while !page < w.warm_pages do
                          if
                            not
                              (ok_size
                                 (Runtime.Client.read_block cl ~mount:w.mount
                                    ~lba:!page ~bytes))
                          then incr warm_failed;
                          page := !page + nclients
                        done;
                        decr left;
                        if !left = 0 then resume ()))
                  clients)));
  if !warm_failed > 0 then failwith "labbench: warm-up read failed";
  let cpu_s = Sys.time () -. c0 in
  let slice_s = (pre_slice +. Calib.slice calib) /. 2.0 in
  { p; eng; clients; spans; setup_ref_s = cpu_s /. slice_s *. Calib.nominal_s }

(* Set-up alone, from the same state a round starts from; the run adds
   these until it has [min_setups] set-up times, so that [setup_s] is a
   median of enough of them however few rounds fit. *)
let min_setups = 15

let extra_setup w ~seed ~calib =
  Gc.full_major ();
  (set_up w ~seed ~traced:false ~calib).setup_ref_s

let run_round w stream ~seed ~traced ~calib =
  (* Start every round from the same collected heap, so the previous
     round's garbage neither inflates this one's peak nor its GC work. *)
  Gc.full_major ();
  let heap_base = (Gc.quick_stat ()).Gc.heap_words in
  let { p; eng; clients; spans; setup_ref_s } = set_up w ~seed ~traced ~calib in
  let virt () = Platform.now p in
  let nclients = Array.length clients in
  (* -- untimed: scope the counters and observers to the timed phase -- *)
  Device.Device.reset_stats (Platform.device p Device.Profile.Nvme);
  Obs.Trace.clear (Platform.tracer p);
  let rt = Platform.runtime p in
  let probe_tbl = Hashtbl.create 8 in
  if traced then
    Runtime.Runtime.set_probe rt
      (Some
         (fun ~uuid ~exclusive_ns ->
           let s, n =
             Option.value (Hashtbl.find_opt probe_tbl uuid) ~default:(0.0, 0)
           in
           Hashtbl.replace probe_tbl uuid (s +. exclusive_ns, n + 1)));
  let ex0 =
    match Runtime.Runtime.exemplars rt with
    | None -> (0, 0)
    | Some ex -> (Obs.Exemplar.offered ex, Obs.Exemplar.promoted ex)
  in
  let before = snapshot p in
  let n = w.requests in
  let t_start = off_heap n and t_sent = off_heap n and t_end = off_heap n in
  let failed = ref 0 in
  let done_count = ref 0 in
  let slices = Array.make (n / chunk) 0.0 in
  let slice_words = ref 0.0 in
  let heap_mid = ref 0 in
  let send cl ~idx ?scheduled_at () =
    let lba = stream.lbas.(idx) in
    t_sent.{idx} <- Engine.now eng;
    t_start.{idx} <- Option.value scheduled_at ~default:t_sent.{idx};
    let r =
      if stream.writes.(idx) then
        Runtime.Client.write_block ?scheduled_at cl ~mount:w.mount ~lba ~bytes
      else Runtime.Client.read_block ?scheduled_at cl ~mount:w.mount ~lba ~bytes
    in
    t_end.{idx} <- Engine.now eng;
    incr done_count;
    if !done_count mod chunk = 0 then begin
      let w0 = Gc.minor_words () in
      slices.((!done_count / chunk) - 1) <- Calib.slice calib;
      slice_words := !slice_words +. (Gc.minor_words () -. w0)
    end;
    if !done_count = n / 2 then heap_mid := (Gc.quick_stat ()).Gc.heap_words;
    let ok = ok_size r in
    if not ok then incr failed;
    ok
  in
  (* -- timed phase -- *)
  let ev0 = Engine.events_executed eng in
  let v0 = Platform.now p in
  let w0 = Gc.minor_words () in
  let c1 = Sys.time () in
  let load_result =
    Spans.phase spans ~name:"timed" ~virt (fun () ->
        Platform.go p (fun () ->
            match w.loop with
            | Closed _ ->
                let left = ref nclients in
                Engine.suspend (fun resume ->
                    Array.iteri
                      (fun c cl ->
                        Engine.spawn eng (fun () ->
                            let idx = ref c in
                            while !idx < n do
                              ignore (send cl ~idx:!idx ());
                              idx := !idx + nclients
                            done;
                            decr left;
                            if !left = 0 then resume ()))
                      clients);
                None
            | Open { injectors; _ } ->
                let next = ref 0 in
                let spec =
                  {
                    Workloads.Load.default_spec with
                    proc = Workloads.Load.Replay { gaps_ns = stream.gaps_ns };
                    seed;
                    total = n;
                    injectors;
                  }
                in
                let r =
                  Workloads.Load.run (Platform.machine p) spec
                    ~submit:(fun ~injector ~scheduled ->
                      let idx = !next in
                      incr next;
                      send clients.(injector) ~idx ~scheduled_at:scheduled ())
                in
                Some r))
  in
  let timed_cpu_s = Sys.time () -. c1 -. Array.fold_left ( +. ) 0.0 slices in
  let minor_words = Gc.minor_words () -. w0 -. !slice_words in
  let heap = Gc.quick_stat () in
  let events = Engine.events_executed eng - ev0 in
  let virt_ns = Platform.now p -. v0 in
  Runtime.Runtime.set_probe rt None;
  (* -- untimed: collect -- *)
  let counters = delta before (snapshot p) in
  let collect pick =
    let acc = ref [] in
    for i = 0 to n - 1 do
      if not (Float.is_nan t_end.{i}) then acc := pick i :: !acc
    done;
    let a = Array.of_list !acc in
    Array.sort Float.compare a;
    a
  in
  let lat_ns = collect (fun i -> t_end.{i} -. t_start.{i}) in
  let completed = Array.length lat_ns in
  let shed, late, lag_ns, kops =
    match load_result with
    | None -> (0, 0, [||], Float.of_int completed /. virt_ns *. 1e6)
    | Some r ->
        ( r.Workloads.Load.dropped,
          r.Workloads.Load.late,
          collect (fun i -> t_sent.{i} -. t_start.{i}),
          r.Workloads.Load.achieved_ops_s /. 1e3 )
  in
  let stages =
    if traced then begin
      let tracer = Platform.tracer p in
      let evs = Obs.Trace.events tracer in
      (* Drop the tracer's own copy before the analysis allocates. *)
      Obs.Trace.clear tracer;
      Stages.self_times evs
    end
    else []
  in
  let ex_offered, ex_promoted =
    match Runtime.Runtime.exemplars rt with
    | None -> (0, 0)
    | Some ex ->
        (Obs.Exemplar.offered ex - fst ex0, Obs.Exemplar.promoted ex - snd ex0)
  in
  {
    setup_ref_s;
    timed_cpu_s;
    slice_cpu_s = slices;
    minor_words;
    heap_words_mid = !heap_mid;
    heap_words_end = heap.Gc.heap_words;
    peak_heap_words = heap.Gc.top_heap_words - heap_base;
    events;
    virt_ns;
    attempted = n;
    user_writes = Array.fold_left (fun c wr -> if wr then c + 1 else c) 0 stream.writes;
    completed;
    failed = !failed;
    shed;
    lat_ns;
    lag_ns;
    kops;
    late;
    counters;
    probe =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) probe_tbl []);
    stages;
    exemplar_offered = ex_offered;
    exemplar_promoted = ex_promoted;
    phases = Spans.phases spans;
  }

(* Drops a round's per-request data once it has been checked. *)
let strip r =
  {
    r with
    lat_ns = [||];
    lag_ns = [||];
    counters = [];
    stages = [];
    phases = [];
  }
