open Lab_sim

type fs_ops = {
  create : thread:int -> string -> unit;
  write : thread:int -> string -> off:int -> bytes:int -> unit;
  read : thread:int -> string -> off:int -> bytes:int -> unit;
  fsync : thread:int -> string -> unit;
  delete : thread:int -> string -> unit;
  open_ : thread:int -> string -> unit;
  close : thread:int -> string -> unit;
}

type personality = Varmail | Webserver | Webproxy | Fileserver

let personality_name = function
  | Varmail -> "varmail"
  | Webserver -> "webserver"
  | Webproxy -> "webproxy"
  | Fileserver -> "fileserver"

let all = [ Varmail; Webserver; Webproxy; Fileserver ]

type result = {
  ops : int;
  elapsed_ns : float;
  ops_per_sec : float;
  mib_per_sec : float;
}

(* Fileset sizes follow the filebench default personalities, scaled
   down ~10x for simulation time. *)
type profile = {
  fileset : int;
  file_bytes : int;
  append_bytes : int;
}

let profile_of = function
  | Varmail -> { fileset = 100; file_bytes = 16384; append_bytes = 16384 }
  | Webserver -> { fileset = 100; file_bytes = 16384; append_bytes = 8192 }
  | Webproxy -> { fileset = 100; file_bytes = 16384; append_bytes = 16384 }
  | Fileserver -> { fileset = 50; file_bytes = 131072; append_bytes = 16384 }

let file_name th i = Printf.sprintf "/fileset/t%d-f%d" th i

(* One personality loop iteration; returns (ops, bytes moved). *)
let iteration personality profile ops ~thread ~rng ~iter =
  let pick () = file_name thread (1 + Rng.int rng profile.fileset) in
  match personality with
  | Varmail ->
      (* delete, create+append+fsync, open+append+fsync, open+read+close *)
      let victim = pick () in
      ops.delete ~thread victim;
      ops.create ~thread victim;
      ops.write ~thread victim ~off:0 ~bytes:profile.append_bytes;
      ops.fsync ~thread victim;
      let f2 = pick () in
      ops.open_ ~thread f2;
      ops.write ~thread f2 ~off:profile.file_bytes ~bytes:profile.append_bytes;
      ops.fsync ~thread f2;
      ops.close ~thread f2;
      let f3 = pick () in
      ops.open_ ~thread f3;
      ops.read ~thread f3 ~off:0 ~bytes:profile.file_bytes;
      ops.close ~thread f3;
      (11, (2 * profile.append_bytes) + profile.file_bytes)
  | Webserver ->
      (* 10 whole-file reads + a log append *)
      let bytes = ref 0 in
      for _ = 1 to 10 do
        let f = pick () in
        ops.open_ ~thread f;
        ops.read ~thread f ~off:0 ~bytes:profile.file_bytes;
        ops.close ~thread f;
        bytes := !bytes + profile.file_bytes
      done;
      let log = Printf.sprintf "/fileset/log-%d" thread in
      ops.write ~thread log ~off:(iter * profile.append_bytes)
        ~bytes:profile.append_bytes;
      (31, !bytes + profile.append_bytes)
  | Webproxy ->
      (* delete, create+append, 5 opens+reads, log append *)
      let victim = pick () in
      ops.delete ~thread victim;
      ops.create ~thread victim;
      ops.write ~thread victim ~off:0 ~bytes:profile.append_bytes;
      let bytes = ref profile.append_bytes in
      for _ = 1 to 5 do
        let f = pick () in
        ops.open_ ~thread f;
        ops.read ~thread f ~off:0 ~bytes:profile.file_bytes;
        ops.close ~thread f;
        bytes := !bytes + profile.file_bytes
      done;
      let log = Printf.sprintf "/fileset/log-%d" thread in
      ops.write ~thread log ~off:(iter * profile.append_bytes)
        ~bytes:profile.append_bytes;
      (19, !bytes + profile.append_bytes)
  | Fileserver ->
      (* create+write whole file, append, whole read, delete *)
      let f = Printf.sprintf "/fileset/t%d-new%d" thread iter in
      ops.create ~thread f;
      ops.write ~thread f ~off:0 ~bytes:profile.file_bytes;
      let f2 = pick () in
      ops.open_ ~thread f2;
      ops.write ~thread f2 ~off:profile.file_bytes ~bytes:profile.append_bytes;
      ops.close ~thread f2;
      let f3 = pick () in
      ops.open_ ~thread f3;
      ops.read ~thread f3 ~off:0 ~bytes:profile.file_bytes;
      ops.close ~thread f3;
      ops.delete ~thread f;
      (9, (2 * profile.file_bytes) + profile.append_bytes)

let run machine personality ?(nthreads = 8) ?(iterations = 50) ops =
  let profile = profile_of personality in
  (* Pre-populate the fileset (not timed). *)
  Engine.join machine.Machine.engine 1 (fun _ ->
      for th = 0 to nthreads - 1 do
        for i = 1 to profile.fileset do
          ops.create ~thread:th (file_name th i);
          ops.write ~thread:th (file_name th i) ~off:0 ~bytes:profile.file_bytes
        done;
        ops.create ~thread:th (Printf.sprintf "/fileset/log-%d" th)
      done);
  let total_ops = ref 0 and total_bytes = ref 0 in
  let t0 = Machine.now machine in
  Engine.join machine.Machine.engine nthreads (fun th ->
      let rng = Rng.create (0xF11E + th) in
      for iter = 1 to iterations do
        let ops_done, bytes =
          iteration personality profile ops ~thread:th ~rng ~iter
        in
        total_ops := !total_ops + ops_done;
        total_bytes := !total_bytes + bytes
      done);
  let elapsed = Machine.now machine -. t0 in
  {
    ops = !total_ops;
    elapsed_ns = elapsed;
    ops_per_sec =
      (if elapsed > 0.0 then Stdlib.float_of_int !total_ops /. (elapsed /. 1e9)
       else 0.0);
    mib_per_sec =
      (if elapsed > 0.0 then
         Stdlib.float_of_int !total_bytes /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
  }
