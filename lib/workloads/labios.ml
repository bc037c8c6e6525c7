open Lab_sim

type backend = {
  name : string;
  put_label : thread:int -> key:string -> bytes:int -> unit;
  get_label : thread:int -> key:string -> unit;
}

let file_backend ~name ~open_ ~seek ~write ~read ~close =
  {
    name;
    put_label =
      (fun ~thread ~key ~bytes ->
        (* fopen, fseek, fwrite, fclose — the translation LABIOS pays
           when labels become UNIX files. *)
        open_ ~thread key;
        seek ~thread key 0;
        write ~thread key ~off:0 ~bytes;
        close ~thread key);
    get_label =
      (fun ~thread ~key ->
        open_ ~thread key;
        seek ~thread key 0;
        read ~thread key ~off:0 ~bytes:8192;
        close ~thread key);
  }

type result = {
  labels : int;
  elapsed_ns : float;
  labels_per_sec : float;
  mib_per_sec : float;
}

let run_worker machine backend ?(nthreads = 1) ?(labels_per_thread = 2000)
    ?(label_bytes = 8192) ?(read_fraction = 0.0) () =
  let t0 = Machine.now machine in
  Engine.join machine.Machine.engine nthreads (fun th ->
      let rng = Rng.create (0x1AB + th) in
      for i = 1 to labels_per_thread do
        let key = Printf.sprintf "labios::/labels/t%d-l%d" th i in
        if Rng.float rng 1.0 < read_fraction && i > 1 then
          backend.get_label ~thread:th
            ~key:(Printf.sprintf "labios::/labels/t%d-l%d" th (Rng.int rng (i - 1) + 1))
        else backend.put_label ~thread:th ~key ~bytes:label_bytes
      done);
  let elapsed = Machine.now machine -. t0 in
  let labels = nthreads * labels_per_thread in
  {
    labels;
    elapsed_ns = elapsed;
    labels_per_sec =
      (if elapsed > 0.0 then Stdlib.float_of_int labels /. (elapsed /. 1e9) else 0.0);
    mib_per_sec =
      (if elapsed > 0.0 then
         Stdlib.float_of_int (labels * label_bytes)
         /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
  }
