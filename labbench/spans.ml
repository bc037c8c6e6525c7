(* The benchmark's own phase spans, recorded around its calls into the
   program's public functions: boot, mount, connect, warm-up and the
   timed phase that wraps the client calls or [Load.run], each with host
   CPU and virtual time. The spans of single client calls are the
   per-request virtual timestamps each round keeps. *)

type phase = {
  name : string;
  host_t0 : float;  (** process CPU seconds *)
  host_t1 : float;
  virt_t0 : float;  (** virtual ns *)
  virt_t1 : float;
}

type t = { mutable phases : phase list  (** newest first *) }

let create () = { phases = [] }

let phase t ~name ~virt f =
  let virt_t0 = virt () in
  let host_t0 = Sys.time () in
  let r = f () in
  let host_t1 = Sys.time () in
  t.phases <- { name; host_t0; host_t1; virt_t0; virt_t1 = virt () } :: t.phases;
  r

let phases t = List.rev t.phases
