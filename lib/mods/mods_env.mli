(** Convenience installer: registers the stock LabMod implementations
    against a set of storage backends, as the Runtime configuration
    ("LabMod repos") would. *)

open Lab_core

type backend = {
  blk : Lab_kernel.Blk.t;
  device : Lab_device.Device.t;
}

val backend_of_device : Lab_sim.Machine.t -> Lab_device.Device.t -> backend
(** Wraps a device with a pass-through block layer (Noop steering). *)

val install :
  ?metrics:Lab_obs.Metrics.t ->
  ?timeseries:Lab_obs.Timeseries.t ->
  ?qos:Lab_ipc.Tenant.t ->
  ?tracer:Lab_obs.Trace.t ->
  Registry.t ->
  machine:Lab_sim.Machine.t ->
  backends:(string * backend) list ->
  default_backend:string ->
  nworkers:int ->
  lvm_rebuild_rate_mbps:float ->
  unit
(** [?metrics] is threaded to the cache and scheduler factories so
    every instance they build registers its counters (under
    ["mod.<uuid>."]) in that registry.  [?timeseries] is threaded to
    the cache factories so each instance registers its
    ["mod.<uuid>.dirty_backlog"] probe with the profiling sampler.
    [?qos] is threaded to the [blkswitch_sched] factory, attaching the
    multi-tenant DRR dispatch stage to every instance it builds.
    [?tracer] is threaded to the [blkswitch_sched] factory so its
    instances report scheduler decisions to the stage-event stream.

    Registers: [labfs], [labkvs], [lru_cache], [permissions],
    [compress], [noop_sched], [blkswitch_sched], [lab_lvm] (over all
    backends as candidate legs, resilvering at
    [lvm_rebuild_rate_mbps] by default), [dummy], plus per-backend
    drivers named [kernel_driver:<backend>], [spdk:<backend>] (polling
    devices only) and [dax:<backend>] (byte-addressable devices only).
    The unqualified [kernel_driver], [spdk], and [dax] names bind to
    [default_backend]. *)
