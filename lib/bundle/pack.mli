(** Packing a run into a [PTZ1] bundle.

    The packer embeds the store (segment bytes verbatim for a store
    directory; synthetic no-reduction segments for in-memory per-host
    arenas), correlates the embedded records, and serialises the
    resulting causal paths with a back-link per vertex source resolved
    against the canonical record order ({!Reader.collection}). Pattern
    profiles, the correlation configuration, an optional scenario
    description and an optional telemetry snapshot ride along.

    Determinism: identical inputs produce byte-identical bundles — the
    payload carries no wall-clock timestamps (activity timestamps are
    virtual sim-time), JSON keys are sorted, section order is fixed, and
    correlation output is byte-identical at any [jobs] (see
    {!Core.Shard}). The telemetry snapshot is caller-provided, so leaving
    it out keeps repacking reproducible. *)

type summary = {
  out_path : string;
  bytes : int;  (** Total bundle size. *)
  records : int;
  hosts : string list;  (** Canonical (sorted) hostnames. *)
  segments : int;
  store_bytes : int;  (** Embedded segment bytes (headers + payloads). *)
  cags : int;  (** Finished causal paths packed. *)
  deformed : int;  (** Deformed paths: finished-deformed plus unfinished. *)
  patterns : int;
  links : int;  (** Back-links written. *)
  unresolved_links : int;  (** Sources with no matching stored record. *)
}

val pp_summary : Format.formatter -> summary -> unit

val pack :
  ?telemetry:Telemetry.Registry.family list ->
  ?scenario:Core.Json.t ->
  ?jobs:int ->
  ?roll_records:int ->
  config:Core.Correlator.config ->
  source:[ `Store_dir of string | `Logs of Trace.Arena.t list ] ->
  path:string ->
  unit ->
  (summary, string) result
(** Write the bundle to [path] (atomically, via a temp file + rename).
    [roll_records] (default 65536) sizes the synthetic segments of a
    [`Logs] source (time-sorted arenas, one per host); a [`Store_dir]
    source keeps its segmentation. *)
