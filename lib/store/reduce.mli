(** Request-level log reduction.

    Applies a {!Policy} to a raw batch of per-host arenas. The key
    property — what makes this "request-level" rather than record-level —
    is that sampling decisions are taken per {e request}: the batch is first
    correlated (a throwaway pass over a private telemetry registry, so
    pipeline self-profiles are not polluted), every raw activity is
    attributed to the causal path it belongs to, and then whole paths are
    kept or dropped together. A SEND therefore never loses its RECEIVE,
    and surviving requests re-correlate into exactly the CAGs the full
    log would have produced — only the {e mix} of requests thins out,
    which preserves pattern-frequency shares in expectation.

    Attribution is exact for rows that became CAG vertices (matched by
    timestamp and interned context and flow ids) and falls back to per-request context
    intervals for syscall chunks the engine merged into a grown vertex.
    Activities attributed to no request (unfilterable noise such as
    direct-to-database clients, plus name-filtered chatter) are the
    "non-request-causal" population that [drop_non_causal] removes. *)

type stats = {
  activities_before : int;
  activities_after : int;
  bytes_before : int;  (** {!Trace.Binary_format} encoded size, input. *)
  bytes_after : int;  (** Encoded size of the reduced batch. *)
  requests_total : int;  (** Causal paths found (finished + deformed). *)
  requests_kept : int;
  non_causal : int;  (** Activities attributed to no request. *)
  effective_p : float;
      (** The per-request keep probability actually used: the configured
          [p] for probabilistic sampling, the budget-derived one for
          adaptive, 1.0 otherwise. *)
}

val ratio : stats -> float
(** [bytes_before / bytes_after]; infinite when everything was dropped. *)

val sampled_share : stats -> float
(** [requests_kept / requests_total] (1.0 when no requests were found). *)

val pp_stats : Format.formatter -> stats -> unit

val apply :
  ?telemetry:Telemetry.Registry.t ->
  ?pool:Parallel.Pool.t ->
  ?jobs:int ->
  correlate:Core.Correlator.config ->
  policy:Policy.t ->
  Trace.Arena.t list ->
  Trace.Arena.t list * stats
(** Reduce one batch of time-sorted per-host arenas. [correlate] supplies
    the entry points and window used to attribute rows to requests (its
    [transform] filters affect attribution only, never which rows survive
    — use the policy's [drop_programs] to actually delete by name). A
    {!Policy.none} policy returns the batch unchanged without correlating.
    Otherwise surviving rows keep their order and arenas left empty are
    omitted.

    Reduction telemetry (bytes before/after, requests seen/kept, dropped
    activities) is recorded into [telemetry] (default
    {!Telemetry.Registry.default}) under [pt_store_reduce_*].

    The attribution pass (counting causal activities, then keeping or
    dropping whole requests) runs per host-log across [pool] (or a
    transient pool of [jobs] domains; default
    {!Parallel.Pool.default_jobs}). The attribution tables are read-only
    during both passes and results merge in log order, so the reduced
    batch is identical at any [jobs]. *)
