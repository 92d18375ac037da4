(** The ranker: choosing candidate activities for CAG composition (§4.1).

    Activities logged on different nodes are fetched into per-node queues
    whenever their local timestamps fall inside a sliding time window. The
    ranker only ever compares the {e head} activities of the queues and
    picks the next candidate by the paper's two rules:

    - {b Rule 1}: a head RECEIVE whose matching SEND is already in the
      engine's [mmap] is the candidate — its message parent has been
      delivered, so it can be correlated immediately.
    - {b Rule 2}: otherwise the head with the lowest type priority
      (BEGIN < SEND < END < RECEIVE) is the candidate, which guarantees a
      SEND always precedes its matched RECEIVE.

    Two disturbances are handled (§4.3): {e concurrency disturbance}, where
    every head is a RECEIVE blocking the others' matched SENDs deeper in
    the queues — resolved by promoting a buffered matching SEND to its
    queue's front (the paper's head swap, generalised to any depth); and
    {e noise}, a RECEIVE with no matching SEND in the [mmap] {e or} the
    buffer — discarded, but only after fetching ahead up to
    [skew_allowance] so that clock skew between nodes can never
    misclassify live traffic as noise (DESIGN.md clarification #3). *)

type t

type candidate = private {
  activity : Trace.Activity.t;
  ctx : int;  (** {!Trace.Intern.context_id} of [activity.context]. *)
  flow : int;
      (** {!Trace.Intern.flow_id} of [activity.message.flow] for SENDs and
          RECEIVEs; [-1] for BEGIN/END, whose flows are never looked up. *)
}
(** A record with the interned ids it was given on entering the ranker
    ({!create} or {!feed}): the ranker's own lookups, and the engine's
    ({!Cag_engine.step_ids}), are keyed by these ints, so nothing on the
    per-step path interns. *)

type reject_reason =
  | Unknown_host  (** No stream exists for the record's host. *)
  | Closed  (** Fed after {!close_input}. *)
  | Duplicate  (** Identical to the previous record of its stream. *)
  | Regression  (** Timestamp behind the stream by more than the skew allowance. *)
  | Stale
      (** Late within the allowance, but behind what its stream already
          committed to the engine — too late to re-sort. *)

val reject_reason_to_string : reject_reason -> string
(** Stable lower-snake label, used as the [reason] metric label. *)

val all_reject_reasons : reject_reason list

type feed_result =
  | Accepted
  | Resorted  (** A tolerable regression, re-sorted into place. *)
  | Quarantined of reject_reason

(** The ranker's counts. Each ranker updates one such record in place
    ({!counts}); {!stats} returns a copy. *)
type stats = {
  mutable fetched : int;  (** Activities pulled into the buffer. *)
  mutable candidates : int;  (** Activities returned by [rank]. *)
  mutable noise_discarded : int;  (** RECEIVEs dropped by the [is_noise] check. *)
  mutable promotions : int;  (** Concurrency-disturbance head swaps. *)
  mutable forced_fetches : int;  (** Window extensions for deferred noise checks. *)
  mutable forced_discards : int;
      (** Discards of a RECEIVE whose matching SEND was buffered but
          unpromotable — expected to be zero; a non-zero value flags an
          interleaving outside the algorithm's assumptions. *)
  mutable peak_buffered : int;  (** High-water mark of buffered activities. *)
  mutable resorted : int;  (** Late records re-sorted into place. *)
  mutable quarantined : (reject_reason * int) list;  (** Per-reason reject counts. *)
  mutable stragglers_evicted : int;  (** Streams marked lagging past the timeout. *)
  mutable straggler_resyncs : int;  (** Lagging streams reintegrated on catch-up. *)
  mutable backpressure_pops : int;
      (** Candidates force-resolved (or noise force-discarded) because
          held records exceeded [max_buffered]. *)
  mutable stragglers_active : int;  (** Open streams evicted right now. *)
}

type ablation = { disable_rule1 : bool; disable_promotion : bool }
(** Switch off individual mechanisms to measure what they buy (the
    ablation benches of DESIGN.md). Without Rule 1, matched receives wait
    behind the priority order; without promotion, concurrency disturbances
    must resolve through forced discards — both degrade accuracy, which is
    the point. *)

val no_ablation : ablation

val create :
  window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:ablation ->
  has_mmap_send:(int -> bool) ->
  Trace.Log.collection ->
  t
(** [window] is the sliding-window size (any positive span; accuracy is
    independent of it, cost is not). [skew_allowance] bounds how far ahead
    of a suspect RECEIVE the ranker will look before declaring it noise;
    it must exceed the largest cross-node clock skew (default 1 s, twice
    the paper's largest evaluated skew). [has_mmap_send] takes a flow id
    and is wired to the engine's message-relation index
    ({!Cag_engine.has_mmap_send}); it must have no side effects, since
    Rule 1 asks it only about heads that could win. Every record is
    interned here, once. *)

val rank : t -> Trace.Activity.t option
(** The next candidate's record, or [None] when all input is consumed.
    (For rankers with open input, [None] can also mean "need more input" —
    use {!rank_step} to distinguish; it also hands over the ids.) *)

(** {1 Live operation}

    A ranker can also be driven online, as traces stream in from the
    cluster: create it with the node list, [feed] activities as the probe
    reports them, and pull candidates with {!rank_step}. Candidates are
    withheld until enough input has arrived that no later-fed activity
    could precede them (each stream's feed watermark must pass the
    candidate's timestamp plus the skew allowance), so an online run
    yields the same paths as the offline run on the same trace — though
    concurrent sibling vertices may be committed in a different order
    (see {!Online}).

    {2 Degraded feeds}

    Live input is imperfect, and the ranker degrades gracefully rather
    than stalling or raising:

    - {b Straggler eviction} ([straggler_timeout]): an open stream that
      falls further than the timeout behind the global feed watermark is
      evicted from the wait set, so a silent host cannot stall everyone
      else forever. If it later catches back up to within the timeout it
      is reintegrated (a resync), and its backlog is fetched normally.
    - {b Input quarantine}: {!feed} never raises. Malformed records —
      unknown host, post-close, duplicates, large timestamp regressions,
      too-late records — are counted per {!reject_reason} and kept in a
      bounded inspection log; regressions within the skew allowance are
      re-sorted into place instead.
    - {b Backpressure} ([max_buffered]): when held records (buffered plus
      unfetched backlog) exceed the bound, {!rank_step} force-resolves the
      oldest window instead of waiting for reassuring input, so memory
      stays bounded even when safety cannot be established.
    - {b Reorder slack} ([reorder_slack], default zero): with a non-zero
      slack every candidate additionally waits until all open streams have
      reported past [candidate.ts + slack], which restores exact
      offline equality when each stream's feed may be reordered by up to
      the slack (clamped to the skew allowance). *)

val create_online :
  window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:ablation ->
  ?straggler_timeout:Simnet.Sim_time.span ->
  ?max_buffered:int ->
  ?reorder_slack:Simnet.Sim_time.span ->
  has_mmap_send:(int -> bool) ->
  hosts:string list ->
  unit ->
  t

val feed : t -> Trace.Activity.t -> feed_result
(** Append one activity to its host's stream, interning it once. Never
    raises: malformed records are {!Quarantined} (counted per reason,
    logged in a bounded ring, never interned), and regressions within the
    skew allowance are {!Resorted} into place. *)

val close_input : t -> unit
(** No more activities will be fed; pending candidates become decidable. *)

type step =
  | Candidate of candidate
  | Need_input  (** Undecidable until more input is fed (or input closed). *)
  | Exhausted  (** All input consumed. *)

val rank_step : t -> step

val buffered : t -> int
(** Activities currently held in the ranker's queues. *)

val held : t -> int
(** Buffered activities plus the unfetched backlog — everything the
    ranker currently holds; the quantity bounded by [max_buffered] and
    the online peak-memory proxy. *)

val stragglers_active : t -> int
(** Open streams currently evicted as stragglers. *)

val quarantine_log : t -> (reject_reason * Trace.Activity.t) list
(** The most recent quarantined records (bounded ring; counts in
    {!stats} are exact even when the ring has wrapped). *)

val quarantined_total : t -> int

val stats : t -> stats
(** A copy of the ranker's counts. *)

val counts : t -> stats
(** The live counts record itself, for registry readers that must not
    hold the ranker (its queues and streams). Read it; never write it. *)

val register : Telemetry.Registry.t -> t -> unit
(** Export the counts as the [pt_ranker_*] metrics (docs/TELEMETRY.md):
    counters add across instances, [pt_ranker_peak_buffered] keeps the
    maximum. Call once per ranker. *)
