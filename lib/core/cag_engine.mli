(** The engine: constructing CAGs from ranked candidates (§4.2, Fig. 3).

    The engine owns the two index maps of the paper:

    - [mmap] maps a message identifier (the connection 4-tuple, oriented
      sender->receiver) to the outstanding unmatched SEND vertices of that
      flow, in FIFO order;
    - [cmap] maps a context identifier to the latest activity vertex
      observed in that execution entity.

    Candidates are handled by activity type, following the paper's
    pseudo-code, with the clarifications listed in DESIGN.md: consecutive
    SENDs merge only when they continue the {e same flow}; multi-part
    responses merge consecutive ENDs likewise; a RECEIVE joins its CAG
    only once the accumulated received bytes cover the (merged) SEND — the
    n-to-n matching of the paper's Fig. 4; and the two-parent rule for
    RECEIVE applies the thread-reuse check: the context edge is added only
    when both parents already lie in the same CAG. *)

(** The engine's counts. Each engine updates one such record in place;
    {!stats} returns a copy. *)
type stats = {
  mutable cags_started : int;
  mutable cags_finished : int;
  mutable send_merges : int;  (** SEND syscalls folded into an earlier SEND vertex. *)
  mutable end_merges : int;  (** END syscalls folded into an earlier END vertex. *)
  mutable receive_merges : int;
      (** RECEIVE completions folded into an existing RECEIVE vertex whose
          SEND grew after first being fully matched (Rule 1 can deliver a
          receive ahead of the sender's continuation syscalls). *)
  mutable partial_receives : int;  (** RECEIVEs that left a SEND partly unmatched. *)
  mutable unmatched_receives : int;
      (** RECEIVEs with no mmap entry (noise slipping past the ranker, or
          loss). *)
  mutable thread_reuse_blocked : int;
      (** Context edges suppressed because the parents lay in different
          CAGs (recycled thread serving a new request). *)
  mutable orphans : int;  (** Vertices correlated outside any CAG. *)
  mutable crossed_boundaries : int;
      (** RECEIVEs spanning two logical messages; impossible under the
          request/response discipline, counted defensively. *)
  mutable mmap_entries : int;  (** Outstanding SEND vertices right now. *)
  mutable live_vertices : int;  (** Vertices of unfinished CAGs plus orphans. *)
  mutable peak_live_vertices : int;
  mutable evicted_sends : int;
      (** SEND vertices still attached to a CAG when {!gc} evicted them.
          Their owning open CAG is flagged deformed (it would otherwise
          stay unfinished and uncounted forever). *)
}

type t

val create : ?on_finished:(Cag.t -> unit) -> unit -> t
(** [on_finished] fires as each CAG completes (its END correlated). *)

val has_mmap_send : t -> int -> bool
(** Rule 1's probe, by {!Trace.Intern.flow_id}; wire this into
    {!Ranker.create}. *)

val step_ids : t -> ctx:int -> flow:int -> Trace.Activity.t -> unit
(** Correlate one candidate, given its {!Trace.Intern} context and flow
    ids — the ones {!Ranker.rank_step} hands over with it
    ({!Ranker.candidate}), so the engine itself never interns. [flow] is
    ignored for BEGIN/END candidates (pass [-1]). Candidates must arrive
    in ranker order. *)

val finished : t -> Cag.t list
(** Completed CAGs, in completion order. *)

val unfinished : t -> Cag.t list
(** CAGs begun but not yet (or never) completed — deformed paths under
    activity loss. *)

val stats : t -> stats
(** A copy of the engine's counts. *)

val counts : t -> stats
(** The live counts record itself, for registry readers that must not
    hold the engine (its maps and CAGs). Read it; never write it. *)

val register : Telemetry.Registry.t -> t -> unit
(** Export the counts as the [pt_engine_*] metrics (docs/TELEMETRY.md),
    read by the registry at snapshot time: counters and the
    [mmap_entries]/[live_vertices] levels add across instances,
    [pt_engine_peak_live_vertices] keeps the maximum. Call once per
    engine. *)

val live_vertices : t -> int
val mmap_entries : t -> int
(** Cheap accessors for per-step memory sampling (see {!Correlator}). *)

val gc : t -> older_than:Simnet.Sim_time.t -> int
(** Evict [mmap] entries whose SEND timestamp precedes [older_than] and
    returns how many were dropped. Unmatched sends accumulate on long
    traces (responses to noise clients whose receives were filtered
    out); by the ranker's contract, a receive arriving more than the
    skew allowance after its send is noise anyway, so evicting past
    [current time - allowance] never costs a correlation. Orphan sends
    evicted this way also leave the live-vertex count. *)
