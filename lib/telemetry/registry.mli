(** The process-wide metric registry.

    Metrics are identified by name plus a (possibly empty) sorted label
    set, in the Prometheus data model: monotonic {e counters}, last-write
    {e gauges}, and log-bucketed {e histograms} ({!Histogram}).

    A metric reaches the registry one of two ways, never both:

    - {b Read-through fields.} A layer that keeps its own counts (the
      ranker, the CAG engine, a collection agent, ...) {!register}s, once
      per instance, a static table of {!field}s and the small mutable
      record holding those counts. {!snapshot} reads every registered
      record, so each count lives exactly once, in its layer. Samples of
      several instances with the same name and labels combine: {!count}s
      and {!level}s add, {!peak}s (high-water marks) take the maximum.
    - {b Handles} for metrics with no owning counts record: histograms,
      process-wide tallies (probe, intern tables, the simulator). Handles
      are resolved once — typically at component creation — and updating
      through a handle is one or two mutable-field writes, so hot paths
      (per-event, per-candidate) can afford it.

    [default] is the registry every pipeline component reports to unless
    handed another one; tests pass fresh registries to keep runs isolated.
    Registering the same name with two different metric kinds — or as
    both a handle and a read-through field — raises [Invalid_argument];
    re-resolving a handle of the same kind returns the existing handle (so
    components created repeatedly accumulate, which is what a
    whole-process self-profile wants).

    The registry is domain-safe: handle resolution, registration and
    snapshots are serialised on a per-registry mutex, counter/gauge
    updates are single atomic operations, and histograms serialise on
    their own lock. A registered counts record is written by the one
    domain that owns its layer instance and only read by {!snapshot}. *)

type t

val create : unit -> t

val default : t
(** The process-wide registry. *)

val reset : t -> unit
(** Drop every registered metric (for test isolation). *)

type counter
type gauge

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters only go up). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the high-water mark: [set] only if the value exceeds the current. *)

val gauge_value : gauge -> float

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets_per_decade:int -> string ->
  Histogram.t
val observe : Histogram.t -> float -> unit
(** Alias for {!Histogram.observe}, for call-site symmetry. *)

(** {1 Read-through fields} *)

type 'a field
(** How to read one metric off a layer's counts record ['a]. Field tables
    are static; the per-instance state is the record passed to
    {!register}. *)

val count : ?help:string -> ?labels:(string * string) list -> string -> ('a -> int) -> 'a field
(** A counter. Instances add. *)

val level : ?help:string -> ?labels:(string * string) list -> string -> ('a -> float) -> 'a field
(** A gauge for a current level (records held, streams evicted). Instances
    add. *)

val peak : ?help:string -> ?labels:(string * string) list -> string -> ('a -> float) -> 'a field
(** A gauge for a high-water mark. Instances take the maximum. *)

val register : t -> ?labels:(string * string) list -> 'a field list -> 'a -> unit
(** [register reg ~labels fields counts] adds one layer instance: every
    later {!snapshot} reads [counts] through [fields], with [labels]
    (e.g. the instance's host) added to each field's own labels. Readers
    must close over the counts record only — never over queues, logs or
    other run-sized state — so a registry outliving many runs retains a
    few words per run. *)

(** {1 Timer spans} *)

type span
(** A started named timer; stopping it observes the elapsed wall-clock
    seconds into the histogram it was started from. *)

val start_span : t -> ?labels:(string * string) list -> string -> span
val stop_span : span -> float
(** Returns the elapsed seconds (also recorded). Stopping twice records
    twice. *)

val time : t -> ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [time reg name f] runs [f] inside a span — the elapsed seconds are
    recorded even if [f] raises. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Hist of {
      count : int;
      sum : float;
      min_v : float;
      max_v : float;
      p50 : float;
      p90 : float;
      p99 : float;
      buckets : Histogram.bucket list;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; help : string; samples : sample list }

val snapshot : t -> family list
(** Families sorted by name; samples sorted by label set. Histogram fields
    and read-through fields are computed at snapshot time. *)

val find_sample : family list -> ?labels:(string * string) list -> string -> value option
(** Convenience lookup for tests and reports (labels default to []). *)
