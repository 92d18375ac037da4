module Activity = Trace.Activity
module Arena = Trace.Arena
module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

(* Nameable default so the arena path can detect "nobody is listening"
   physically and skip materialising filtered-out rows just to tee them. *)
let default_on_activity (_ : Trace.Activity.t) = ()

(* The online run's own counts, plus the ranker's for the live pending
   depth and straggler level. *)
type counts = {
  ranker_counts : Ranker.stats;
  mutable accepted : int;
  mutable deformed_paths : int;
  mutable peak_held : int;
}

let pending_of c =
  let r = c.ranker_counts in
  c.accepted - r.Ranker.candidates - r.Ranker.noise_discarded

let fields =
  [
    R.count ~help:"Activities accepted by the online correlator" "pt_online_observed_total"
      (fun c -> c.accepted);
    R.count ~help:"Paths completed under degraded conditions and flagged deformed"
      "pt_online_deformed_paths_total" (fun c -> c.deformed_paths);
    R.level ~help:"Activities accepted but not yet resolved" "pt_online_pending" (fun c ->
        float_of_int (pending_of c));
    R.level ~help:"Streams currently evicted as stragglers" "pt_online_stragglers_active"
      (fun c -> float_of_int c.ranker_counts.Ranker.stragglers_active);
    R.peak ~help:"Peak simultaneously-held records online (ranker + engine)"
      "pt_online_peak_memory_records" (fun c -> float_of_int c.peak_held);
  ]

type t = {
  transform : Transform.config;
  tmemo : Transform.memo;  (* per-id transform decisions for {!observe_arena} *)
  on_activity : Trace.Activity.t -> unit;
  ranker : Ranker.t;
  engine : Cag_engine.t;
  skew_allowance : Sim_time.span;
  c : counts;
  mutable watermark : Sim_time.t;  (* latest fed local timestamp, any host *)
  m_lag : Telemetry.Histogram.t;
}

let note_held t =
  let held =
    Ranker.held t.ranker + Cag_engine.live_vertices t.engine + Cag_engine.mmap_entries t.engine
  in
  if held > t.c.peak_held then t.c.peak_held <- held

let drain t =
  let rec loop () =
    match Ranker.rank_step t.ranker with
    | Ranker.Candidate { activity = a; ctx; flow } ->
        Cag_engine.step_ids t.engine ~ctx ~flow a;
        (* Periodically evict unmatched sends that can no longer match,
           with the horizon clamped at the trace origin (matchable SENDs
           at trace start must survive early GC rounds). *)
        if t.c.ranker_counts.Ranker.candidates land 0xfff = 0 then begin
          let horizon =
            Sim_time.max Sim_time.zero
              (Sim_time.add a.Activity.timestamp
                 (Sim_time.span_scale (-2.0) t.skew_allowance))
          in
          ignore (Cag_engine.gc t.engine ~older_than:horizon)
        end;
        loop ()
    | Ranker.Need_input | Ranker.Exhausted -> ()
  in
  loop ()

let pending t = pending_of t.c

let create ~config ~hosts ?straggler_timeout ?max_buffered ?reorder_slack
    ?(on_path = fun _ -> ()) ?(on_activity = default_on_activity) ?(telemetry = R.default) () =
  let holder = ref None in
  let engine =
    Cag_engine.create
      ~on_finished:(fun cag ->
        (match !holder with
        | Some t ->
            (* A path completing while some stream is evicted as a
               straggler may be missing that stream's activities: flag it
               deformed so consumers can weigh it. *)
            if Ranker.stragglers_active t.ranker > 0 || Cag.is_deformed cag then begin
              Cag.Builder.mark_deformed cag;
              t.c.deformed_paths <- t.c.deformed_paths + 1
            end;
            (* Completion lag: how far the feed watermark has run past the
               path's END when the path pops out — the "bounded lag" the
               online mode promises. *)
            let lag = Sim_time.span_to_float_s (Sim_time.diff t.watermark (Cag.end_ts cag)) in
            Telemetry.Histogram.observe t.m_lag (Float.max 0.0 lag)
        | None -> ());
        on_path cag)
      ()
  in
  let ranker =
    Ranker.create_online ~window:config.Correlator.window
      ~skew_allowance:config.Correlator.skew_allowance
      ~ablation:config.Correlator.ablation ?straggler_timeout ?max_buffered ?reorder_slack
      ~has_mmap_send:(Cag_engine.has_mmap_send engine)
      ~hosts ()
  in
  let t =
    {
      transform = config.Correlator.transform;
      tmemo = Transform.memo config.Correlator.transform;
      on_activity;
      ranker;
      engine;
      skew_allowance = config.Correlator.skew_allowance;
      c =
        { ranker_counts = Ranker.counts ranker; accepted = 0; deformed_paths = 0; peak_held = 0 };
      watermark = Sim_time.zero;
      m_lag =
        R.histogram telemetry
          ~help:"Feed-watermark lead over a completing path's END, virtual seconds"
          "pt_online_path_lag_seconds";
    }
  in
  holder := Some t;
  R.register telemetry fields t.c;
  Ranker.register telemetry ranker;
  Cag_engine.register telemetry engine;
  t

let feed_classified t activity =
  match Ranker.feed t.ranker activity with
  | Ranker.Quarantined _ ->
      (* Never raises — not even after [finish] or on garbage input; the
         ranker counts the record and keeps it for inspection instead. *)
      ()
  | Ranker.Accepted | Ranker.Resorted ->
      t.c.accepted <- t.c.accepted + 1;
      if Sim_time.(activity.Activity.timestamp > t.watermark) then
        t.watermark <- activity.Activity.timestamp;
      drain t;
      note_held t

let observe t raw =
  t.on_activity raw;
  match Transform.classify t.transform raw with
  | None -> ()
  | Some activity -> feed_classified t activity

(* Row [i] as an activity record carrying the transform's rewritten kind.
   The canonical interned context/flow are shared, so a kept row costs two
   blocks (three when the kind was rewritten). *)
let materialize_row arena i k =
  let a = Arena.get arena i in
  if Activity.kind_to_code a.Activity.kind = k then a
  else
    match Activity.kind_of_code k with
    | Some kind -> { a with Activity.kind }
    | None -> a (* unreachable: classify_row only returns valid codes *)

let observe_arena t arena =
  (* Filtered-out rows only need materialising when a tee listener wants
     the raw record. *)
  let tee = t.on_activity != default_on_activity in
  for i = 0 to Arena.length arena - 1 do
    let k = Transform.classify_row t.tmemo arena i in
    if tee then t.on_activity (Arena.get arena i);
    if k >= 0 then feed_classified t (materialize_row arena i k)
  done

let finish t =
  Ranker.close_input t.ranker;
  drain t;
  note_held t

let paths t = Cag_engine.finished t.engine
let deformed t = Cag_engine.unfinished t.engine
let ranker_stats t = Ranker.stats t.ranker
let engine_stats t = Cag_engine.stats t.engine
let quarantine_log t = Ranker.quarantine_log t.ranker
let stragglers_active t = Ranker.stragglers_active t.ranker

let attach ~config ~probe ~hosts ?straggler_timeout ?max_buffered ?reorder_slack ?on_path
    ?on_activity ?telemetry () =
  let t =
    create ~config ~hosts ?straggler_timeout ?max_buffered ?reorder_slack ?on_path
      ?on_activity ?telemetry ()
  in
  Trace.Probe.add_listener probe (observe t);
  t
