module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

type config = {
  transform : Transform.config;
  window : Sim_time.span;
  skew_allowance : Sim_time.span;
  ablation : Ranker.ablation;
}

let config ~transform ?(window = Sim_time.ms 10) ?(skew_allowance = Sim_time.sec 1)
    ?(ablation = Ranker.no_ablation) () =
  { transform; window; skew_allowance; ablation }

type result = {
  cags : Cag.t list;
  deformed : Cag.t list;
  ranker_stats : Ranker.stats;
  engine_stats : Cag_engine.stats;
  correlation_time : float;
  peak_memory_proxy : int;
  memory_bytes_estimate : int;
}

(* Rough per-record footprint: an activity record plus its share of queue,
   index-map and vertex overhead, in bytes. Used only to scale the memory
   proxy into familiar units. *)
let bytes_per_record = 160

(* The run's own counts; the path counts are read off the engine's. *)
type counts = { activities : int; engine : Cag_engine.stats; mutable peak_held : int }

let fields =
  let paths state read =
    R.count ~help:"Causal paths produced" ~labels:[ ("state", state) ] "pt_correlator_paths_total"
      read
  in
  [
    R.count ~help:"Activities entering the correlator after transform"
      "pt_correlator_activities_total" (fun c -> c.activities);
    paths "finished" (fun c -> c.engine.Cag_engine.cags_finished);
    (* a CAG begun but never finished is a deformed path *)
    paths "deformed" (fun c ->
        c.engine.Cag_engine.cags_started - c.engine.Cag_engine.cags_finished);
    R.peak ~help:"Peak simultaneously-held records (Fig. 11 memory proxy)"
      "pt_correlator_peak_memory_records" (fun c -> float_of_int c.peak_held);
  ]

(* The rank/step/gc loop over an already-transformed collection — shared
   between the serial pipeline and the sharded correlator, which runs it
   once per epoch in a worker domain. *)
let correlate_prepared ?(telemetry = R.default) ?started cfg prepared ~on_path =
  let t0 = match started with Some t -> t | None -> Unix.gettimeofday () in
  let occupancy =
    R.histogram telemetry
      ~help:"Ranker window occupancy (buffered activities), sampled per candidate"
      "pt_correlator_window_occupancy"
  in
  let engine = Cag_engine.create ~on_finished:on_path () in
  let counts =
    { activities = Trace.Log.total prepared; engine = Cag_engine.counts engine; peak_held = 0 }
  in
  let ranker =
    Ranker.create ~window:cfg.window ~skew_allowance:cfg.skew_allowance
      ~ablation:cfg.ablation
      ~has_mmap_send:(Cag_engine.has_mmap_send engine)
      prepared
  in
  R.register telemetry fields counts;
  Ranker.register telemetry ranker;
  Cag_engine.register telemetry engine;
  let rec loop () =
    match Ranker.rank_step ranker with
    | Ranker.Need_input | Ranker.Exhausted -> ()
    | Ranker.Candidate { activity; ctx; flow } ->
        Cag_engine.step_ids engine ~ctx ~flow activity;
        Telemetry.Histogram.observe occupancy (float_of_int (Ranker.buffered ranker));
        (* Periodically evict unmatched sends that can no longer match:
           anything older than twice the skew allowance behind the
           correlation frontier. *)
        if (Ranker.counts ranker).Ranker.candidates land 0xfff = 0 then begin
          (* Clamp at the trace origin: early activities would otherwise
             yield a negative horizon, and a SEND stamped exactly at time
             zero must never be evicted while still matchable. *)
          let horizon =
            Sim_time.max Sim_time.zero
              (Sim_time.add activity.Trace.Activity.timestamp
                 (Sim_time.span_scale (-2.0) cfg.skew_allowance))
          in
          ignore (Cag_engine.gc engine ~older_than:horizon)
        end;
        let held =
          Ranker.buffered ranker + Cag_engine.live_vertices engine
          + Cag_engine.mmap_entries engine
        in
        if held > counts.peak_held then counts.peak_held <- held;
        loop ()
  in
  R.time telemetry ~labels:[ ("stage", "rank_correlate") ] "pt_correlator_stage_seconds" loop;
  let correlation_time = Unix.gettimeofday () -. t0 in
  {
    cags = Cag_engine.finished engine;
    deformed = Cag_engine.unfinished engine;
    ranker_stats = Ranker.stats ranker;
    engine_stats = Cag_engine.stats engine;
    correlation_time;
    peak_memory_proxy = counts.peak_held;
    memory_bytes_estimate = counts.peak_held * bytes_per_record;
  }

let ignore_path (_ : Cag.t) = ()

let correlate ?(telemetry = R.default) ?(on_path = ignore_path) cfg collection =
  let started = Unix.gettimeofday () in
  let prepared =
    R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds" (fun () ->
        Transform.apply cfg.transform collection)
  in
  correlate_prepared ~telemetry ~started cfg prepared ~on_path

(* Native entry: transform in the arena representation (memoised per
   interned id), then materialise once for the ranker. The transformed
   arenas preserve append order, so [to_collection] appends straight into
   sorted logs without a re-sort. *)
let correlate_arena ?(telemetry = R.default) ?(on_path = ignore_path) cfg arenas =
  let started = Unix.gettimeofday () in
  let prepared =
    R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds" (fun () ->
        Trace.Arena.to_collection (Transform.apply_native cfg.transform arenas))
  in
  correlate_prepared ~telemetry ~started cfg prepared ~on_path
