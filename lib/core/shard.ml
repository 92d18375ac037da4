module Activity = Trace.Activity
module Log = Trace.Log
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module Pool = Parallel.Pool
module R = Telemetry.Registry

type plan = {
  hosts : string list;  (* hostname order of the prepared collection *)
  feed : (int * Activity.t) array;  (* (host index, activity), time-merged *)
  epochs : (int * int) array;  (* chosen [lo, hi) ranges over [feed] *)
  cut_candidates : int;
  prepared : Log.collection;
}

let epoch_ranges p = p.epochs
let cut_candidates p = p.cut_candidates

(* K-way merge of the per-host logs by [compare_by_time], ties broken by
   host index — deterministic, and it preserves each host's log order, so
   slicing the feed and re-bucketing by host yields contiguous, correctly
   ordered per-host sub-logs. *)
let merge_feed (prepared : Log.collection) =
  let streams = Array.of_list (List.map (fun l -> Array.of_list (Log.to_list l)) prepared) in
  let pos = Array.map (fun _ -> 0) streams in
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 streams in
  if n = 0 then [||]
  else begin
  let seed =
    let found = ref None in
    Array.iteri (fun h s -> if !found = None && Array.length s > 0 then found := Some (h, s.(0))) streams;
    Option.get !found
  in
  let feed = Array.make n seed in
  for out = 0 to n - 1 do
    let best = ref (-1) in
    Array.iteri
      (fun h s ->
        if pos.(h) < Array.length s then
          match !best with
          | -1 -> best := h
          | b when Activity.compare_by_time s.(pos.(h)) streams.(b).(pos.(b)) < 0 ->
              best := h
          | _ -> ())
      streams;
    let h = !best in
    feed.(out) <- (h, streams.(h).(pos.(h)));
    pos.(h) <- pos.(h) + 1
  done;
  feed
  end

let flow_key (f : Address.flow) =
  ( Address.ip_to_int f.Address.src.Address.ip,
    f.Address.src.Address.port,
    Address.ip_to_int f.Address.dst.Address.ip,
    f.Address.dst.Address.port )

(* One sweep over the merged feed: a boundary after index [i] is a valid
   cut when no request is open, every flow is byte-balanced (every SEND
   chunk fully received — which also brackets skew-displaced activities),
   and the gap to the next activity is at least [margin].

   "No request open" tracks the set of open entry flows, not a BEGIN/END
   count: a chunked response emits one BEGIN but several END activities
   (the engine folds trailing chunks into the END vertex), so a counter
   would drift negative and block every later cut. A flow opens at its
   BEGIN and closes at its first END; trailing END chunks are no-ops.
   Closing at the first chunk is safe because a cut also needs a
   [margin]-wide silent gap, and the chunks of one response sit closer
   together than the correlation window the margin defaults to — the same
   temporal-proximity assumption the sliding-window ranker itself makes.
   A flow whose END is lost (probe death) stays open forever and blocks
   all later cuts: degraded feeds shard less instead of sharding wrong. *)
let find_cuts ~margin feed =
  let n = Array.length feed in
  let open_entry = Hashtbl.create 64 in
  let open_requests = ref 0 in
  let balances = Hashtbl.create 1024 in
  let unbalanced = ref 0 in
  let adjust flow delta =
    let key = flow_key flow in
    let cur = Option.value ~default:0 (Hashtbl.find_opt balances key) in
    let next = cur + delta in
    if cur = 0 && next <> 0 then incr unbalanced
    else if cur <> 0 && next = 0 then decr unbalanced;
    Hashtbl.replace balances key next
  in
  let cuts = ref [] in
  for i = 0 to n - 1 do
    let _, (a : Activity.t) = feed.(i) in
    (* BEGIN is the client's receive (flow client->entry), END the reply
       send (flow entry->client): swap END's flow so both key on the
       (client, entry) orientation. *)
    (match a.Activity.kind with
    | Activity.Begin ->
        let key = flow_key a.message.flow in
        if not (Hashtbl.mem open_entry key) then begin
          Hashtbl.replace open_entry key ();
          incr open_requests
        end
    | Activity.End_ ->
        let f = a.Activity.message.Activity.flow in
        let key = flow_key { Address.src = f.Address.dst; dst = f.Address.src } in
        if Hashtbl.mem open_entry key then begin
          Hashtbl.remove open_entry key;
          decr open_requests
        end
    | Activity.Send -> adjust a.message.flow a.message.size
    | Activity.Receive -> adjust a.message.flow (-a.message.size));
    if !open_requests = 0 && !unbalanced = 0 && i + 1 < n then begin
      let _, (b : Activity.t) = feed.(i + 1) in
      let gap = Sim_time.diff b.Activity.timestamp a.Activity.timestamp in
      if Sim_time.compare_span gap margin >= 0 then cuts := i :: !cuts
    end
  done;
  List.rev !cuts

(* Coalesce candidate cuts down to roughly [target_epochs] ranges of
   similar record counts, so tiny epochs do not drown the win in
   per-epoch ranker/engine setup. *)
let choose_epochs ~target_epochs ~n cuts =
  let chunk = max 1 (n / max 1 target_epochs) in
  let boundaries =
    List.filter
      (let last = ref 0 in
       fun i ->
         if i + 1 - !last >= chunk then begin
           last := i + 1;
           true
         end
         else false)
      cuts
  in
  let rec ranges lo = function
    | [] -> if lo < n || n = 0 then [ (lo, n) ] else []
    | b :: rest -> (lo, b + 1) :: ranges (b + 1) rest
  in
  Array.of_list (ranges 0 boundaries)

let make_plan ~margin ~target_epochs prepared =
  let feed = merge_feed prepared in
  let cuts = find_cuts ~margin feed in
  let epochs = choose_epochs ~target_epochs ~n:(Array.length feed) cuts in
  {
    hosts = List.map Log.hostname prepared;
    feed;
    epochs;
    cut_candidates = List.length cuts;
    prepared;
  }

let plan ?cut_margin ?(target_epochs = 64) (cfg : Correlator.config) collection =
  let margin = Option.value cut_margin ~default:cfg.Correlator.window in
  make_plan ~margin ~target_epochs (Transform.apply cfg.Correlator.transform collection)

(* Every epoch keeps the full host list (possibly with empty logs), so
   ranker stream indexing matches the serial run's. *)
let epoch_collection p (lo, hi) =
  let buckets = Array.make (List.length p.hosts) [] in
  for i = hi - 1 downto lo do
    let h, a = p.feed.(i) in
    buckets.(h) <- a :: buckets.(h)
  done;
  List.mapi (fun h hostname -> Log.of_list ~hostname buckets.(h)) p.hosts

let merge_ranker (a : Ranker.stats) (b : Ranker.stats) : Ranker.stats =
  let merge_quarantined qa qb =
    List.fold_left
      (fun acc (reason, n) ->
        let prev = Option.value ~default:0 (List.assoc_opt reason acc) in
        (reason, prev + n) :: List.remove_assoc reason acc)
      qa qb
  in
  {
    fetched = a.fetched + b.fetched;
    candidates = a.candidates + b.candidates;
    noise_discarded = a.noise_discarded + b.noise_discarded;
    promotions = a.promotions + b.promotions;
    forced_fetches = a.forced_fetches + b.forced_fetches;
    forced_discards = a.forced_discards + b.forced_discards;
    peak_buffered = max a.peak_buffered b.peak_buffered;
    resorted = a.resorted + b.resorted;
    quarantined = merge_quarantined a.quarantined b.quarantined;
    stragglers_evicted = a.stragglers_evicted + b.stragglers_evicted;
    straggler_resyncs = a.straggler_resyncs + b.straggler_resyncs;
    backpressure_pops = a.backpressure_pops + b.backpressure_pops;
    stragglers_active = a.stragglers_active + b.stragglers_active;
  }

let merge_engine (a : Cag_engine.stats) (b : Cag_engine.stats) : Cag_engine.stats =
  {
    cags_started = a.cags_started + b.cags_started;
    cags_finished = a.cags_finished + b.cags_finished;
    send_merges = a.send_merges + b.send_merges;
    end_merges = a.end_merges + b.end_merges;
    receive_merges = a.receive_merges + b.receive_merges;
    partial_receives = a.partial_receives + b.partial_receives;
    unmatched_receives = a.unmatched_receives + b.unmatched_receives;
    thread_reuse_blocked = a.thread_reuse_blocked + b.thread_reuse_blocked;
    orphans = a.orphans + b.orphans;
    crossed_boundaries = a.crossed_boundaries + b.crossed_boundaries;
    mmap_entries = a.mmap_entries + b.mmap_entries;
    live_vertices = a.live_vertices + b.live_vertices;
    peak_live_vertices = max a.peak_live_vertices b.peak_live_vertices;
    evicted_sends = a.evicted_sends + b.evicted_sends;
  }

(* Re-key every epoch's CAG ids by the running [cags_started] offset.
   Serial ids are assigned in BEGIN correlation order, and all of epoch
   k's BEGINs are correlated before any of epoch k+1's, so the re-keyed
   ids equal the serial ones. *)
let merge_results ~started (results : Correlator.result array) : Correlator.result =
  let offset = ref 0 in
  Array.iter
    (fun (r : Correlator.result) ->
      let shift (c : Cag.t) = Cag.Builder.renumber c ~cag_id:(!offset + c.Cag.cag_id) in
      List.iter shift r.Correlator.cags;
      List.iter shift r.Correlator.deformed;
      offset := !offset + r.Correlator.engine_stats.Cag_engine.cags_started)
    results;
  let parts = Array.to_list results in
  let concat f = List.concat_map f parts in
  let fold f init get = List.fold_left (fun acc r -> f acc (get r)) init parts in
  match parts with
  | [] -> invalid_arg "Shard.merge_results: no epochs"
  | first :: rest ->
      {
        Correlator.cags = concat (fun r -> r.Correlator.cags);
        deformed = concat (fun r -> r.Correlator.deformed);
        ranker_stats =
          List.fold_left
            (fun acc r -> merge_ranker acc r.Correlator.ranker_stats)
            first.Correlator.ranker_stats rest;
        engine_stats =
          List.fold_left
            (fun acc r -> merge_engine acc r.Correlator.engine_stats)
            first.Correlator.engine_stats rest;
        correlation_time = Unix.gettimeofday () -. started;
        peak_memory_proxy = fold max 0 (fun r -> r.Correlator.peak_memory_proxy);
        memory_bytes_estimate = fold max 0 (fun r -> r.Correlator.memory_bytes_estimate);
      }

let resolve_jobs jobs pool =
  match (jobs, pool) with
  | Some j, _ -> max 1 j
  | None, Some p -> Pool.size p
  | None, None -> Pool.default_jobs ()

(* The sharded pipeline after the transform: plan, correlate each epoch in
   a worker domain, merge. Shared by the record-path and native-path
   front-ends, which differ only in how [prepared] was produced. *)
let correlate_sharded ~telemetry ~started ?pool ~jobs ?cut_margin (cfg : Correlator.config)
    prepared =
  begin
    let margin = Option.value cut_margin ~default:cfg.Correlator.window in
    let p =
      R.time telemetry ~labels:[ ("stage", "plan") ] "pt_parallel_stage_seconds" (fun () ->
          make_plan ~margin ~target_epochs:(jobs * 4) prepared)
    in
    R.set
      (R.gauge telemetry ~help:"Worker domains of the last sharded correlation"
         "pt_parallel_jobs")
      (float_of_int jobs);
    R.add
      (R.counter telemetry ~help:"Epochs correlated by the sharded correlator"
         "pt_parallel_epochs_total")
      (Array.length p.epochs);
    R.add
      (R.counter telemetry ~help:"Request-quiescent cut points found before coalescing"
         "pt_parallel_cut_points_total")
      p.cut_candidates;
    if Array.length p.epochs <= 1 then
      (* Nothing to shard (one epoch): identical to the serial path. *)
      Correlator.correlate_prepared ~telemetry ~started cfg prepared ~on_path:(fun _ -> ())
    else begin
      let epoch_records =
        R.histogram telemetry ~help:"Records per sharded-correlation epoch"
          "pt_parallel_epoch_records"
      in
      let run_epoch i =
        let sub = epoch_collection p p.epochs.(i) in
        Telemetry.Histogram.observe epoch_records (float_of_int (Log.total sub));
        Correlator.correlate_prepared ~telemetry cfg sub ~on_path:(fun _ -> ())
      in
      let results =
        R.time telemetry ~labels:[ ("stage", "correlate") ] "pt_parallel_stage_seconds"
          (fun () ->
            match pool with
            | Some pl -> Pool.map pl ~n:(Array.length p.epochs) run_epoch
            | None ->
                Pool.with_pool ~jobs (fun pl -> Pool.map pl ~n:(Array.length p.epochs) run_epoch))
      in
      R.time telemetry ~labels:[ ("stage", "merge") ] "pt_parallel_stage_seconds" (fun () ->
          merge_results ~started results)
    end
  end

let correlate ?(telemetry = R.default) ?pool ?jobs ?cut_margin (cfg : Correlator.config)
    collection =
  let jobs = resolve_jobs jobs pool in
  if jobs <= 1 then Correlator.correlate ~telemetry cfg collection
  else begin
    let started = Unix.gettimeofday () in
    let prepared =
      R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds"
        (fun () -> Transform.apply cfg.Correlator.transform collection)
    in
    correlate_sharded ~telemetry ~started ?pool ~jobs ?cut_margin cfg prepared
  end

let correlate_arena ?(telemetry = R.default) ?pool ?jobs ?cut_margin
    (cfg : Correlator.config) arenas =
  let jobs = resolve_jobs jobs pool in
  if jobs <= 1 then Correlator.correlate_arena ~telemetry cfg arenas
  else begin
    let started = Unix.gettimeofday () in
    let prepared =
      R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds"
        (fun () -> Trace.Arena.to_collection (Transform.apply_native cfg.Correlator.transform arenas))
    in
    correlate_sharded ~telemetry ~started ?pool ~jobs ?cut_margin cfg prepared
  end

(* The digest preimage lives in {!Hierarchy.render} now, shared with the
   hierarchical root's identity check; the bytes are unchanged. Ids are
   digested as stored — for the sharded-vs-serial comparison they must
   match without any canonical re-keying. *)
let digest (result : Correlator.result) =
  Digest.to_hex
    (Digest.string
       (Hierarchy.render ~finished:result.Correlator.cags
          ~deformed:result.Correlator.deformed))
