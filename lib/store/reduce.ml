module Activity = Trace.Activity
module Arena = Trace.Arena
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time
module Rng = Simnet.Rng
module Cag = Core.Cag
module R = Telemetry.Registry

type stats = {
  activities_before : int;
  activities_after : int;
  bytes_before : int;
  bytes_after : int;
  requests_total : int;
  requests_kept : int;
  non_causal : int;
  effective_p : float;
}

let ratio s =
  if s.bytes_after = 0 then Float.infinity
  else float_of_int s.bytes_before /. float_of_int s.bytes_after

let sampled_share s =
  if s.requests_total = 0 then 1.0
  else float_of_int s.requests_kept /. float_of_int s.requests_total

let pp_stats ppf s =
  Format.fprintf ppf
    "%d -> %d activities, %d -> %d bytes (%.1fx); %d/%d requests kept (p=%.3f), %d non-causal"
    s.activities_before s.activities_after s.bytes_before s.bytes_after (ratio s)
    s.requests_kept s.requests_total s.effective_p s.non_causal

(* Exact attribution key: a raw row and the CAG vertex built from it
   share timestamp, context and flow (the engine may rewrite kind and
   size, never these). Context and flow are process-wide interned ids, so
   a row is looked up from its columns without materialising it. *)
let vertex_key (a : Activity.t) =
  ( Sim_time.to_ns a.Activity.timestamp,
    Intern.context_id a.Activity.context,
    Intern.flow_id a.Activity.message.flow )

type attribution = {
  exact : (int * int * int, int) Hashtbl.t;
  intervals : (int, (int * int * int) list) Hashtbl.t;
      (* context id -> (request index, lo_ns, hi_ns), sorted by lo. *)
}

let attribute requests =
  let exact = Hashtbl.create 4096 in
  let by_ctx : (int * int, int ref * int ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun idx cag ->
      List.iter
        (fun (v : Cag.vertex) ->
          let ((ts, ctx, _) as key) = vertex_key v.Cag.activity in
          Hashtbl.replace exact key idx;
          match Hashtbl.find_opt by_ctx (ctx, idx) with
          | Some (lo, hi) ->
              if ts < !lo then lo := ts;
              if ts > !hi then hi := ts
          | None -> Hashtbl.replace by_ctx (ctx, idx) (ref ts, ref ts))
        (Cag.vertices cag))
    requests;
  let intervals = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (ctx, idx) (lo, hi) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt intervals ctx) in
      Hashtbl.replace intervals ctx ((idx, !lo, !hi) :: prev))
    by_ctx;
  Hashtbl.iter
    (fun ctx spans ->
      Hashtbl.replace intervals ctx
        (List.sort (fun (_, lo1, _) (_, lo2, _) -> compare lo1 lo2) spans))
    intervals;
  { exact; intervals }

let request_of attribution arena i =
  let ts = Arena.ts arena i and ctx = Arena.ctx_id arena i in
  match Hashtbl.find_opt attribution.exact (ts, ctx, Arena.flow_id arena i) with
  | Some idx -> Some idx
  | None -> (
      match Hashtbl.find_opt attribution.intervals ctx with
      | None -> None
      | Some spans ->
          List.find_map
            (fun (idx, lo, hi) -> if ts >= lo && ts <= hi then Some idx else None)
            spans)

let time_span_s arenas =
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun arena ->
      match Arena.time_bounds arena with
      | None -> ()
      | Some (a, b) ->
          lo := min !lo (Sim_time.to_ns a);
          hi := max !hi (Sim_time.to_ns b))
    arenas;
  if !hi <= !lo then 0.0 else float_of_int (!hi - !lo) /. 1e9

(* Fill [keep] (one slot per request, BEGIN-time order) according to the
   sampling mode; returns the per-request keep probability used. *)
let keep_mask ~sampling ~causal_activities ~bytes_before ~activities_before ~span_s keep =
  let probabilistic ~p ~seed =
    let rng = Rng.create ~seed in
    Array.iteri (fun i _ -> keep.(i) <- Rng.bernoulli rng ~p) keep;
    p
  in
  match sampling with
  | Policy.Keep_all -> 1.0
  | Policy.Head limit ->
      Array.iteri (fun i _ -> keep.(i) <- i < limit) keep;
      1.0
  | Policy.Probabilistic { p; seed } -> probabilistic ~p ~seed
  | Policy.Adaptive { budget_bytes_per_s; seed } ->
      let bytes_per_activity =
        if activities_before = 0 then 0.0
        else float_of_int bytes_before /. float_of_int activities_before
      in
      let causal_bytes = bytes_per_activity *. float_of_int causal_activities in
      let target = budget_bytes_per_s *. span_s in
      let p =
        if causal_bytes <= 0.0 || span_s <= 0.0 then 1.0
        else Float.min 1.0 (target /. causal_bytes)
      in
      probabilistic ~p ~seed

let record_telemetry telemetry stats =
  let counter help name = R.counter telemetry ~help name in
  R.add (counter "Raw bytes entering reduction" "pt_store_reduce_bytes_before_total")
    stats.bytes_before;
  R.add (counter "Bytes surviving reduction" "pt_store_reduce_bytes_after_total")
    stats.bytes_after;
  R.add (counter "Requests seen by reduction" "pt_store_reduce_requests_seen_total")
    stats.requests_total;
  R.add (counter "Requests kept by sampling" "pt_store_reduce_requests_kept_total")
    stats.requests_kept;
  R.add
    (counter "Activities removed by reduction" "pt_store_reduce_activities_dropped_total")
    (stats.activities_before - stats.activities_after);
  R.set
    (R.gauge telemetry ~help:"Per-request keep probability of the last reduction"
       "pt_store_reduce_effective_p")
    stats.effective_p

let apply ?(telemetry = R.default) ?pool ?jobs ~correlate ~policy arenas =
  let activities_before = Arena.total arenas in
  let bytes_before = String.length (Trace.Binary_format.encode_native arenas) in
  if Policy.is_none policy || activities_before = 0 then begin
    let stats =
      {
        activities_before;
        activities_after = activities_before;
        bytes_before;
        bytes_after = bytes_before;
        requests_total = 0;
        requests_kept = 0;
        non_causal = 0;
        effective_p = 1.0;
      }
    in
    record_telemetry telemetry stats;
    (arenas, stats)
  end
  else begin
    let filtered =
      match policy.Policy.drop_programs with
      | [] -> arenas
      | drop ->
          let dropped = Hashtbl.create 64 in
          let keep arena i =
            let ctx = Arena.ctx_id arena i in
            match Hashtbl.find_opt dropped ctx with
            | Some d -> not d
            | None ->
                let d = List.mem (Intern.context_of_id ctx).Activity.program drop in
                Hashtbl.add dropped ctx d;
                not d
          in
          List.map (fun arena -> Arena.filter arena (keep arena)) arenas
    in
    (* Throwaway correlation purely for attribution: a private registry
       keeps it out of the pipeline's own self-profile. *)
    let result = Core.Correlator.correlate_arena ~telemetry:(R.create ()) correlate filtered in
    let requests =
      List.sort
        (fun a b ->
          match Sim_time.compare (Cag.begin_ts a) (Cag.begin_ts b) with
          | 0 -> compare a.Cag.cag_id b.Cag.cag_id
          | c -> c)
        (result.Core.Correlator.cags @ result.Core.Correlator.deformed)
      |> Array.of_list
    in
    let attribution = attribute requests in
    (* The attribution tables are read-only from here on, so worker
       domains can look rows up concurrently. Both passes below
       (attribution counting, then the keep/drop filter) go per-arena
       through the pool; results are keyed by arena index, so the reduced
       batch is identical at any [jobs]. *)
    let logs = Array.of_list filtered in
    let nlogs = Array.length logs in
    let run_passes pool_opt =
      let pmap f =
        match pool_opt with
        | Some p -> Parallel.Pool.map p ~n:nlogs f
        | None -> Array.init nlogs f
      in
      let counts =
        pmap (fun i ->
            let causal = ref 0 and non = ref 0 in
            Arena.iteri_rows logs.(i) (fun r ->
                match request_of attribution logs.(i) r with
                | Some _ -> incr causal
                | None -> incr non);
            (!causal, !non))
      in
      let causal_activities = Array.fold_left (fun acc (c, _) -> acc + c) 0 counts in
      let non_causal = Array.fold_left (fun acc (_, n) -> acc + n) 0 counts in
      let keep = Array.make (Array.length requests) true in
      let effective_p =
        keep_mask ~sampling:policy.Policy.sampling ~causal_activities ~bytes_before
          ~activities_before ~span_s:(time_span_s filtered) keep
      in
      let reduced =
        pmap (fun i ->
            Arena.filter logs.(i) (fun r ->
                match request_of attribution logs.(i) r with
                | Some idx -> keep.(idx)
                | None -> not policy.Policy.drop_non_causal))
        |> Array.to_list
        |> List.filter (fun arena -> Arena.length arena > 0)
      in
      (non_causal, keep, effective_p, reduced)
    in
    let jobs =
      match (pool, jobs) with
      | Some p, _ -> Parallel.Pool.size p
      | None, Some j -> max 1 j
      | None, None -> Parallel.Pool.default_jobs ()
    in
    let non_causal, keep, effective_p, reduced =
      if jobs <= 1 || nlogs <= 1 then run_passes None
      else
        match pool with
        | Some p -> run_passes (Some p)
        | None -> Parallel.Pool.with_pool ~jobs (fun p -> run_passes (Some p))
    in
    let bytes_after = String.length (Trace.Binary_format.encode_native reduced) in
    let stats =
      {
        activities_before;
        activities_after = Arena.total reduced;
        bytes_before;
        bytes_after;
        requests_total = Array.length requests;
        requests_kept =
          Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep;
        non_causal;
        effective_p;
      }
    in
    record_telemetry telemetry stats;
    (reduced, stats)
  end
