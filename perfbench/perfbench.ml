(* The tracer benchmark's program (see README.md in this directory).

     perfbench setup   --workload W --seed N --out DIR
     perfbench measure --workload W --dir DIR --seconds S --trace 0|1

   [setup] is the load generator. It runs a simulator from the seed and
   writes what a deployment would hand the tracer: PTB1 bytes of the
   per-host logs, the request oracle, the arrival-ordered live feed and
   the incident-window queries. [measure] runs in a fresh process over
   those files alone, times the tracer's public entry points, checks every
   result, and prints one JSON object as its last line of output. *)

module ST = Simnet.Sim_time
module S = Tiersim.Scenario
module Arena = Trace.Arena
module Activity = Trace.Activity
module Reg = Telemetry.Registry
module Detector = Diagnose.Detector

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt
(* [Unix.gettimeofday] without boxing the result. The paced feed reads the
   clock in a spin loop while idle; a boxed float per read would keep the
   minor heap filling, and the pipeline would pay for the extra
   collections. Spans read it twice per call for the same reason. *)
external now : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* ---- Files ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* ---- Host speed ---- *)

(* The reference host is shared with other machines' work, and its speed
   drifts by up to 2x between minutes. So the timed end-to-end figures are
   scaled by a host factor: how much slower than on the quiet reference
   host a reference kernel runs next to the timed step. The kernel
   depends on nothing in the tracer. It has three parts, each timed
   against its own quiet-host time and the three ratios averaged: a
   pointer chase over 32 MB (memory latency; it stays in the host's
   last-level cache only while neighbours leave room), a sequential sum
   over 64 MB (memory bandwidth), both off the OCaml heap, and a
   short-lived hash table of 50k boxed entries (allocation and the minor
   collector, as the tracer uses them). *)
module Host = struct
  let chase =
    lazy
      (let n = 1 lsl 22 in
       let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
       for i = 0 to n - 1 do
         a.{i} <- i
       done;
       (* Sattolo's shuffle: a single cycle through every cell. *)
       let rng = Random.State.make [| 0x5eed |] in
       for i = n - 1 downto 1 do
         let j = Random.State.int rng i in
         let t = a.{i} in
         a.{i} <- a.{j};
         a.{j} <- t
       done;
       a)

  let stream = lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 23) Fun.id)

  let timed f =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    now () -. t0

  let chase_run () =
    let a = Lazy.force chase in
    let j = ref 0 in
    for _ = 1 to 400_000 do
      j := Bigarray.Array1.unsafe_get a !j
    done;
    !j

  let stream_run () =
    let a = Lazy.force stream in
    let s = ref 0 in
    for i = 0 to Bigarray.Array1.dim a - 1 do
      s := !s + Bigarray.Array1.unsafe_get a i
    done;
    !s

  let alloc_run () =
    let h = Hashtbl.create 16 in
    for i = 1 to 50_000 do
      Hashtbl.replace h (string_of_int (i * 7919)) (i, [ i ])
    done;
    let n = ref 0 in
    for i = 1 to 50_000 do
      if Hashtbl.mem h (string_of_int i) then incr n
    done;
    !n

  (* Each part's seconds on the quiet reference host. *)
  let parts = [ (chase_run, 0.050); (stream_run, 0.009); (alloc_run, 0.036) ]

  (* One run of the kernel: the mean of its parts' slowdowns. *)
  let factor () =
    ignore (Lazy.force chase, Lazy.force stream);
    List.fold_left (fun acc (f, quiet) -> acc +. (timed f /. quiet)) 0. parts
    /. float_of_int (List.length parts)

  let last = ref nan

  (* [f ()] between two kernel runs (the first shared with the previous
     step), with the mean of their factors: divide a time by it, multiply
     a rate by it. *)
  let bracket f =
    let f0 = if Float.is_nan !last then factor () else !last in
    let v = f () in
    let f1 = factor () in
    last := f1;
    (v, (f0 +. f1) /. 2.)
end

(* ---- Workloads ---- *)

let workloads = [ "rubis_live"; "mesh_cascade" ]

(* RUBiS at the paper's noise setting (Browse_only, 300 clients,
   rlogin/ssh chatter plus 4 mysql clients, 50 ms clock skew) with a
   db-lock fault from the middle of the runtime session. *)
let rubis_time_scale = 0.3

let rubis_spec ~seed =
  let time_scale = rubis_time_scale in
  {
    S.default with
    S.clients = 300;
    time_scale;
    seed;
    skew = ST.ms 50;
    noise = S.Paper_noise { db_connections = 4 };
    faults = [ Tiersim.Faults.database_lock ];
    fault_onset = Some (S.mid_run_onset ~time_scale ());
  }

(* The cascading-failure preset runs 4 requests per client; scaling that
   by 220 gives about 210k records, past the 200k a throughput figure
   needs to measure more than start-up. *)
let mesh_request_scale = 220

(* Paced live pass: records per second the open-loop feed sends, about
   half the unpaced capacity of the live pipeline on each workload (the
   detector makes the mesh's pipeline slower than RUBiS's). *)
let rubis_paced_rate = 50_000
let mesh_paced_rate = 20_000

(* Incident-window queries per run, each one virtual second long. Untraced
   runs issue them in [query_chunks] groups spread over the run, so their
   latency median is not one short moment of the host's speed. *)
let query_count = 100
let query_chunks = 5
let query_span_ns = 1_000_000_000

(* ---- Set-up: the load generator ---- *)

(* What [measure] needs besides the raw data. [setup] and [measure] are
   the same executable, so it travels marshalled. *)
type meta = {
  hosts : string list;  (** Feed host order; the feed's host bytes index it. *)
  entries : Simnet.Address.endpoint list;
  drop_programs : string list;
  window_ns : int;
  tolerance_ns : int;
  paced_rate : int;  (** Records per second of the paced live pass. *)
  judge : (int * int) option;
      (** Stream interval the detector judges; it freezes its baseline at
          the start. [None]: judge every path, freeze after warm-up. *)
  fault : string option;
  onset_ns : int option;
}

let write_meta path (m : meta) = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc m [])
let read_meta path : meta = In_channel.with_open_bin path Marshal.from_channel

(* The arrival-ordered feed: per-host PTB1 arenas whose rows are in
   arrival order, plus one byte per record naming the host it came from. *)
let write_feed dir ~hosts feed =
  let index = Hashtbl.create 16 in
  List.iteri (fun i h -> Hashtbl.replace index h i) hosts;
  let arenas = Array.of_list (List.map (fun host -> Arena.create ~host ()) hosts) in
  let order = Bytes.create (List.length feed) in
  List.iteri
    (fun i (a : Activity.t) ->
      let h = Hashtbl.find index a.context.host in
      Bytes.set order i (Char.chr h);
      Arena.append_activity arenas.(h) a)
    feed;
  write_file (Filename.concat dir "feed.ptb")
    (Trace.Binary_format.encode_native (Array.to_list arenas));
  write_file (Filename.concat dir "feed.order") (Bytes.to_string order)

(* Incident windows: seeded start instants over the feed's time span. *)
let write_queries dir ~seed feed =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (a : Activity.t) ->
        let t = ST.to_ns a.timestamp in
        (min lo t, max hi t))
      (max_int, min_int) feed
  in
  let rng = Random.State.make [| seed; 0x51 |] in
  let room = max 1 (hi - lo - query_span_ns) in
  let b = Buffer.create 4096 in
  for _ = 1 to query_count do
    let since = lo + Random.State.full_int rng room in
    Printf.bprintf b "%d %d\n" since (since + query_span_ns)
  done;
  write_file (Filename.concat dir "queries.txt") (Buffer.contents b)

let capture () =
  let acc = ref [] in
  ((fun a -> acc := a :: !acc), fun () -> List.rev !acc)

let setup ~workload ~seed ~dir =
  mkdir_p dir;
  let f0 = Host.factor () in
  let t0 = now () in
  let push, feed = capture () in
  let logs, gt, meta =
    match workload with
    | "rubis_live" ->
        let spec = rubis_spec ~seed in
        let before_run svc = Trace.Probe.add_listener (Tiersim.Service.probe svc) push in
        let o = S.run ~before_run spec in
        let from_, until_ = S.runtime_session ~time_scale:rubis_time_scale in
        let tr = o.S.transform in
        ( o.S.logs,
          o.S.ground_truth,
          {
            hosts = List.map Trace.Log.hostname o.S.logs;
            entries = tr.Core.Transform.entry_points;
            drop_programs = tr.Core.Transform.drop_programs;
            window_ns = ST.span_ns (Core.Correlator.config ~transform:tr ()).window;
            tolerance_ns = ST.span_ns (ST.us 500);
            paced_rate = rubis_paced_rate;
            judge = Some (ST.to_ns from_, ST.to_ns until_);
            fault = Some "db-lock";
            onset_ns = Option.map ST.span_ns spec.S.fault_onset;
          } )
    | "mesh_cascade" ->
        let spec =
          match Mesh.Presets.spec_of ~seed "cascading_failure" with
          | Some s -> s
          | None -> die "mesh preset cascading_failure missing"
        in
        let spec =
          { spec with Mesh.Spec.requests_per_client = spec.requests_per_client * mesh_request_scale }
        in
        let b = Mesh.Runtime.build spec in
        Trace.Probe.add_listener b.Mesh.Runtime.probe push;
        Simnet.Engine.run b.engine;
        let logs = Trace.Probe.logs b.probe in
        (* The mesh's own scoring settings (Mesh.Runtime.score_logs). *)
        ( logs,
          b.gt,
          {
            hosts = List.map Trace.Log.hostname logs;
            entries = b.entries;
            drop_programs = [];
            window_ns = ST.span_ns (ST.ms 5);
            tolerance_ns = ST.span_ns (ST.ms 2);
            paced_rate = mesh_paced_rate;
            judge = None;
            fault = None;
            onset_ns = None;
          } )
    | w -> die "unknown workload %S" w
  in
  let feed = feed () in
  if List.length feed <> Trace.Log.total logs then
    die "feed has %d records, logs %d" (List.length feed) (Trace.Log.total logs);
  Trace.Binary_format.save logs ~path:(Filename.concat dir "traces.ptb");
  Trace.Ground_truth.save gt ~path:(Filename.concat dir "oracle.txt");
  write_feed dir ~hosts:meta.hosts feed;
  write_queries dir ~seed feed;
  write_meta (Filename.concat dir "meta.bin") meta;
  let wall = now () -. t0 in
  let factor = (f0 +. Host.factor ()) /. 2. in
  Printf.printf "setup %s seed %d: %d records on %d hosts, %d requests\n" workload seed
    (List.length feed) (List.length meta.hosts) (Trace.Ground_truth.count gt);
  (* Last line: the set-up time, in wall seconds and scaled to the
     reference host, for run.py. *)
  Printf.printf "{\"setup_s\": %.17g, \"wall_s\": %.17g, \"host_factor\": %.17g}\n" (wall /. factor)
    wall factor

(* ---- Spans ---- *)

(* One span per call into a layer: name, start, end, parent, pass id and
   words allocated, kept in memory as columns and written out when the
   run ends. Per-record calls (the live feed) read the minor-heap word
   counter, which does not allocate; coarse calls read every allocated
   word. *)
module Spans = struct
  let on = ref false
  let pass = ref 0
  let names : string array ref = ref [||]

  let layer name =
    names := Array.append !names [| name |];
    Array.length !names - 1

  let n = ref 0
  let cap = ref 0
  let name_c : int array ref = ref [||]
  let parent_c : int array ref = ref [||]
  let pass_c : int array ref = ref [||]
  let t0_c : float array ref = ref [||]
  let t1_c : float array ref = ref [||]
  let w0_c : float array ref = ref [||]
  let w1_c : float array ref = ref [||]
  let cur = ref (-1)

  let grow ?(at_least = 0) () =
    let c = max at_least (max 65536 (2 * !cap)) in
    let gi a =
      let b = Array.make c 0 in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    let gf a =
      let b = Array.make c 0. in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    gi name_c;
    gi parent_c;
    gi pass_c;
    gf t0_c;
    gf t1_c;
    gf w0_c;
    gf w1_c;
    cap := c

  let all_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  let enter ~fine id =
    if !n = !cap then grow ();
    let s = !n in
    incr n;
    !name_c.(s) <- id;
    !parent_c.(s) <- !cur;
    !pass_c.(s) <- !pass;
    !t0_c.(s) <- now ();
    !w0_c.(s) <- (if fine then Gc.minor_words () else all_words ());
    cur := s;
    s

  let leave ~fine s =
    !w1_c.(s) <- (if fine then Gc.minor_words () else all_words ());
    !t1_c.(s) <- now ();
    cur := !parent_c.(s)

  (* A coarse span around [f ()]; just [f ()] when tracing is off. *)
  let span id f =
    if not !on then f ()
    else
      let s = enter ~fine:false id in
      match f () with
      | v ->
          leave ~fine:false s;
          v
      | exception e ->
          leave ~fine:false s;
          raise e

  (* Empties the store and makes room for [capacity] spans, so growing it
     does not fall inside a traced call. *)
  let reset ~capacity =
    n := 0;
    cur := -1;
    if !cap < capacity then grow ~at_least:capacity ()

  type row = { mutable calls : int; mutable self_s : float; mutable self_words : float }

  (* Self time and words per (layer, pass): a span's own figures minus
     those of its children. *)
  let ledger () =
    let k = !n in
    let child_t = Array.make k 0. and child_w = Array.make k 0. in
    for s = 0 to k - 1 do
      let p = !parent_c.(s) in
      if p >= 0 then begin
        child_t.(p) <- child_t.(p) +. (!t1_c.(s) -. !t0_c.(s));
        child_w.(p) <- child_w.(p) +. (!w1_c.(s) -. !w0_c.(s))
      end
    done;
    let rows = Hashtbl.create 64 in
    for s = 0 to k - 1 do
      let key = (!name_c.(s), !pass_c.(s)) in
      let r =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
            let r = { calls = 0; self_s = 0.; self_words = 0. } in
            Hashtbl.replace rows key r;
            r
      in
      r.calls <- r.calls + 1;
      r.self_s <- r.self_s +. (!t1_c.(s) -. !t0_c.(s)) -. child_t.(s);
      r.self_words <- r.self_words +. (!w1_c.(s) -. !w0_c.(s)) -. child_w.(s)
    done;
    rows

  let write path =
    Out_channel.with_open_bin path (fun oc ->
        output_string oc "id\tname\tpass\tparent\tstart_s\tend_s\twords\n";
        let base = if !n > 0 then !t0_c.(0) else 0. in
        for s = 0 to !n - 1 do
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\t%.0f\n" s !names.(!name_c.(s))
            !pass_c.(s) !parent_c.(s) (!t0_c.(s) -. base) (!t1_c.(s) -. base)
            (!w1_c.(s) -. !w0_c.(s))
        done)
end

let l_decode = Spans.layer "trace.decode"
let l_transform = Spans.layer "transform"
let l_correlator = Spans.layer "correlator"
let l_shard = Spans.layer "shard"
let l_classify = Spans.layer "pattern.classify"
let l_aggregate = Spans.layer "aggregate"
let l_accuracy = Spans.layer "accuracy.check"
let l_online = Spans.layer "online"
let l_store = Spans.layer "store.write"
let l_diagnose = Spans.layer "diagnose.observe"
let l_query = Spans.layer "query"
let l_window = Spans.layer "window.correlate"

(* Pass ids: which part of a cycle a span belongs to. *)
let p_batch1 = 1
let p_batch2 = 2
let p_unpaced = 3
let p_paced = 4
let p_queries = 5

(* A per-record span: explicit enter/leave so the untraced path pays
   nothing, and no closure is allocated inside the measured call. *)
let fine id f x =
  if !Spans.on then begin
    let s = Spans.enter ~fine:true id in
    f x;
    Spans.leave ~fine:true s
  end
  else f x

(* ---- Measured phase ---- *)

type inputs = {
  meta : meta;
  ptb : string;  (** PTB1 bytes of the per-host logs. *)
  records : int;
  oracle : Trace.Ground_truth.t;
  config : Core.Correlator.config;
  feed : Activity.t array;  (** Arrival order. *)
  by_time : (Arena.t * int array) array;
      (** Per host, the feed's arena and its row indices in [compare_key]
          order: the query oracle. *)
  queries : (int * int) array;
  heap_base_words : int;  (** Major heap once the inputs are loaded. *)
}

(* Rows of two arenas by timestamp first, then every other column. *)
let compare_key a i b j =
  let c = Int.compare (Arena.ts a i) (Arena.ts b j) in
  if c <> 0 then c
  else
    let c = Int.compare (Arena.kind_code a i) (Arena.kind_code b j) in
    if c <> 0 then c
    else
      let c = Int.compare (Arena.ctx_id a i) (Arena.ctx_id b j) in
      if c <> 0 then c
      else
        let c = Int.compare (Arena.flow_id a i) (Arena.flow_id b j) in
        if c <> 0 then c else Int.compare (Arena.size a i) (Arena.size b j)

let sorted_rows a =
  let rows = Array.init (Arena.length a) Fun.id in
  Array.stable_sort (fun i j -> compare_key a i a j) rows;
  rows

let load dir =
  let file = Filename.concat dir in
  let meta = read_meta (file "meta.bin") in
  let ptb = read_file (file "traces.ptb") in
  let oracle =
    match Trace.Ground_truth.load ~path:(file "oracle.txt") with
    | Ok g -> g
    | Error e -> die "oracle: %s" e
  in
  let arenas =
    match Trace.Binary_format.decode_native (read_file (file "feed.ptb")) with
    | Ok a -> a
    | Error e -> die "feed: %s" e
  in
  let by_host =
    Array.of_list
      (List.map
         (fun h ->
           match List.find_opt (fun a -> Arena.hostname a = h) arenas with
           | Some a -> a
           | None -> die "feed: no records for host %s" h)
         meta.hosts)
  in
  let order = read_file (file "feed.order") in
  let cursor = Array.make (Array.length by_host) 0 in
  let feed =
    Array.init (String.length order) (fun i ->
        let h = Char.code order.[i] in
        if h >= Array.length by_host then die "feed.order: bad host %d" h;
        let r = cursor.(h) in
        cursor.(h) <- r + 1;
        Arena.get by_host.(h) r)
  in
  let by_time = Array.map (fun a -> (a, sorted_rows a)) by_host in
  let queries =
    String.split_on_char '\n' (read_file (file "queries.txt"))
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match List.map int_of_string_opt (String.split_on_char ' ' l) with
           | [ Some a; Some z ] -> (a, z)
           | _ -> die "queries.txt: bad line %S" l)
    |> Array.of_list
  in
  let transform =
    Core.Transform.config ~entry_points:meta.entries ~drop_programs:meta.drop_programs ()
  in
  let config = Core.Correlator.config ~transform ~window:(ST.ns meta.window_ns) () in
  let records = Array.length feed in
  Gc.full_major ();
  let heap_base_words = (Gc.quick_stat ()).heap_words in
  { meta; ptb; records; oracle; config; feed; by_time; queries; heap_base_words }

let digest ~finished ~deformed =
  Digest.to_hex (Digest.string (Core.Hierarchy.render ~finished ~deformed))

(* Paths scored against the oracle, and the seconds that took. *)
let accuracy inp paths =
  let t0 = now () in
  let v =
    Spans.span l_accuracy (fun () ->
        Core.Accuracy.check ~tolerance:(ST.ns inp.meta.tolerance_ns) ~ground_truth:inp.oracle
          paths)
  in
  (v, now () -. t0)

(* The batch job `precisetracer correlate DIR` runs: decode PTB1, correlate,
   classify, aggregate. At one domain the correlation is called as its two
   layers, the transform and the rank/engine loop, which is all
   [Shard.correlate ~jobs:1] runs. *)
type batch = {
  b_seconds : float;
  b_digest : string;
  b_verdict : Core.Accuracy.verdict option;  (** With [~check]. *)
  b_check_s : float;
  b_ranker : Core.Ranker.stats;
  b_engine : Core.Cag_engine.stats;
  b_patterns : int;
  b_kept : int;  (** Records left after the transform (1 domain). *)
}

(* Only a summary outlives the call, so the next stage starts from the
   same heap and [peak_heap_mb] is the largest single stage. [~check]
   scores the paths against the oracle after the timed part. *)
let batch ?(check = false) inp ~jobs =
  let telemetry = Reg.create () in
  let t0 = now () in
  let logs =
    Spans.span l_decode (fun () ->
        match Trace.Binary_format.decode inp.ptb with
        | Ok l -> l
        | Error e -> die "decode: %s" e)
  in
  let kept = ref 0 in
  let result =
    if jobs = 1 then begin
      let prepared =
        Spans.span l_transform (fun () -> Core.Transform.apply inp.config.transform logs)
      in
      kept := Trace.Log.total prepared;
      Spans.span l_correlator (fun () ->
          Core.Correlator.correlate_prepared ~telemetry inp.config prepared ~on_path:ignore)
    end
    else Spans.span l_shard (fun () -> Core.Shard.correlate ~telemetry ~jobs inp.config logs)
  in
  let patterns = Spans.span l_classify (fun () -> Core.Pattern.classify result.cags) in
  Spans.span l_aggregate (fun () ->
      List.iter
        (fun p ->
          ignore (Core.Aggregate.of_pattern p);
          ignore (Core.Aggregate.hop_tails p))
        patterns);
  let seconds = now () -. t0 in
  let verdict = if check then Some (accuracy inp result.cags) else None in
  {
    b_seconds = seconds;
    b_digest = digest ~finished:result.cags ~deformed:result.deformed;
    b_verdict = Option.map fst verdict;
    b_check_s = (match verdict with Some (_, s) -> s | None -> 0.);
    b_ranker = result.ranker_stats;
    b_engine = result.engine_stats;
    b_patterns = List.length patterns;
    b_kept = !kept;
  }

(* One replay of the feed through Core.Online, with the store writer on
   the raw-activity tee and the detector on the path callback. Paced
   passes send record [i] at [t0 + i / paced_rate], spinning while ahead
   of schedule, and time each path from when the record that released it
   was due. *)
type live = {
  l_wall : float;
  l_idle : float;  (** Time spent waiting for the next record to fall due. *)
  l_digest : string;
  l_verdict : Core.Accuracy.verdict option;  (** With [~check]. *)
  l_check_s : float;
  l_verdicts : Detector.verdict list;
  l_lags : float array;  (** Seconds, one per path (paced passes). *)
  l_late : float array;  (** Seconds each record was sent after it was due. *)
  l_store : Store.Writer.stats;
  l_peak_pending : int;  (** Largest [Online.pending] (traced unpaced passes). *)
}

(* The first clock reading at or after [d]. *)
let rec spin_until d =
  let u = now () in
  if u < d then spin_until d else u

let judged inp det cag =
  match inp.meta.judge with
  | None -> true
  | Some (from_, until_) ->
      let e = ST.to_ns (Core.Cag.end_ts cag) in
      e <= until_ && ((not (Detector.warmed det)) || e >= from_)

let live_pass ?(check = false) inp ~paced ~store_dir =
  rm_rf store_dir;
  let telemetry = Reg.create () in
  let writer = Store.Writer.create ~telemetry ~dir:store_dir () in
  let config =
    match inp.meta.judge with
    | Some (from_, _) -> { Detector.default_config with freeze_after = Some (ST.of_ns from_) }
    | None -> Detector.default_config
  in
  let det = Detector.create ~config ~telemetry () in
  let n = Array.length inp.feed in
  let lags = Array.make (if paced then n else 0) 0. in
  let nlags = ref 0 in
  let due = ref 0. in
  let observe_path cag = ignore (Detector.observe det cag) in
  let on_path cag =
    if paced then begin
      lags.(!nlags) <- now () -. !due;
      incr nlags
    end;
    if judged inp det cag then fine l_diagnose observe_path cag
  in
  let on_activity = fine l_store (Store.Writer.observe writer) in
  let online =
    Core.Online.create ~config:inp.config ~hosts:inp.meta.hosts ~on_path ~on_activity ~telemetry
      ()
  in
  let observe = fine l_online (Core.Online.observe online) in
  let late = Array.make (if paced then n else 0) 0. in
  let rate = float_of_int inp.meta.paced_rate in
  let idle = ref 0. in
  let peak = ref 0 in
  let t0 = now () in
  for i = 0 to n - 1 do
    if paced then begin
      let d = t0 +. (float_of_int i /. rate) in
      let t = now () in
      let t =
        if t >= d then t
        else begin
          let u = spin_until d in
          idle := !idle +. (u -. t);
          u
        end
      in
      late.(i) <- t -. d;
      due := d
    end;
    observe inp.feed.(i);
    if !Spans.on && not paced then peak := max !peak (Core.Online.pending online)
  done;
  due := if paced then t0 +. (float_of_int n /. rate) else now ();
  fine l_online Core.Online.finish online;
  let stats = Spans.span l_store (fun () -> Store.Writer.close writer) in
  let wall = now () -. t0 in
  let paths = Core.Online.paths online in
  let verdict = if check then Some (accuracy inp paths) else None in
  {
    l_wall = wall;
    l_idle = !idle;
    l_digest = digest ~finished:paths ~deformed:(Core.Online.deformed online);
    l_verdict = Option.map fst verdict;
    l_check_s = (match verdict with Some (_, s) -> s | None -> 0.);
    l_verdicts = Detector.verdicts det;
    l_lags = Array.sub lags 0 !nlags;
    l_late = late;
    l_store = stats;
    l_peak_pending = !peak;
  }

(* Incident-window queries over the store a live pass wrote: read the
   window back, correlate it, classify it. Each answer is checked against
   the feed filtered to the same window. *)
type queries = {
  q_times : float array;
  q_failed : int;
  q_segments_total : int;
  q_segments_scanned : int;
  q_records_scanned : int;
  q_records_returned : int;
}

(* A host's rows in [compare_key] order start with the timestamp, so a
   window is one contiguous slice of them. *)
let window_matches inp arenas ~since ~until =
  let first_at (a, rows) ts =
    let lo = ref 0 and hi = ref (Array.length rows) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Arena.ts a rows.(mid) < ts then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let known a = Array.exists (fun (f, _) -> Arena.hostname f = Arena.hostname a) inp.by_time in
  List.for_all known arenas
  && Array.for_all
       (fun ((feed, rows) as host) ->
         let lo = first_at host since in
         let n = first_at host (until + 1) - lo in
         match List.find_opt (fun a -> Arena.hostname a = Arena.hostname feed) arenas with
         | None -> n = 0
         | Some got ->
             let got_rows = sorted_rows got in
             Array.length got_rows = n
             &&
             let ok = ref true in
             Array.iteri
               (fun k r -> if compare_key feed rows.(lo + k) got r <> 0 then ok := false)
               got_rows;
             !ok)
       inp.by_time

let run_queries inp ~store_dir queries =
  let telemetry = Reg.create () in
  let n = Array.length queries in
  let times = Array.make n 0. in
  let failed = ref 0 in
  let seg_total = ref 0 and seg_scanned = ref 0 and scanned = ref 0 and returned = ref 0 in
  Array.iteri
    (fun i (since, until) ->
      let t0 = now () in
      let predicate = Store.Query.predicate ~since_ns:since ~until_ns:until () in
      match
        Spans.span l_query (fun () ->
            Store.Query.run_native ~telemetry ~jobs:1 ~dir:store_dir predicate)
      with
      | Error e ->
          times.(i) <- now () -. t0;
          prerr_endline ("perfbench: query failed: " ^ e);
          incr failed
      | Ok (arenas, st) ->
          let r =
            Spans.span l_window (fun () -> Core.Correlator.correlate_arena ~telemetry inp.config arenas)
          in
          ignore (Spans.span l_classify (fun () -> Core.Pattern.classify r.cags));
          times.(i) <- now () -. t0;
          seg_total := !seg_total + st.Store.Query.segments_total;
          seg_scanned := !seg_scanned + st.segments_scanned;
          scanned := !scanned + st.records_scanned;
          returned := !returned + st.records_returned;
          if not (window_matches inp arenas ~since ~until) then begin
            prerr_endline (Printf.sprintf "perfbench: query [%d, %d] returned wrong records" since until);
            incr failed
          end)
    queries;
  {
    q_times = times;
    q_failed = !failed;
    q_segments_total = !seg_total;
    q_segments_scanned = !seg_scanned;
    q_records_scanned = !scanned;
    q_records_returned = !returned;
  }

(* ---- Statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile [p] (0..1) of [a], and the tail: the highest of
   the standard percentiles with at least ten samples beyond it. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let tail_p n =
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  match List.find_opt (fun p -> beyond p >= 10) [ 0.9999; 0.999; 0.99; 0.9; 0.5 ] with
  | Some p -> p
  | None -> 0.5

let pct_name p = Printf.sprintf "p%g" (p *. 100.)

(* ---- Results ---- *)

type metric = { name : string; value : float; unit_ : string }

let json_of ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

(* Top of the major heap above what the loaded inputs hold, so the figure
   is the tracer's working set and not the benchmark's own data. *)
let peak_heap_mb inp =
  float_of_int (((Gc.quick_stat ()).Gc.top_heap_words - inp.heap_base_words) * (Sys.word_size / 8))
  /. 1048576.

(* One full cycle: serial batch and its accuracy check, 2-domain batch,
   unpaced live pass and its accuracy check, with [~paced] the paced live
   pass, then window queries over the last pass's store. *)
type cycle = {
  c_batch1 : batch;
  c_batch2 : batch;
  c_unpaced : live;
  c_paced : live option;
  c_queries : queries;
  c_busy : float;
      (** Seconds inside the timed calls, less the paced feed's waits:
          what the layer ledger must account for. *)
}

let unpaced_store dir = Filename.concat dir "store-unpaced"
let paced_store dir = Filename.concat dir "store-paced"

let run_cycle inp ~dir ~paced ~queries =
  Spans.pass := p_batch1;
  let b1 = batch ~check:true inp ~jobs:1 in
  Spans.pass := p_batch2;
  let b2 = batch inp ~jobs:2 in
  Spans.pass := p_unpaced;
  let unpaced = live_pass ~check:true inp ~paced:false ~store_dir:(unpaced_store dir) in
  let paced =
    if paced then begin
      Spans.pass := p_paced;
      Some (live_pass inp ~paced:true ~store_dir:(paced_store dir))
    end
    else None
  in
  Spans.pass := p_queries;
  let store = if paced = None then unpaced_store dir else paced_store dir in
  let queries = run_queries inp ~store_dir:store queries in
  let busy =
    b1.b_seconds +. b1.b_check_s +. b2.b_seconds +. unpaced.l_wall +. unpaced.l_check_s
    +. (match paced with Some p -> p.l_wall -. p.l_idle | None -> 0.)
    +. Array.fold_left ( +. ) 0. queries.q_times
  in
  { c_batch1 = b1; c_batch2 = b2; c_unpaced = unpaced; c_paced = paced; c_queries = queries; c_busy = busy }

(* Correctness of one cycle: batch and live paths scored against the
   oracle, serial == 2-domain digests, both live passes byte-identical
   with identical verdict streams, every query exact. Failed operations
   are requests without a correct path and wrong or failed queries.
   Returns (attempted, failed, all outputs consistent). *)
let check_cycle c =
  let batch_v = Option.get c.c_batch1.b_verdict and live_v = Option.get c.c_unpaced.l_verdict in
  let same_verdicts (p : live) =
    List.length c.c_unpaced.l_verdicts = List.length p.l_verdicts
    && List.for_all2
         (fun (a : Detector.verdict) (b : Detector.verdict) -> a.at = b.at && a.kind = b.kind)
         c.c_unpaced.l_verdicts p.l_verdicts
  in
  let outputs =
    ("2-domain digest equals serial", c.c_batch2.b_digest = c.c_batch1.b_digest)
    ::
    (match c.c_paced with
    | None -> []
    | Some p ->
        [
          ("paced online digest equals unpaced", p.l_digest = c.c_unpaced.l_digest);
          ("verdicts of both live passes", same_verdicts p);
        ])
  in
  List.iter (fun (what, ok) -> if not ok then prerr_endline ("perfbench: mismatch: " ^ what)) outputs;
  if c.c_unpaced.l_digest <> c.c_batch1.b_digest then
    prerr_endline "perfbench: note: online paths differ from batch paths (both scored against the oracle)";
  let missed (v : Core.Accuracy.verdict) = v.total_requests - v.correct + v.false_positives in
  let attempted = (2 * batch_v.total_requests) + Array.length c.c_queries.q_times in
  let failed = missed batch_v + missed live_v + c.c_queries.q_failed in
  (attempted, failed, List.for_all snd outputs)

let score inp (l : live) =
  let fault =
    match inp.meta.fault with
    | None -> None
    | Some "db-lock" -> Some Tiersim.Faults.database_lock
    | Some f -> die "unknown fault %s" f
  in
  let onset = Option.map ST.of_ns inp.meta.onset_ns in
  Diagnose.Verdict.score ~telemetry:(Reg.create ()) ?fault ?onset l.l_verdicts

let ms x = x *. 1000.
let max_of a = Array.fold_left max 0. a

(* [a] cut into [n] consecutive, nearly equal parts. *)
let split n a =
  let len = Array.length a in
  List.init n (fun k -> Array.sub a (k * len / n) (((k + 1) * len / n) - (k * len / n)))

let end_to_end inp ~dir ~seconds =
  let started = now () in
  (* An unpaced cycle without queries checks every output and lets the
     heap grow to its working size. Timed repetitions of the serial batch
     and the unpaced live pass follow for the rest of the run, at least
     three of each. After that the live pass, the noisier of the two,
     gets two thirds of the time. Each live pass is followed by one group
     of the queries, each checked, so the query median covers the whole
     run. Each timed step is scaled by the host factor around it. *)
  let first = run_cycle inp ~dir ~paced:false ~queries:[||] in
  let attempted, failed, ok = check_cycle first in
  let attempted = ref attempted and failed = ref failed and ok = ref ok in
  let store = unpaced_store dir in
  let rate s = float_of_int inp.records /. s in
  let serial = ref [] and online = ref [] and query_times = ref [] in
  let raw_serial = ref [] and raw_online = ref [] and factors = ref [] in
  let serial_s = ref 0. and online_s = ref 0. in
  let chunks = ref (split query_chunks inp.queries) in
  let next_queries () =
    match !chunks with
    | [] -> ()
    | c :: rest ->
        chunks := rest;
        let q, f = Host.bracket (fun () -> run_queries inp ~store_dir:store c) in
        query_times := Array.map (fun t -> t /. f) q.q_times :: !query_times;
        attempted := !attempted + Array.length c;
        failed := !failed + q.q_failed
  in
  let same what ok' =
    if not ok' then prerr_endline ("perfbench: mismatch: a repeated " ^ what ^ " differs");
    ok := !ok && ok'
  in
  let last_serial = ref 0. and last_online = ref 0. in
  let fits d = now () -. started +. d <= float_of_int seconds in
  let rec loop () =
    let ns = List.length !serial and no = List.length !online in
    let serial_next = if ns < 3 || no < 3 then ns <= no else 2. *. !serial_s <= !online_s in
    if ns < 3 || no < 3 || fits (if serial_next then !last_serial else !last_online) then begin
      let r0 = now () in
      if serial_next then begin
        let x, f = Host.bracket (fun () -> batch inp ~jobs:1) in
        same "serial batch" (x.b_digest = first.c_batch1.b_digest);
        raw_serial := rate x.b_seconds :: !raw_serial;
        factors := f :: !factors;
        serial := (rate x.b_seconds *. f) :: !serial;
        serial_s := !serial_s +. x.b_seconds;
        last_serial := now () -. r0
      end
      else begin
        let z, f = Host.bracket (fun () -> live_pass inp ~paced:false ~store_dir:store) in
        same "live pass" (z.l_digest = first.c_unpaced.l_digest);
        raw_online := rate z.l_wall :: !raw_online;
        factors := f :: !factors;
        online := (rate z.l_wall *. f) :: !online;
        online_s := !online_s +. z.l_wall;
        next_queries ();
        last_online := now () -. r0
      end;
      loop ()
    end
  in
  loop ();
  while !chunks <> [] do
    next_queries ()
  done;
  let qt = Array.concat !query_times in
  let sc = score inp first.c_unpaced in
  let show l = String.concat " " (List.rev_map (Printf.sprintf "%.0f") l) in
  Printf.eprintf
    "perfbench: wall records/s: serial %s; online %s\n\
     perfbench: host factors (in run order) %s\n\
     perfbench: %d serial and %d live repetitions; wall medians: serial %.0f, online %.0f \
     records/s; verdicts %d, false alarms %d\n%!"
    (show !raw_serial) (show !raw_online)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !factors))
    (List.length !serial) (List.length !online) (median !raw_serial) (median !raw_online)
    sc.verdicts_total sc.false_alarms;
  let v = Option.get first.c_unpaced.l_verdict in
  let metrics =
    [
      { name = "records_per_s"; value = median !serial; unit_ = "1/s" };
      { name = "online_records_per_s"; value = median !online; unit_ = "1/s" };
      { name = "window_query_p50_ms"; value = ms (percentile qt 0.5); unit_ = "ms" };
      {
        name = "accuracy";
        value = float_of_int v.correct /. float_of_int (max 1 v.total_requests);
        unit_ = "ratio";
      };
      { name = "peak_heap_mb"; value = peak_heap_mb inp; unit_ = "MB" };
    ]
  in
  rm_rf store;
  (!ok && !failed = 0, !attempted, !failed, metrics)

let per_layer inp ~dir ~spans_out =
  (* A warm-up batch, then the full cycle traced and untraced: the
     difference in busy time, each scaled by its host factor, is the
     tracing overhead. The warm-up lets the heap grow first, so neither
     cycle pays for that. *)
  let cycle () = run_cycle inp ~dir ~paced:true ~queries:inp.queries in
  ignore (batch inp ~jobs:1);
  (* Per record, each of the two live passes makes an online and a store
     span; detector and coarse spans are fewer. *)
  Spans.reset ~capacity:((5 * inp.records) + 65536);
  Spans.on := true;
  let traced, traced_host = Host.bracket cycle in
  Spans.on := false;
  let plain, host = Host.bracket cycle in
  let checks = List.map check_cycle [ traced; plain ] in
  let attempted = List.fold_left (fun n (a, _, _) -> n + a) 0 checks in
  let failed = List.fold_left (fun n (_, f, _) -> n + f) 0 checks in
  let consistent = List.for_all (fun (_, _, ok) -> ok) checks in
  Option.iter Spans.write spans_out;
  let rows = Spans.ledger () in
  let get layer pass =
    match Hashtbl.find_opt rows (layer, pass) with
    | Some r -> r
    | None -> { Spans.calls = 0; self_s = 0.; self_words = 0. }
  in
  let self layer pass = (get layer pass).self_s in
  let words layer pass = (get layer pass).self_words /. float_of_int inp.records in
  let total = Hashtbl.fold (fun _ r acc -> acc +. r.Spans.self_s) rows 0. in
  let b1 = traced.c_batch1 and un = traced.c_unpaced and q = traced.c_queries in
  let rs = b1.b_ranker and es = b1.b_engine in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let traced_paced = Option.get traced.c_paced and plain_paced = Option.get plain.c_paced in
  let sc = score inp traced_paced in
  let late = plain_paced.l_late in
  let lags = plain_paced.l_lags and qt = plain.c_queries.q_times in
  let count name v = { name; value = float_of_int v; unit_ = "count" } in
  let secs name v = { name; value = v; unit_ = "s" } in
  let per_record name v = { name; value = v; unit_ = "words" } in
  let share name v = { name; value = v; unit_ = "ratio" } in
  let serial = self l_transform p_batch1 +. self l_correlator p_batch1 in
  let shard = self l_shard p_batch2 in
  Printf.eprintf "perfbench: ledger of the traced cycle (pass: 1 serial batch, 2 2-domain batch, \
                  3 unpaced live, 4 paced live, 5 window queries)\n";
  List.iter
    (fun ((layer, pass), (r : Spans.row)) ->
      Printf.eprintf "  pass %d  %-18s calls %7d  self %8.4f s  %7.1f words/record\n" pass
        !Spans.names.(layer) r.calls r.self_s (r.self_words /. float_of_int inp.records))
    (List.sort compare (Hashtbl.fold (fun k r acc -> (k, r) :: acc) rows []));
  let coverage = total /. traced.c_busy in
  Printf.eprintf "  layers %.4f s of %.4f s busy (%.1f%%); untraced busy %.4f s\n%!" total
    traced.c_busy (100. *. coverage) plain.c_busy;
  (* Reconciliation: the layers' self times must account for the traced
     cycle's busy time, or a layer is missing from the ledger. *)
  let reconciled = coverage >= 0.95 in
  let tail a = tail_p (Array.length a) in
  Printf.eprintf
    "perfbench: untraced cycle, wall: path lag p50 %.4f ms, %s %.3f ms over %d paths; window \
     queries p50 %.3f ms, %s %.3f ms over %d; generator late max %.3f ms, %s %.3f ms; host \
     factor %.3f\n%!"
    (ms (percentile lags 0.5)) (pct_name (tail lags)) (ms (percentile lags (tail lags)))
    (Array.length lags) (ms (percentile qt 0.5)) (pct_name (tail qt)) (ms (percentile qt (tail qt)))
    (Array.length qt) (ms (max_of late)) (pct_name (tail late)) (ms (percentile late (tail late))) host;
  if not reconciled then
    prerr_endline "perfbench: mismatch: layer self times cover under 95% of the traced busy time";
  let metrics =
    [
      secs "trace.decode_s" (self l_decode p_batch1);
      per_record "trace.decode_words_per_record" (words l_decode p_batch1);
      secs "transform.s" (self l_transform p_batch1);
      share "transform.kept_ratio" (ratio b1.b_kept inp.records);
      secs "correlator.s" (self l_correlator p_batch1);
      per_record "correlator.words_per_record" (words l_correlator p_batch1);
      count "ranker.candidates" rs.candidates;
      count "ranker.noise_discarded" rs.noise_discarded;
      count "ranker.promotions" rs.promotions;
      count "ranker.forced_fetches" rs.forced_fetches;
      count "ranker.peak_buffered" rs.peak_buffered;
      count "engine.peak_live_vertices" es.peak_live_vertices;
      count "engine.send_merges" es.send_merges;
      count "engine.unmatched_receives" es.unmatched_receives;
      secs "shard.jobs2_s" shard;
      share "shard.speedup" (serial /. shard);
      secs "pattern.classify_s" (self l_classify p_batch1);
      count "pattern.count" b1.b_patterns;
      secs "aggregate.s" (self l_aggregate p_batch1);
      secs "online.observe_s" (self l_online p_unpaced);
      per_record "online.words_per_record" (words l_online p_unpaced);
      count "online.peak_pending" un.l_peak_pending;
      secs "store.write_s" (self l_store p_unpaced);
      count "store.segments" un.l_store.segments;
      { name = "store.bytes_per_record"; value = ratio un.l_store.bytes_out un.l_store.records_in; unit_ = "B" };
      secs "query.s" (self l_query p_queries);
      share "query.segments_scanned_ratio" (ratio q.q_segments_scanned q.q_segments_total);
      share "query.records_returned_ratio" (ratio q.q_records_returned q.q_records_scanned);
      secs "window.correlate_s" (self l_window p_queries);
      secs "diagnose.observe_s" (self l_diagnose p_unpaced);
      count "diagnose.verdicts" sc.verdicts_total;
      count "diagnose.false_alarms" sc.false_alarms;
      secs "diagnose.ttd_s" (Option.value sc.time_to_detection_s ~default:(-1.));
      secs "accuracy.check_s" (self l_accuracy p_batch1);
      (* User-facing figures too unsteady on a shared 2-core host to carry
         a regression bound (see README.md), from the untraced cycle. *)
      {
        name = "records_per_s_2dom";
        value = float_of_int inp.records /. plain.c_batch2.b_seconds;
        unit_ = "1/s";
      };
      { name = "path_lag_p50_ms"; value = ms (percentile lags 0.5); unit_ = "ms" };
      { name = "path_lag_tail_ms"; value = ms (percentile lags (tail_p (Array.length lags))); unit_ = "ms" };
      { name = "window_query_tail_ms"; value = ms (percentile qt (tail_p (Array.length qt))); unit_ = "ms" };
      { name = "generator.late_max_ms"; value = ms (max_of late); unit_ = "ms" };
      { name = "generator.late_tail_ms"; value = ms (percentile late (tail_p (Array.length late))); unit_ = "ms" };
      secs "ledger.busy_s" traced.c_busy;
      share "ledger.coverage" coverage;
      (* Both busy times scaled to the reference host, so a drift of the
         host between the two cycles does not read as overhead. *)
      secs "tracing.overhead_s" ((traced.c_busy /. traced_host) -. (plain.c_busy /. host));
      share "host.factor" host;
      { name = "heap.inputs_mb"; value = float_of_int (inp.heap_base_words * (Sys.word_size / 8)) /. 1048576.; unit_ = "MB" };
    ]
  in
  rm_rf (unpaced_store dir);
  rm_rf (paced_store dir);
  (consistent && reconciled && failed = 0, attempted, failed, metrics)

(* ---- Command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    die
      "usage: perfbench setup --workload W --seed N --out DIR\n\
      \       perfbench measure --workload W --dir DIR --seconds S --trace 0|1 [--spans FILE]"
  in
  let rec options acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        if List.mem_assoc k acc then die "duplicate option %s" k;
        options ((k, v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  let get opts allowed k =
    List.iter (fun (o, _) -> if not (List.mem o allowed) then die "unknown option %s" o) opts;
    match List.assoc_opt k opts with Some v -> v | None -> die "missing option %s" k
  in
  let int_arg opts allowed k =
    match int_of_string_opt (get opts allowed k) with Some i -> i | None -> die "%s: not an integer" k
  in
  let workload opts allowed =
    let w = get opts allowed "--workload" in
    if not (List.mem w workloads) then
      die "unknown workload %S (expected one of: %s)" w (String.concat ", " workloads);
    w
  in
  match args with
  | "setup" :: rest ->
      let opts = options [] rest in
      let allowed = [ "--workload"; "--seed"; "--out" ] in
      setup ~workload:(workload opts allowed) ~seed:(int_arg opts allowed "--seed")
        ~dir:(get opts allowed "--out")
  | "measure" :: rest ->
      let opts = options [] rest in
      let allowed = [ "--workload"; "--dir"; "--seconds"; "--trace"; "--spans" ] in
      ignore (workload opts allowed);
      let seconds = int_arg opts allowed "--seconds" in
      let trace = int_arg opts allowed "--trace" in
      if trace <> 0 && trace <> 1 then die "--trace must be 0 or 1";
      let dir = get opts allowed "--dir" in
      let inp = load dir in
      let correct, attempted, failed, metrics =
        if trace = 0 then end_to_end inp ~dir ~seconds
        else per_layer inp ~dir ~spans_out:(List.assoc_opt "--spans" opts)
      in
      print_endline (json_of ~correct ~attempted ~failed metrics)
  | _ -> usage ()
