module Activity = Trace.Activity
module Address = Simnet.Address
module Arena = Trace.Arena
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time
module Cag = Core.Cag
module Correlator = Core.Correlator
module Shard = Core.Shard
module Json = Core.Json

type summary = {
  out_path : string;
  bytes : int;
  records : int;
  hosts : string list;
  segments : int;
  store_bytes : int;
  cags : int;
  deformed : int;
  patterns : int;
  links : int;
  unresolved_links : int;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>bundle %s: %d bytes@,%d records on %d hosts in %d segments (%d store bytes)@,\
     %d paths (%d deformed), %d patterns, %d back-links (%d unresolved)@]"
    s.out_path s.bytes s.records (List.length s.hosts) s.segments s.store_bytes s.cags s.deformed
    s.patterns s.links s.unresolved_links

let ( let* ) = Result.bind

let section_of_segment id = Printf.sprintf "segments/%06d" id

(* ---- raw-record index: resolving vertex sources to store coordinates ----

   [Transform.classify] preserves timestamp, context, flow and size and
   rewrites only the kind (entry RECEIVE -> BEGIN, entry SEND -> END), so
   a vertex source matches its raw record on everything but possibly the
   kind. Identical records are consumed in deterministic order (paths in
   completion order, vertices in causal order, sources in observation
   order), so packing is reproducible byte for byte. *)

let key_of_row arena i =
  ( Arena.ts arena i,
    Arena.ctx_id arena i,
    Arena.flow_id arena i,
    Arena.size arena i,
    Arena.kind_code arena i )

let key_of (a : Activity.t) kind =
  ( Sim_time.to_ns a.Activity.timestamp,
    Intern.context_id a.Activity.context,
    Intern.flow_id a.Activity.message.flow,
    a.Activity.message.size,
    Activity.kind_to_code kind )

let raw_kind_of = function
  | Activity.Begin -> Some Activity.Receive
  | Activity.End_ -> Some Activity.Send
  | Activity.Send | Activity.Receive -> None

let build_index arenas =
  let hosts = Array.of_list (List.map Arena.hostname arenas) in
  let index = Hashtbl.create 4096 in
  List.iteri
    (fun hi arena ->
      Arena.iteri_rows arena (fun ri ->
          let key = key_of_row arena ri in
          let q =
            match Hashtbl.find_opt index key with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace index key q;
                q
          in
          Queue.push (hi, ri) q))
    arenas;
  (hosts, index)

let resolve_source index (a : Activity.t) =
  let take key =
    match Hashtbl.find_opt index key with
    | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
    | Some _ | None -> None
  in
  match take (key_of a a.Activity.kind) with
  | Some link -> Some link
  | None -> (
      match raw_kind_of a.Activity.kind with
      | Some raw -> take (key_of a raw)
      | None -> None)

let link_paths collection cags =
  let hosts, index = build_index collection in
  let links_total = ref 0 in
  let unresolved = ref 0 in
  let paths =
    List.map
      (fun cag ->
        let vertices = Cag.vertices cag in
        let links =
          Array.of_list
            (List.map
               (fun v ->
                 List.filter_map
                   (fun src ->
                     match resolve_source index src with
                     | Some link ->
                         incr links_total;
                         Some link
                     | None ->
                         incr unresolved;
                         None)
                   (Cag.sources v))
               vertices)
        in
        { Codec.cag; links })
      cags
  in
  (hosts, paths, !links_total, !unresolved)

(* ---- config section ---- *)

let endpoint_str (e : Address.endpoint) = Format.asprintf "%a" Address.pp_endpoint e

let config_json ~(config : Correlator.config) ~scenario ~source_label =
  let t = config.Correlator.transform in
  Json.Obj
    [
      ("scenario", Option.value ~default:Json.Null scenario);
      ("source", Json.String source_label);
      ( "correlate",
        Json.Obj
          [
            ("window_ns", Json.Int (Sim_time.span_ns config.Correlator.window));
            ("skew_allowance_ns", Json.Int (Sim_time.span_ns config.skew_allowance));
            ( "entry_points",
              Json.List
                (List.map (fun e -> Json.String (endpoint_str e)) t.Core.Transform.entry_points) );
            ( "drop_programs",
              Json.List (List.map (fun p -> Json.String p) t.Core.Transform.drop_programs) );
            ("drop_ports", Json.List (List.map (fun p -> Json.Int p) t.Core.Transform.drop_ports));
          ] );
    ]

(* ---- sources ---- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* Embed a store directory verbatim: the exact segment bytes, so packing
   is lossless and deterministic with respect to the store's content. *)
let of_store_dir dir =
  let* manifest = Store.Manifest.load ~dir in
  let* rev_segments, rev_batches =
    List.fold_left
      (fun acc (meta : Store.Segment.meta) ->
        let* segments, batches = acc in
        let path = Filename.concat dir meta.Store.Segment.file in
        let* data = read_file path in
        let* batch =
          Store.Segment.read_embedded_native ~data ~pos:0 ~len:(String.length data) ~what:path
            meta
        in
        Ok ((meta, data) :: segments, batch :: batches))
      (Ok ([], [])) manifest.Store.Manifest.segments
  in
  Ok (manifest, List.rev rev_segments, Store.Query.merge_native (List.rev rev_batches))

(* Roll per-host arenas into synthetic segments, as a store ingest with no
   reduction would: cut the time-merged feed every [roll_records] rows,
   then regroup each cut per host. *)
let of_logs ?(roll_records = 65_536) arenas =
  let records = Arena.total arenas in
  if records = 0 then Error "pack: empty collection"
  else begin
    let batches =
      if records <= roll_records then [ arenas ]
      else begin
        let hosts = Array.of_list arenas in
        (* (host, row) pairs in (timestamp, context, kind) order; contexts
           differ across hosts, so only same-host rows can tie, and the
           stable sort keeps them in row order. *)
        let feed =
          Array.concat (List.mapi (fun h a -> Array.init (Arena.length a) (fun r -> (h, r))) arenas)
        in
        Array.stable_sort
          (fun (h1, r1) (h2, r2) ->
            let a = hosts.(h1) and b = hosts.(h2) in
            match Int.compare (Arena.ts a r1) (Arena.ts b r2) with
            | 0 -> (
                match Intern.compare_context_id (Arena.ctx_id a r1) (Arena.ctx_id b r2) with
                | 0 ->
                    Int.compare
                      (Activity.kind_priority (Arena.kind a r1))
                      (Activity.kind_priority (Arena.kind b r2))
                | c -> c)
            | c -> c)
          feed;
        List.init
          ((records + roll_records - 1) / roll_records)
          (fun k ->
            let cut = Array.make (Array.length hosts) None in
            for i = k * roll_records to min records ((k + 1) * roll_records) - 1 do
              let h, r = feed.(i) in
              let dst =
                match cut.(h) with
                | Some dst -> dst
                | None ->
                    let dst = Arena.create_sid (Arena.host_sid hosts.(h)) in
                    cut.(h) <- Some dst;
                    dst
              in
              Arena.append_row dst hosts.(h) r
            done;
            Array.to_list cut |> List.filter_map Fun.id
            |> List.sort (fun a b -> String.compare (Arena.hostname a) (Arena.hostname b)))
      end
    in
    let manifest, rev_segments =
      List.fold_left
        (fun (manifest, acc) batch ->
          let id = manifest.Store.Manifest.next_id in
          let meta, data = Store.Segment.encode_native ~id ~policy:"none" batch in
          (Store.Manifest.add manifest meta, (meta, data) :: acc))
        (Store.Manifest.empty, []) batches
    in
    Ok (manifest, List.rev rev_segments, Store.Query.merge_native batches)
  end

(* ---- packing ---- *)

let summary_json ~summary ~min_ts_ns ~max_ts_ns =
  ( "summary",
    Json.Obj
      [
        ("records", Json.Int summary.records);
        ("hosts", Json.List (List.map (fun h -> Json.String h) summary.hosts));
        ("segments", Json.Int summary.segments);
        ("store_bytes", Json.Int summary.store_bytes);
        ("min_ts_ns", Json.Int min_ts_ns);
        ("max_ts_ns", Json.Int max_ts_ns);
        ("cags", Json.Int summary.cags);
        ("deformed", Json.Int summary.deformed);
        ("patterns", Json.Int summary.patterns);
        ("links", Json.Int summary.links);
        ("unresolved_links", Json.Int summary.unresolved_links);
      ] )

let write_file ~path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data);
  Sys.rename tmp path

let pack ?telemetry ?scenario ?jobs ?roll_records ~config ~source ~path () =
  let* manifest, segments, collection =
    match source with
    | `Store_dir dir -> of_store_dir dir
    | `Logs logs -> of_logs ?roll_records logs
  in
  if Arena.total collection = 0 then Error "pack: store holds no records"
  else begin
    let source_label =
      match source with `Store_dir dir -> "store:" ^ Filename.basename dir | `Logs _ -> "logs"
    in
    let result = Shard.correlate_arena ?jobs config collection in
    let cags = result.Correlator.cags in
    let hosts, paths, links, unresolved = link_paths collection cags in
    let profiles = Codec.profiles_of_cags cags in
    let json_body j = Json.to_string ~indent:true (Container.sort_json j) in
    let sections =
      [
        ("config", json_body (config_json ~config ~scenario ~source_label));
        ("store/manifest", json_body (Store.Manifest.to_json manifest));
      ]
      @ List.map
          (fun ((meta : Store.Segment.meta), data) -> (section_of_segment meta.Store.Segment.id, data))
          segments
      @ [
          ("paths", Core.Hierarchy.encode_paths cags);
          ("links", Codec.encode_links ~link_hosts:hosts paths);
          ("patterns", json_body (Codec.profiles_to_json profiles));
        ]
      @
      match telemetry with
      | Some families -> [ ("telemetry", json_body (Telemetry.Export.to_json families)) ]
      | None -> []
    in
    let min_ts_ns, max_ts_ns =
      List.fold_left
        (fun (lo, hi) ((m : Store.Segment.meta), _) ->
          (min lo m.Store.Segment.min_ts_ns, max hi m.Store.Segment.max_ts_ns))
        (max_int, min_int) segments
    in
    let summary =
      {
        out_path = path;
        bytes = 0;
        records = Arena.total collection;
        hosts = Array.to_list hosts;
        segments = List.length segments;
        store_bytes = List.fold_left (fun acc (_, d) -> acc + String.length d) 0 segments;
        cags = List.length cags;
        deformed = List.length (List.filter Cag.is_deformed cags) + List.length result.deformed;
        patterns = List.length profiles;
        links;
        unresolved_links = unresolved;
      }
    in
    let data =
      Container.assemble ~manifest_extra:[ summary_json ~summary ~min_ts_ns ~max_ts_ns ] sections
    in
    write_file ~path data;
    Ok { summary with bytes = String.length data }
  end
