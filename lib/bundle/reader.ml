module Arena = Trace.Arena
module Json = Core.Json

type t = {
  display : string;
  data : string;
  manifest : Json.t;
  sections : Container.section list;
  store_manifest : Store.Manifest.t;
  mutable collection : Arena.t list option;
  mutable host_logs : (string, Arena.t) Hashtbl.t option;
  mutable decoded_paths : Codec.decoded option;
  mutable profiles : Codec.profile list option;
}

let ( let* ) = Result.bind

(* A JSON section read through [of_json]; errors name its offset. *)
let section_json t (s : Container.section) of_json =
  Result.map_error
    (fun e ->
      Printf.sprintf "%s: corrupt at offset %d: %S section: %s" t.display s.Container.pos
        s.Container.name e)
    (Result.bind (Json.of_string (String.sub t.data s.Container.pos s.Container.len)) of_json)

let require t name =
  match Container.find t.sections name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: missing bundle section %S" t.display name)

let of_string ?(display = "<bundle>") data =
  let* manifest, sections = Container.parse ~what:display data in
  let t0 =
    {
      display;
      data;
      manifest;
      sections;
      store_manifest = Store.Manifest.empty;
      collection = None;
      host_logs = None;
      decoded_paths = None;
      profiles = None;
    }
  in
  let* sm_section = require t0 "store/manifest" in
  let* store_manifest = section_json t0 sm_section Store.Manifest.of_json in
  Ok { t0 with store_manifest }

let open_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let data = really_input_string ic (in_channel_length ic) in
          of_string ~display:path data)

let display t = t.display
let manifest_json t = t.manifest
let sections t = t.sections
let store_manifest t = t.store_manifest
let summary_json t = Json.member "summary" t.manifest

let config t =
  match Container.find t.sections "config" with
  | None -> Ok None
  | Some s -> Result.map Option.some (section_json t s Result.ok)

let read_segment t (meta : Store.Segment.meta) =
  let name = Printf.sprintf "segments/%06d" meta.Store.Segment.id in
  let* s = require t name in
  Store.Segment.read_embedded_native ~data:t.data ~pos:s.Container.pos ~len:s.Container.len
    ~what:(Printf.sprintf "%s section %S" t.display name)
    meta

(* The canonical record order every back-link indexes into: segments
   decoded in manifest order, per-host arenas merged and re-sorted — the
   same merge {!Store.Query} performs, so coordinates survive store
   compaction (which preserves records and query answers). *)
let collection t =
  match t.collection with
  | Some c -> Ok c
  | None ->
      let* collections =
        List.fold_left
          (fun acc meta ->
            let* acc = acc in
            let* c = read_segment t meta in
            Ok (c :: acc))
          (Ok []) t.store_manifest.Store.Manifest.segments
        |> Result.map List.rev
      in
      let c = Store.Query.merge_native collections in
      t.collection <- Some c;
      Ok c

let query ?telemetry ?pool ?jobs t predicate =
  Store.Query.run_native_with ?telemetry ?pool ?jobs ~read:(read_segment t) t.store_manifest
    predicate

let paths t =
  match t.decoded_paths with
  | Some d -> Ok d
  | None ->
      let section_error what e = Printf.sprintf "%s: %s section: %s" t.display what e in
      let* p = require t "paths" in
      let* cags =
        Result.map_error (section_error "paths")
          (Core.Hierarchy.decode_paths t.data ~pos:p.Container.pos ~len:p.Container.len)
      in
      let* l = require t "links" in
      let* d =
        Result.map_error (section_error "links")
          (Codec.decode_links t.data ~pos:l.Container.pos ~len:l.Container.len cags)
      in
      t.decoded_paths <- Some d;
      Ok d

let profiles t =
  match t.profiles with
  | Some p -> Ok p
  | None ->
      let* s = require t "patterns" in
      let* p = section_json t s Codec.profiles_of_json in
      t.profiles <- Some p;
      Ok p

let telemetry t =
  match Container.find t.sections "telemetry" with
  | None -> Ok None
  | Some s ->
      Result.map Option.some (section_json t s Telemetry.Export.of_json)

let host_logs t =
  match t.host_logs with
  | Some h -> Ok h
  | None ->
      let* c = collection t in
      let h = Hashtbl.create 8 in
      List.iter (fun arena -> Hashtbl.replace h (Arena.hostname arena) arena) c;
      t.host_logs <- Some h;
      Ok h

let resolve t ~link_hosts (host, index) =
  if host < 0 || host >= Array.length link_hosts then
    Error (Printf.sprintf "%s: back-link host index %d out of range" t.display host)
  else begin
    let hostname = link_hosts.(host) in
    let* logs = host_logs t in
    match Hashtbl.find_opt logs hostname with
    | None -> Error (Printf.sprintf "%s: back-link names unknown host %S" t.display hostname)
    | Some arena ->
        if index < 0 || index >= Arena.length arena then
          Error
            (Printf.sprintf "%s: back-link record index %d out of range for host %S (%d records)"
               t.display index hostname (Arena.length arena))
        else Ok (hostname, index, Arena.get arena index)
  end

let resolve_links t ~link_hosts links =
  List.fold_left
    (fun acc link ->
      let* acc = acc in
      let* r = resolve t ~link_hosts link in
      Ok (r :: acc))
    (Ok []) links
  |> Result.map List.rev
