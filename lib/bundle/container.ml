module Json = Core.Json
module B = Trace.Binary_format

let magic = "PTZ1"

type section = { name : string; pos : int; len : int }

(* ---- deterministic JSON ---- *)

let rec sort_json = function
  | Json.Obj pairs ->
      Json.Obj
        (List.map (fun (k, v) -> (k, sort_json v)) pairs
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | Json.List items -> Json.List (List.map sort_json items)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as j -> j

(* ---- crc32 (IEEE 802.3, the zlib polynomial) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(pos = 0) ?len s =
  let len = Option.value ~default:(String.length s - pos) len in
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* ---- assembling ---- *)

let assemble ~manifest_extra sections =
  let section_entries =
    List.map
      (fun (name, body) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("bytes", Json.Int (String.length body));
            ("crc32", Json.Int (crc32 body));
          ])
      sections
  in
  let manifest =
    sort_json
      (Json.Obj
         (( "format", Json.Int 1 )
          :: ("kind", Json.String "precisetracer-bundle")
          :: ("sections", Json.List section_entries)
          :: manifest_extra))
  in
  let manifest_str = Json.to_string ~indent:true manifest in
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf magic;
  B.put_string32 buf manifest_str;
  List.iter
    (fun (name, body) ->
      B.put_string32 buf name;
      B.put_u64be buf (String.length body);
      Buffer.add_string buf body)
    sections;
  Buffer.contents buf

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let manifest_sections manifest =
  match Json.member "sections" manifest with
  | Some (Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match (Json.member "name" item, Json.member "bytes" item, Json.member "crc32" item) with
          | Some (Json.String name), Some (Json.Int bytes), Some (Json.Int crc) ->
              Ok ((name, bytes, crc) :: acc)
          | _ -> Error "malformed section entry in bundle manifest")
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "bundle manifest has no section table"

(* Read the manifest, then exactly the frames it declares, in order; the
   runner rejects any bytes after the last one. *)
let parse ~what data =
  Result.map_error (fun e -> Printf.sprintf "%s: %s" what e)
  @@ B.decode_region ~magic data ~pos:0 ~len:(String.length data) (fun r ->
         let corrupt at fmt = Printf.ksprintf (fun msg -> raise (B.Corrupt (at, msg))) fmt in
         let manifest_at = r.B.pos + 4 in
         let manifest =
           match Json.of_string (B.get_string32 r) with
           | Ok j -> j
           | Error e -> corrupt manifest_at "bad bundle manifest: %s" e
         in
         let declared =
           match manifest_sections manifest with Ok d -> d | Error e -> corrupt manifest_at "%s" e
         in
         let frame (dname, dbytes, dcrc) =
           let at = r.B.pos in
           if at = r.B.limit then corrupt at "section %S declared but missing" dname;
           let name = B.get_string32 r in
           if not (String.equal name dname) then
             corrupt at "section %S where manifest declares %S" name dname;
           let len = B.get_u64be r in
           if len <> dbytes then
             corrupt at "section %S is %d bytes, manifest declares %d" name len dbytes;
           let pos = B.skip r len "section body" in
           let crc = crc32 ~pos ~len data in
           if crc <> dcrc then
             corrupt pos "section %S fails checksum (crc32 %08x, manifest declares %08x)" name crc
               dcrc;
           { name; pos; len }
         in
         let sections = List.rev (List.fold_left (fun acc d -> frame d :: acc) [] declared) in
         (manifest, sections))

let find sections name = List.find_opt (fun s -> String.equal s.name name) sections
