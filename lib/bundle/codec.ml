module B = Trace.Binary_format
module Cag = Core.Cag
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Latency = Core.Latency
module Json = Core.Json

type path = { cag : Cag.t; links : (int * int) list array }
type decoded = { link_hosts : string array; paths : path list }

(* ---- the links section ---- *)

(* The paths are the shard-to-root message verbatim; the links section
   carries what PTH1 deliberately leaves out. It has no path or vertex
   counts of its own: the rows follow the PTH1 message's paths and each
   path's causal vertex order, so the two sections must agree. *)
let encode_links ~link_hosts paths =
  let buf = Buffer.create 16_384 in
  let n_hosts = Array.length link_hosts in
  B.put_uvarint buf n_hosts;
  Array.iter (B.put_string buf) link_hosts;
  List.iter
    (fun { cag; links } ->
      if Array.length links <> Cag.size cag then
        invalid_arg "Codec.encode_links: link rows differ from the path's vertex count";
      Array.iter
        (fun row ->
          B.put_uvarint buf (List.length row);
          List.iter
            (fun (host, record) ->
              if host < 0 || host >= n_hosts then
                invalid_arg "Codec.encode_links: link host index out of range";
              B.put_uvarint buf host;
              B.put_uvarint buf record)
            row)
        links)
    paths;
  Buffer.contents buf

let decode_links data ~pos ~len cags =
  B.decode_region data ~pos ~len (fun r ->
      let n_hosts = B.get_count r "link host table" in
      let link_hosts = Array.init n_hosts (fun _ -> B.get_string r) in
      let row _ =
        List.init (B.get_count r "link") (fun _ ->
            let host = B.get_index r n_hosts "link host" in
            (host, B.get_uvarint r))
      in
      let paths = List.map (fun cag -> { cag; links = Array.init (Cag.size cag) row }) cags in
      { link_hosts; paths })

(* ---- pattern profiles ---- *)

type component_stat = { comp : Latency.component; share : float; mean_s : float }

type profile = {
  name : string;
  signature : string;
  count : int;
  cag_ids : int list;
  mean_total_s : float;
  components : component_stat list;
}

let shares profile = List.map (fun c -> (c.comp, c.share)) profile.components

let profiles_of_cags cags =
  List.map
    (fun (p : Pattern.t) ->
      let cag_ids = List.map (fun (c : Cag.t) -> c.Cag.cag_id) p.Pattern.cags in
      let finished = List.filter Cag.is_finished p.Pattern.cags in
      let mean_total_s, components =
        match finished with
        | [] -> (0.0, [])
        | _ ->
            let agg = Aggregate.of_pattern p in
            let latencies = Aggregate.component_latencies agg in
            let components =
              List.map
                (fun (comp, share) ->
                  let mean_s =
                    match
                      List.find_opt (fun (c, _) -> Latency.equal_component c comp) latencies
                    with
                    | Some (_, m) -> m
                    | None -> 0.0
                  in
                  { comp; share; mean_s })
                (Aggregate.component_percentages agg)
            in
            (agg.Aggregate.mean_total_s, components)
      in
      {
        name = p.Pattern.name;
        signature = p.Pattern.signature;
        count = Pattern.count p;
        cag_ids;
        mean_total_s;
        components;
      })
    (Pattern.classify cags)

let profile_to_json p =
  Json.Obj
    [
      ("name", Json.String p.name);
      ("signature", Json.String p.signature);
      ("count", Json.Int p.count);
      ("cag_ids", Json.List (List.map (fun i -> Json.Int i) p.cag_ids));
      ("mean_total_s", Json.Float p.mean_total_s);
      ( "components",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("src", Json.String c.comp.Latency.src);
                   ("dst", Json.String c.comp.Latency.dst);
                   ("share", Json.Float c.share);
                   ("mean_s", Json.Float c.mean_s);
                 ])
             p.components) );
    ]

let profiles_to_json profiles = Json.List (List.map profile_to_json profiles)

let ( let* ) = Result.bind

let number = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error "expected a number"

let float_field j name =
  match Json.member name j with
  | Some v -> Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) (number v)
  | None -> Error (Printf.sprintf "missing field %S" name)

let string_field j name =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let component_of_json j =
  let* src = string_field j "src" in
  let* dst = string_field j "dst" in
  let* share = float_field j "share" in
  let* mean_s = float_field j "mean_s" in
  Ok { comp = { Latency.src; dst }; share; mean_s }

let profile_of_json j =
  let* name = string_field j "name" in
  let* signature = string_field j "signature" in
  let* count =
    match Json.member "count" j with
    | Some (Json.Int n) -> Ok n
    | _ -> Error "missing int field \"count\""
  in
  let* cag_ids =
    match Json.member "cag_ids" j with
    | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with Json.Int i -> Ok (i :: acc) | _ -> Error "non-int cag id")
          (Ok []) items
        |> Result.map List.rev
    | _ -> Error "missing list field \"cag_ids\""
  in
  let* mean_total_s = float_field j "mean_total_s" in
  let* components =
    match Json.member "components" j with
    | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* c = component_of_json item in
            Ok (c :: acc))
          (Ok []) items
        |> Result.map List.rev
    | _ -> Error "missing list field \"components\""
  in
  Ok { name; signature; count; cag_ids; mean_total_s; components }

let profiles_of_json = function
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* p = profile_of_json item in
          Ok (p :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "patterns section is not a list"
