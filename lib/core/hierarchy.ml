module B = Trace.Binary_format
module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address

(* ---- Canonical order and splice. ---- *)

let compare_paths (a : Cag.t) (b : Cag.t) =
  let ra = (Cag.root a).Cag.activity in
  let rb = (Cag.root b).Cag.activity in
  let c = Sim_time.compare ra.Activity.timestamp rb.Activity.timestamp in
  if c <> 0 then c
  else
    let c = Activity.compare_context ra.Activity.context rb.Activity.context in
    if c <> 0 then c
    else
      let c = Sim_time.compare (Cag.end_ts a) (Cag.end_ts b) in
      if c <> 0 then c
      else
        let c = Int.compare (Cag.size a) (Cag.size b) in
        if c <> 0 then c
        else String.compare (Pattern.signature_of a) (Pattern.signature_of b)

let canonicalize ?(first_id = 0) cags =
  let sorted = List.sort compare_paths cags in
  List.iteri (fun i c -> Cag.Builder.renumber c ~cag_id:(first_id + i)) sorted;
  sorted

let splice shards = canonicalize (List.concat shards)

(* ---- Identity digest (the byte format Shard.digest always used). ---- *)

let render ~finished ~deformed =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "finished=%d deformed=%d\n" (List.length finished)
       (List.length deformed));
  let patterns = Pattern.classify finished in
  List.iter
    (fun (pat : Pattern.t) ->
      Buffer.add_string buf
        (Printf.sprintf "pattern %s n=%d sig=%s\n" pat.Pattern.name (Pattern.count pat)
           pat.Pattern.signature);
      List.iter
        (fun (c : Cag.t) -> Buffer.add_string buf (Printf.sprintf " id=%d" c.Cag.cag_id))
        pat.Pattern.cags;
      Buffer.add_char buf '\n';
      if List.exists Cag.is_finished pat.Pattern.cags then begin
        let agg = Aggregate.of_pattern pat in
        List.iter
          (fun (c, pct) ->
            Buffer.add_string buf
              (Printf.sprintf "  %s %.9f\n" (Latency.component_label c) pct))
          (Aggregate.component_percentages agg);
        let tt = Aggregate.total_tail pat in
        Buffer.add_string buf
          (Printf.sprintf "  tail %.9f %.9f %.9f %.9f\n" tt.Aggregate.t_p50_s
             tt.Aggregate.t_p90_s tt.Aggregate.t_p99_s tt.Aggregate.t_max_s)
      end)
    patterns;
  Buffer.contents buf

let digest ~finished ~deformed =
  let finished = canonicalize finished in
  let deformed = canonicalize ~first_id:(List.length finished) deformed in
  Digest.to_hex (Digest.string (render ~finished ~deformed))

let digest_result (result : Correlator.result) =
  digest ~finished:result.Correlator.cags ~deformed:result.Correlator.deformed

(* ---- PTH1: the shard-to-root message. ---- *)

let magic = "PTH1"

(* Per-vertex parent sets a valid CAG can have ([Cag.validate]): at most
   two parents, never two of the same relation. The order is edge
   addition order, which the decoder replays. *)
let parent_spec (parents : (Cag.edge_kind * Cag.vertex) list) =
  match parents with
  | [] -> 4
  | [ (Cag.Context_edge, _) ] -> 0
  | [ (Cag.Message_edge, _) ] -> 1
  | [ (Cag.Context_edge, _); (Cag.Message_edge, _) ] -> 2
  | [ (Cag.Message_edge, _); (Cag.Context_edge, _) ] -> 3
  | _ -> invalid_arg "Hierarchy.encode_paths: vertex parents violate the CAG invariant"

let spec_kinds = function
  | 0 -> Some [ Cag.Context_edge ]
  | 1 -> Some [ Cag.Message_edge ]
  | 2 -> Some [ Cag.Context_edge; Cag.Message_edge ]
  | 3 -> Some [ Cag.Message_edge; Cag.Context_edge ]
  | 4 -> Some []
  | _ -> None

let encode_paths cags =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  (* Interning tables in first-use order: strings (hosts, programs),
     contexts, flows. A vertex then costs two small table indices
     instead of repeating its context and endpoint quadruple. *)
  let strings = Hashtbl.create 16 in
  let rev_strings = ref [] in
  let sid s =
    match Hashtbl.find_opt strings s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length strings in
        Hashtbl.add strings s i;
        rev_strings := s :: !rev_strings;
        i
  in
  let ctxs = Hashtbl.create 64 in
  let rev_ctxs = ref [] in
  let ctx_id (c : Activity.context) =
    let key = (sid c.Activity.host, sid c.Activity.program, c.Activity.pid, c.Activity.tid) in
    match Hashtbl.find_opt ctxs key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ctxs in
        Hashtbl.add ctxs key i;
        rev_ctxs := key :: !rev_ctxs;
        i
  in
  let flows = Hashtbl.create 64 in
  let rev_flows = ref [] in
  let flow_id (f : Address.flow) =
    let key =
      ( Address.ip_to_int f.Address.src.Address.ip,
        f.Address.src.Address.port,
        Address.ip_to_int f.Address.dst.Address.ip,
        f.Address.dst.Address.port )
    in
    match Hashtbl.find_opt flows key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length flows in
        Hashtbl.add flows key i;
        rev_flows := key :: !rev_flows;
        i
  in
  List.iter
    (fun c ->
      List.iter
        (fun (v : Cag.vertex) ->
          let a = v.Cag.activity in
          ignore (ctx_id a.Activity.context);
          ignore (flow_id a.Activity.message.Activity.flow))
        (Cag.vertices c))
    cags;
  B.put_uvarint buf (Hashtbl.length strings);
  List.iter (fun s -> B.put_string buf s) (List.rev !rev_strings);
  B.put_uvarint buf (Hashtbl.length ctxs);
  List.iter
    (fun (host, program, pid, tid) ->
      B.put_uvarint buf host;
      B.put_uvarint buf program;
      B.put_uvarint buf pid;
      B.put_uvarint buf tid)
    (List.rev !rev_ctxs);
  B.put_uvarint buf (Hashtbl.length flows);
  List.iter
    (fun (src_ip, src_port, dst_ip, dst_port) ->
      B.put_uvarint buf src_ip;
      B.put_uvarint buf src_port;
      B.put_uvarint buf dst_ip;
      B.put_uvarint buf dst_port)
    (List.rev !rev_flows);
  B.put_uvarint buf (List.length cags);
  List.iter
    (fun c ->
      let vs = Cag.vertices c in
      B.put_uvarint buf c.Cag.cag_id;
      let flags =
        (if Cag.is_finished c then 1 else 0) lor if Cag.is_deformed c then 2 else 0
      in
      Buffer.add_char buf (Char.chr flags);
      B.put_uvarint buf (List.length vs);
      let idx = Hashtbl.create 16 in
      let prev_ts = ref 0 in
      List.iteri
        (fun i (v : Cag.vertex) ->
          Hashtbl.replace idx v.Cag.vid i;
          let a = v.Cag.activity in
          let parents = List.rev v.Cag.parents in
          Buffer.add_char buf
            (Char.chr
               (Activity.kind_to_code a.Activity.kind lor (parent_spec parents lsl 2)));
          (* Parents precede their children in vertex order, so each is a
             small positive back-reference. *)
          List.iter
            (fun (_, (p : Cag.vertex)) -> B.put_uvarint buf (i - Hashtbl.find idx p.Cag.vid))
            parents;
          (* Timestamps are deltas along the path (the first is absolute);
             signed, because local clocks can run behind under skew and
             vertex order is causal, not clock, order. *)
          let ts = Sim_time.to_ns a.Activity.timestamp in
          B.put_varint buf (ts - !prev_ts);
          prev_ts := ts;
          B.put_uvarint buf (ctx_id a.Activity.context);
          B.put_uvarint buf (flow_id a.Activity.message.Activity.flow);
          B.put_uvarint buf a.Activity.message.Activity.size)
        vs)
    cags;
  Buffer.contents buf

let get_byte r what =
  let at = B.skip r 1 what in
  Char.code r.B.data.[at]

let decode_paths data ~pos ~len =
  B.decode_region ~magic data ~pos ~len (fun r ->
      let nstrings = B.get_count r "string table" in
      let strings = Array.init nstrings (fun _ -> B.get_string r) in
      let nctx = B.get_count r "context table" in
      let contexts =
        Array.init nctx (fun _ ->
            let host = strings.(B.get_index r nstrings "string") in
            let program = strings.(B.get_index r nstrings "string") in
            let pid = B.get_uvarint r in
            let tid = B.get_uvarint r in
            { Activity.host; program; pid; tid })
      in
      let nflows = B.get_count r "flow table" in
      let flows =
        Array.init nflows (fun _ ->
            B.get_endpoints r (fun src_ip src_port dst_ip dst_port ->
                Address.flow
                  ~src:(Address.endpoint (Address.ip_of_int src_ip) src_port)
                  ~dst:(Address.endpoint (Address.ip_of_int dst_ip) dst_port)))
      in
      let read_cag () =
        let cag_id = B.get_uvarint r in
        let flags = get_byte r "path flags" in
        if flags land lnot 3 <> 0 then raise (B.Corrupt (r.B.pos, "bad path flags"));
        let nv = B.get_count r "vertices" in
        if nv = 0 then raise (B.Corrupt (r.B.pos, "path with no vertices"));
        let verts = Array.make nv None in
        let cag = ref None in
        let prev_ts = ref 0 in
        for i = 0 to nv - 1 do
          let packed = get_byte r "vertex header" in
          let kind =
            match Activity.kind_of_code (packed land 3) with
            | Some k -> k
            | None -> raise (B.Corrupt (r.B.pos - 1, "bad activity kind"))
          in
          let parent_kinds =
            match spec_kinds (packed lsr 2) with
            | Some ks -> ks
            | None -> raise (B.Corrupt (r.B.pos - 1, "bad parent spec"))
          in
          let parents =
            List.map
              (fun k ->
                let delta = B.get_uvarint r in
                if delta < 1 || delta > i then
                  raise (B.Corrupt (r.B.pos, "parent reference out of range"));
                (k, Option.get verts.(i - delta)))
              parent_kinds
          in
          let ts = !prev_ts + B.get_varint r in
          prev_ts := ts;
          let context = contexts.(B.get_index r nctx "context") in
          let flow = flows.(B.get_index r nflows "flow") in
          let size = B.get_uvarint r in
          let v =
            Cag.Builder.fresh_vertex
              { Activity.kind; timestamp = Sim_time.of_ns ts; context; message = { flow; size } }
          in
          verts.(i) <- Some v;
          match !cag with
          | None ->
              if parents <> [] then raise (B.Corrupt (r.B.pos, "root vertex with a parent"));
              cag := Some (Cag.Builder.create ~cag_id v)
          | Some c ->
              Cag.Builder.adopt c v;
              List.iter (fun (k, p) -> Cag.Builder.add_edge k ~parent:p ~child:v) parents
        done;
        let c = Option.get !cag in
        if flags land 1 <> 0 then Cag.Builder.finish c;
        if flags land 2 <> 0 then Cag.Builder.mark_deformed c;
        c
      in
      List.init (B.get_count r "paths") (fun _ -> read_cag ()))
