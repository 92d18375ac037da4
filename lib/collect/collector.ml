module Engine = Simnet.Engine
module Node = Simnet.Node
module Cpu = Simnet.Cpu
module Tcp = Simnet.Tcp
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module R = Telemetry.Registry

(* One host's delivery counts, updated in place: {!stats} copies them and
   the registry's read-through [host_fields] read them. *)
type host_stats = {
  mutable delivered_frames : int;
  mutable delivered_records : int;
  mutable duplicate_frames : int;
  mutable skipped_frames : int;
  mutable watermark : Sim_time.t;
  mutable next_seq : int;  (* next seq to deliver, in order *)
}

let host_fields =
  let count help name read = R.count ~help name read in
  [
    count "Frames delivered in order to the sink" "pt_collect_delivered_frames_total" (fun c ->
        c.delivered_frames);
    count "Records delivered to the sink" "pt_collect_delivered_records_total" (fun c ->
        c.delivered_records);
    count "Duplicate frames discarded (retransmits)" "pt_collect_duplicate_frames_total"
      (fun c -> c.duplicate_frames);
    count "Frame seqs skipped as permanent agent-side losses" "pt_collect_skipped_frames_total"
      (fun c -> c.skipped_frames);
    R.peak ~help:"Newest delivered host-local watermark (seconds)"
      "pt_collect_watermark_seconds" (fun c -> Sim_time.to_float_s c.watermark);
  ]

type host_state = {
  pending : (int, Frame.t) Hashtbl.t;  (* arrived out of order *)
  hc : host_stats;
}

type counts = { mutable decode_errors : int; mutable boundary_entries : int }

let fields =
  [
    R.count ~help:"Connections dropped on a corrupt frame stream" "pt_collect_decode_errors_total"
      (fun c -> c.decode_errors);
    R.count ~help:"Unresolved-boundary entries delivered alongside reduced frames"
      "pt_collect_boundary_entries_total" (fun c -> c.boundary_entries);
  ]

(* Nameable default so [deliver] can skip materialising records when only
   the arena sink (or nobody) is listening. *)
let default_on_activity (_ : Trace.Activity.t) = ()

type t = {
  wire : Wire.t;
  node : Node.t;
  engine : Engine.t;
  port : int;
  recv_chunk : int;
  cpu_per_frame : Sim_time.span;
  cpu_per_record : Sim_time.span;
  on_activity : Trace.Activity.t -> unit;
  on_arena : Trace.Arena.t -> unit;
  hosts : (string, host_state) Hashtbl.t;
  c : counts;
  telemetry : R.t;
  h_lag : Telemetry.Histogram.t;
}

let host_state t hostname =
  match Hashtbl.find_opt t.hosts hostname with
  | Some s -> s
  | None ->
      let hc =
        {
          watermark = Sim_time.zero;
          delivered_frames = 0;
          delivered_records = 0;
          duplicate_frames = 0;
          skipped_frames = 0;
          next_seq = 0;
        }
      in
      let s = { pending = Hashtbl.create 16; hc } in
      R.register t.telemetry ~labels:[ ("host", hostname) ] host_fields hc;
      Hashtbl.replace t.hosts hostname s;
      s

let deliver t s (f : Frame.t) =
  let hc = s.hc in
  hc.delivered_frames <- hc.delivered_frames + 1;
  let arena = f.Frame.arena in
  let n = Trace.Arena.length arena in
  hc.delivered_records <- hc.delivered_records + n;
  t.c.boundary_entries <- t.c.boundary_entries + List.length f.Frame.boundary;
  if Sim_time.(f.Frame.watermark > hc.watermark) then hc.watermark <- f.Frame.watermark;
  let now = Engine.now t.engine in
  for i = 0 to n - 1 do
    (* delivery lag vs the probe's stamp; clamped at zero because the
       stamp is a skewed host-local clock *)
    let ts = Sim_time.of_ns (Trace.Arena.ts arena i) in
    let lag = Sim_time.span_to_float_s (Sim_time.diff now ts) in
    Telemetry.Histogram.observe t.h_lag (Float.max 0. lag)
  done;
  (* Records are materialised only when someone asked for them; the
     native sink receives the frame's arena as-is. *)
  if t.on_activity != default_on_activity then Trace.Arena.iter arena t.on_activity;
  t.on_arena arena

let handle_frame t (f : Frame.t) =
  let s = host_state t f.Frame.host in
  (* [oldest] is the agent's resend horizon: anything missing below it
     was evicted at the agent and will never arrive *)
  if f.Frame.oldest > s.hc.next_seq then begin
    (* The horizon jumped past a gap.  Frames stashed in [pending] below
       the new horizon DID arrive — deliver them in seq order before
       advancing, and count only the genuinely-missing seqs as skipped. *)
    for seq = s.hc.next_seq to f.Frame.oldest - 1 do
      match Hashtbl.find_opt s.pending seq with
      | Some g ->
          Hashtbl.remove s.pending seq;
          deliver t s g
      | None -> s.hc.skipped_frames <- s.hc.skipped_frames + 1
    done;
    s.hc.next_seq <- f.Frame.oldest
  end;
  if f.Frame.seq < s.hc.next_seq || Hashtbl.mem s.pending f.Frame.seq then
    s.hc.duplicate_frames <- s.hc.duplicate_frames + 1
  else Hashtbl.replace s.pending f.Frame.seq f;
  (* flush even on a duplicate: a retransmit's fresh [oldest] may have
     advanced [next_seq] past a gap that stashed frames were waiting on *)
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt s.pending s.hc.next_seq with
    | Some g ->
        Hashtbl.remove s.pending s.hc.next_seq;
        s.hc.next_seq <- s.hc.next_seq + 1;
        deliver t s g
    | None -> continue := false
  done;
  s

let serve t sock =
  let proc = Node.spawn t.node ~program:"ptcollect" in
  let dec = Frame.Decoder.create () in
  (* cumulative acks, per connection: re-acking on a fresh connection
     tells a restarted agent where to resume *)
  let last_acked = Hashtbl.create 4 in
  let ack_host hostname (s : host_state) k =
    let cum = s.hc.next_seq - 1 in
    let prev = Option.value (Hashtbl.find_opt last_acked hostname) ~default:(-1) in
    if cum > prev then begin
      Hashtbl.replace last_acked hostname cum;
      Wire.send t.wire sock ~proc (Frame.encode_ack cum) ~k
    end
    else k ()
  in
  let rec loop () =
    Wire.recv t.wire sock ~proc ~max:t.recv_chunk
      ~k:(fun data ->
        if String.equal data "" then Tcp.close (Wire.stack t.wire) sock
        else begin
          Frame.Decoder.feed dec data;
          match Frame.Decoder.drain dec with
          | Error _ ->
              t.c.decode_errors <- t.c.decode_errors + 1;
              Tcp.close (Wire.stack t.wire) sock
          | Ok [] -> loop ()
          | Ok frames ->
              let work =
                List.fold_left
                  (fun acc (f : Frame.t) ->
                    Sim_time.span_add acc
                      (Sim_time.span_add t.cpu_per_frame
                         (Sim_time.span_scale
                            (float_of_int (Frame.records f))
                            t.cpu_per_record)))
                  Sim_time.span_zero frames
              in
              Cpu.submit (Node.cpu t.node) ~work (fun () ->
                  let touched = Hashtbl.create 4 in
                  List.iter
                    (fun (f : Frame.t) ->
                      let s = handle_frame t f in
                      Hashtbl.replace touched f.Frame.host s)
                    frames;
                  (* one cumulative ack per touched host, then read on *)
                  let rec ack_all = function
                    | [] -> loop ()
                    | (hostname, s) :: rest ->
                        ack_host hostname s (fun () -> ack_all rest)
                  in
                  ack_all (Hashtbl.fold (fun h s acc -> (h, s) :: acc) touched []))
        end)
      ()
  in
  loop ()

let create ?(telemetry = R.default) ?(recv_chunk = 8192) ?(cpu_per_frame = Sim_time.us 50)
    ?(cpu_per_record = Sim_time.ns 500) ?(on_activity = default_on_activity)
    ?(on_arena = fun _ -> ()) ~wire ~node ~port () =
  if recv_chunk <= 0 then invalid_arg "Collector.create: recv_chunk";
  let t =
    {
      wire;
      node;
      engine = Node.engine node;
      port;
      recv_chunk;
      cpu_per_frame;
      cpu_per_record;
      on_activity;
      on_arena;
      hosts = Hashtbl.create 8;
      c = { decode_errors = 0; boundary_entries = 0 };
      telemetry;
      h_lag =
        R.histogram telemetry
          ~help:"Record delivery lag at the collector vs the probe timestamp"
          "pt_collect_delivery_lag_seconds";
    }
  in
  R.register telemetry fields t.c;
  Tcp.listen (Wire.stack wire) node ~port ~accept:(fun sock -> serve t sock);
  t

let endpoint t = Address.endpoint (Node.ip t.node) t.port

let stats t =
  Hashtbl.fold
    (fun hostname (s : host_state) acc -> (hostname, { s.hc with next_seq = s.hc.next_seq }) :: acc)
    t.hosts []
  |> List.sort compare

let delivered_records t =
  Hashtbl.fold (fun _ (s : host_state) acc -> acc + s.hc.delivered_records) t.hosts 0

let decode_errors t = t.c.decode_errors
let boundary_entries t = t.c.boundary_entries
