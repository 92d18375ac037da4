(* Counters and gauges are single atomics and histograms carry their own
   mutex, so metric *updates* are domain-safe lock-free (or one short
   critical section). The registry itself — the family table, each
   family's entry list and the read-through sources — is guarded by
   [lock], taken only on handle resolution, registration and snapshots,
   never on the hot update path. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type metric =
  | Counter_m of counter
  | Gauge_m of gauge
  | Hist_m of Histogram.t

type entry = { labels : (string * string) list; metric : metric }

type meta = {
  help : string;
  kind : string;  (* every label set of a family has one kind *)
  mutable entries : entry list;  (* newest first *)
}

(* A read-through field: how to read one metric off a layer's counts, and
   how samples of several instances with the same name and labels combine. *)
type 'a read = Count of ('a -> int) | Level of ('a -> float) | Peak of ('a -> float)

type 'a field = { name : string; help : string; labels : (string * string) list; read : 'a read }

(* One registered layer instance: its static field table and its counts.
   Nothing else is reachable from here, so a long-lived registry retains a
   few words per instance however large the instance's run was. *)
type source =
  | Source : { labels : (string * string) list; fields : 'a field list; counts : 'a } -> source

type t = {
  lock : Mutex.t;
  families : (string, meta) Hashtbl.t;
  mutable sources : source list;
}

let create () = { lock = Mutex.create (); families = Hashtbl.create 64; sources = [] }
let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.families;
      t.sources <- [])

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Hist_m _ -> "histogram"

let clash name want got =
  invalid_arg (Printf.sprintf "Telemetry.Registry: %s is a %s, not a %s" name got want)

(* The family [name], created with [kind] if new; raises on a kind clash.
   Caller holds the lock. *)
let family t ~help ~kind name =
  match Hashtbl.find_opt t.families name with
  | Some m -> if not (String.equal m.kind kind) then clash name kind m.kind else m
  | None ->
      let m = { help; kind; entries = [] } in
      Hashtbl.replace t.families name m;
      m

(* Find-or-create the entry for (name, labels); [make] builds the metric,
   [cast] projects an existing one. Runs under the registry lock so two
   domains resolving the same handle always get the same metric. *)
let resolve t ~help ~labels ~kind name ~make ~cast =
  let labels = normalize_labels labels in
  locked t (fun () ->
      let meta = family t ~help ~kind name in
      match List.find_opt (fun (e : entry) -> e.labels = labels) meta.entries with
      | Some e -> cast name e.metric
      | None ->
          let metric = make () in
          meta.entries <- { labels; metric } :: meta.entries;
          cast name metric)

let counter t ?(help = "") ?(labels = []) name =
  resolve t ~help ~labels ~kind:"counter" name
    ~make:(fun () -> Counter_m (Atomic.make 0))
    ~cast:(fun name -> function
      | Counter_m c -> c
      | m -> clash name "counter" (kind_name m))

let incr c = Atomic.incr c

let add c n =
  if n < 0 then invalid_arg "Telemetry.Registry.add: counters only go up";
  ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c

let gauge t ?(help = "") ?(labels = []) name =
  resolve t ~help ~labels ~kind:"gauge" name
    ~make:(fun () -> Gauge_m (Atomic.make 0.0))
    ~cast:(fun name -> function
      | Gauge_m g -> g
      | m -> clash name "gauge" (kind_name m))

let set g v = Atomic.set g v

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let gauge_value g = Atomic.get g

let histogram t ?(help = "") ?(labels = []) ?buckets_per_decade name =
  resolve t ~help ~labels ~kind:"histogram" name
    ~make:(fun () -> Hist_m (Histogram.create ?buckets_per_decade ()))
    ~cast:(fun name -> function
      | Hist_m h -> h
      | m -> clash name "histogram" (kind_name m))

let observe = Histogram.observe

type span = { hist : Histogram.t; started : float }

let start_span t ?labels name =
  { hist = histogram t ?labels name; started = Unix.gettimeofday () }

let stop_span span =
  let elapsed = Unix.gettimeofday () -. span.started in
  Histogram.observe span.hist elapsed;
  elapsed

let time t ?labels name f =
  let span = start_span t ?labels name in
  Fun.protect ~finally:(fun () -> ignore (stop_span span)) f

(* Read-through fields *)

let count ?(help = "") ?(labels = []) name read = { name; help; labels; read = Count read }
let level ?(help = "") ?(labels = []) name read = { name; help; labels; read = Level read }
let peak ?(help = "") ?(labels = []) name read = { name; help; labels; read = Peak read }

(* Read-through families get kinds of their own, so a name is never both
   read through and updated through a handle. *)
let read_kind = function
  | Count _ -> "read-through counter"
  | Level _ | Peak _ -> "read-through gauge"

let register t ?(labels = []) fields counts =
  locked t (fun () ->
      List.iter
        (fun (f : _ field) -> ignore (family t ~help:f.help ~kind:(read_kind f.read) f.name))
        fields;
      t.sources <- Source { labels; fields; counts } :: t.sources)

type value =
  | Counter of int
  | Gauge of float
  | Hist of {
      count : int;
      sum : float;
      min_v : float;
      max_v : float;
      p50 : float;
      p90 : float;
      p99 : float;
      buckets : Histogram.bucket list;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; help : string; samples : sample list }

let value_of_metric = function
  | Counter_m c -> Counter (Atomic.get c)
  | Gauge_m g -> Gauge (Atomic.get g)
  | Hist_m h ->
      Hist
        {
          count = Histogram.count h;
          sum = Histogram.sum h;
          min_v = Histogram.min_value h;
          max_v = Histogram.max_value h;
          p50 = Histogram.quantile h 0.50;
          p90 = Histogram.quantile h 0.90;
          p99 = Histogram.quantile h 0.99;
          buckets = Histogram.buckets h;
        }

(* Fold one read-through sample into a family's samples: counts and
   levels add, peaks keep the larger value. *)
let combine samples labels read counts =
  let merged =
    match (read, List.assoc_opt labels samples) with
    | Count f, Some (Counter n) -> Counter (n + f counts)
    | Count f, _ -> Counter (f counts)
    | Level f, Some (Gauge v) -> Gauge (v +. f counts)
    | Peak f, Some (Gauge v) -> Gauge (Float.max v (f counts))
    | (Level f | Peak f), _ -> Gauge (f counts)
  in
  (labels, merged) :: List.remove_assoc labels samples

let snapshot t =
  (* Collect the structure under the registry lock, read the metric
     values outside it (histogram readers take their own locks). *)
  let entries, sources =
    locked t (fun () ->
        ( Hashtbl.fold
            (fun name (meta : meta) acc -> (name, meta.help, meta.entries) :: acc)
            t.families [],
          t.sources ))
  in
  let read = Hashtbl.create 64 in
  List.iter
    (fun (Source { labels; fields; counts }) ->
      List.iter
        (fun (f : _ field) ->
          let labels = normalize_labels (labels @ f.labels) in
          let samples = Option.value ~default:[] (Hashtbl.find_opt read f.name) in
          Hashtbl.replace read f.name (combine samples labels f.read counts))
        fields)
    sources;
  List.map
    (fun (name, help, entries) ->
      let samples =
        List.map
          (fun (e : entry) -> { labels = e.labels; value = value_of_metric e.metric })
          entries
        @ List.map
            (fun (labels, value) -> { labels; value })
            (Option.value ~default:[] (Hashtbl.find_opt read name))
        |> List.sort (fun a b -> compare a.labels b.labels)
      in
      { name; help; samples })
    entries
  |> List.sort (fun a b -> String.compare a.name b.name)

let find_sample families ?(labels = []) name =
  let labels = normalize_labels labels in
  match List.find_opt (fun f -> String.equal f.name name) families with
  | None -> None
  | Some f ->
      List.find_opt (fun s -> s.labels = labels) f.samples |> Option.map (fun s -> s.value)
