module Activity = Trace.Activity
module Address = Simnet.Address
module Intern = Trace.Intern
module Id_table = Intern.Id_table
module Sim_time = Simnet.Sim_time

(* A record on its way through the ranker, with the interned ids it was
   given once, on entry: every later lookup is keyed by these ints. *)
type candidate = { activity : Activity.t; ctx : int; flow : int }

type stream = {
  host : string;
  mutable host_block : string;
      (* The hostname block this stream's records last carried: records
         of one host share it, so [feed] finds their stream with [==]. *)
  mutable items : Activity.t array;
  mutable ctxs : int array;  (* [items]' context ids *)
  mutable flows : int array;  (* [items]' flow ids; -1 for BEGIN/END *)
  mutable len : int;
  mutable cursor : int;
  mutable closed : bool;
  mutable last_ts : Sim_time.t;
  mutable last_fed : Activity.t;  (* [no_record] until the first feed *)
  mutable last_popped : Sim_time.t;
      (* Highest timestamp committed (popped) from this stream; late
         arrivals below it can no longer be ordered and are quarantined. *)
  mutable lagging : bool;
      (* Evicted as a straggler: [safe_to_pop]/[noise_decidable] stop
         waiting on this stream until its feed catches the watermark. *)
}

(* Timestamp order as an int comparison the compiler inlines. *)
let before (a : Sim_time.t) (b : Sim_time.t) = (a :> int) < (b :> int)
let not_after (a : Sim_time.t) (b : Sim_time.t) = (a :> int) <= (b :> int)

let no_endpoint = Address.endpoint (Address.ip_of_int 0) 0

(* A fresh block no fed record can be physically equal to. *)
let no_record =
  {
    Activity.kind = Activity.Begin;
    timestamp = Sim_time.zero;
    context = { Activity.host = ""; program = ""; pid = 0; tid = 0 };
    message = { Activity.flow = Address.flow ~src:no_endpoint ~dst:no_endpoint; size = 0 };
  }

type reject_reason = Unknown_host | Closed | Duplicate | Regression | Stale

let reject_reason_to_string = function
  | Unknown_host -> "unknown_host"
  | Closed -> "closed"
  | Duplicate -> "duplicate"
  | Regression -> "regression"
  | Stale -> "stale"

let all_reject_reasons = [ Unknown_host; Closed; Duplicate; Regression; Stale ]

type feed_result = Accepted | Resorted | Quarantined of reject_reason

(* Every count the ranker keeps, in one record updated in place: {!stats}
   copies it and the registry's read-through [fields] read it. *)
type stats = {
  mutable fetched : int;
  mutable candidates : int;
  mutable noise_discarded : int;
  mutable promotions : int;
  mutable forced_fetches : int;
  mutable forced_discards : int;
  mutable peak_buffered : int;
  mutable resorted : int;
  mutable quarantined : (reject_reason * int) list;
  mutable stragglers_evicted : int;
  mutable straggler_resyncs : int;
  mutable backpressure_pops : int;
  mutable stragglers_active : int;
}

type ablation = { disable_rule1 : bool; disable_promotion : bool }

let no_ablation = { disable_rule1 = false; disable_promotion = false }

(* Most recent quarantined records kept for inspection; counts are exact,
   the log is a ring. *)
let quarantine_cap = 256

(* Marks an empty queue in [heads]. *)
let no_candidate = { activity = no_record; ctx = -1; flow = -1 }

(* Per-ranker id memo. Decoded and arena-materialised records share one
   canonical context block and one flow block per interned id, so small
   direct-mapped caches, keyed on a few ints and hit on [==], skip
   [Intern] for nearly every record; anything else falls back to
   [Intern]. Context caches are per stream, since every host numbers its
   processes and threads alike. The memo belongs to one ranker, so no two
   domains ever share it. *)
type memo = {
  ctx_blocks : Activity.context array;  (* [ctx_slots] per stream *)
  ctx_ids : int array;
  flow_blocks : Address.flow array;
  flow_ids : int array;
}

let ctx_slots = 256 (* per stream; a power of two *)
let flow_slots = 4096 (* a power of two *)

let memo_create ~streams =
  {
    ctx_blocks = Array.make (streams * ctx_slots) no_record.context;
    ctx_ids = Array.make (streams * ctx_slots) 0;
    flow_blocks = Array.make flow_slots no_record.message.flow;
    flow_ids = Array.make flow_slots 0;
  }

let ctx_id m ~stream (c : Activity.context) =
  let s = (stream * ctx_slots) + (((c.pid * 31) + c.tid) land (ctx_slots - 1)) in
  if m.ctx_blocks.(s) == c then m.ctx_ids.(s)
  else begin
    let id = Intern.context_id c in
    m.ctx_blocks.(s) <- c;
    m.ctx_ids.(s) <- id;
    id
  end

let flow_slot ({ src; dst } : Address.flow) =
  let ip = Address.ip_to_int in
  ((((((ip src.ip * 31) + src.port) * 31) + ip dst.ip) * 31) + dst.port) land (flow_slots - 1)

(* Only SENDs and RECEIVEs are ever looked up by flow. *)
let flow_id m (a : Activity.t) =
  match a.kind with
  | Activity.Begin | Activity.End_ -> -1
  | Activity.Send | Activity.Receive ->
      let f = a.message.flow in
      let s = flow_slot f in
      if m.flow_blocks.(s) == f then m.flow_ids.(s)
      else begin
        let id = Intern.flow_id f in
        m.flow_blocks.(s) <- f;
        m.flow_ids.(s) <- id;
        id
      end

(* Buffered SENDs of one flow: every SEND of a flow originates on one
   node, so lookups and promotion searches can target exactly [home]. *)
type sends = { mutable count : int; mutable home : int }

type t = {
  window : Sim_time.span;
  skew_allowance : Sim_time.span;
  ablation : ablation;
  straggler_timeout : Sim_time.span option;
  max_buffered : int option;
  reorder_slack : Sim_time.span;
  streams : stream array;  (* one per node log *)
  host_index : (string, int) Hashtbl.t;  (* host -> index in [streams] *)
  queues : candidate Deque.t array;  (* parallel to [streams] *)
  heads : candidate array;
      (* Each queue's front, or [no_candidate]: the rules scan heads with
         plain loads. Kept in step by every queue mutation ([sync_head]). *)
  buffered_sends : sends Id_table.t;  (* flow id -> its buffered SENDs *)
  has_mmap_send : int -> bool;
  memo : memo;
  quarantine_log : (reject_reason * Activity.t) Deque.t;
  c : stats;
  mutable watermark : Sim_time.t;  (* max feed timestamp across streams *)
  mutable buffered : int;
  mutable backlog : int;  (* fed but not yet fetched into a queue *)
  mutable fetched_to : Sim_time.t option;
      (* Every unfetched item is later than this, so fetching up to it
         again would find nothing; [None] once a feed may have broken
         that. *)
  mutable force_step : Sim_time.span;
      (* Current deferred-noise fetch increment; doubles while consecutive
         force-fetches fail to surface a candidate, resets on success. *)
}

let make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~reorder_slack
    ~has_mmap_send ~memo streams =
  if Sim_time.span_ns window <= 0 then invalid_arg "Ranker.create: window must be positive";
  let host_index = Hashtbl.create (Array.length streams) in
  Array.iteri (fun i s -> Hashtbl.replace host_index s.host i) streams;
  (* A slack beyond the skew allowance is unusable: [feed] quarantines
     regressions larger than the allowance, so no later record can arrive
     below [last_ts - skew_allowance] anyway. *)
  let reorder_slack =
    if Sim_time.compare_span reorder_slack skew_allowance > 0 then skew_allowance
    else reorder_slack
  in
  {
    window;
    skew_allowance;
    ablation;
    straggler_timeout;
    max_buffered;
    reorder_slack;
    streams;
    host_index;
    queues = Array.map (fun (_ : stream) -> Deque.create ()) streams;
    heads = Array.make (Array.length streams) no_candidate;
    buffered_sends = Id_table.create 256;
    has_mmap_send;
    memo;
    quarantine_log = Deque.create ();
    c =
      {
        fetched = 0;
        candidates = 0;
        noise_discarded = 0;
        promotions = 0;
        forced_fetches = 0;
        forced_discards = 0;
        peak_buffered = 0;
        resorted = 0;
        quarantined = List.map (fun r -> (r, 0)) all_reject_reasons;
        stragglers_evicted = 0;
        straggler_resyncs = 0;
        backpressure_pops = 0;
        stragglers_active = 0;
      };
    watermark = Sim_time.zero;
    buffered = 0;
    backlog = 0;
    fetched_to = None;
    force_step = window;
  }

(* Batch records enter here: each is interned once, into its stream's id
   columns. *)
let create ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ~has_mmap_send collection =
  let memo = memo_create ~streams:(List.length collection) in
  let streams =
    Array.of_list
      (List.mapi
         (fun i log ->
           let items = Trace.Log.to_array log in
           let host = Trace.Log.hostname log in
           {
             host;
             host_block = host;
             items;
             ctxs = Array.map (fun (a : Activity.t) -> ctx_id memo ~stream:i a.context) items;
             flows = Array.map (flow_id memo) items;
             len = Array.length items;
             cursor = 0;
             closed = true;
             last_ts =
               (match Array.length items with
               | 0 -> Sim_time.zero
               | n -> items.(n - 1).Activity.timestamp);
             last_fed = no_record;
             last_popped = Sim_time.zero;
             lagging = false;
           })
         collection)
  in
  make ~window ~skew_allowance ~ablation ~straggler_timeout:None ~max_buffered:None
    ~reorder_slack:(Sim_time.ms 0) ~has_mmap_send ~memo streams

let create_online ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ?straggler_timeout ?max_buffered ?(reorder_slack = Sim_time.ms 0) ~has_mmap_send ~hosts ()
    =
  let streams =
    Array.of_list
      (List.map
         (fun host ->
           {
             host;
             host_block = host;
             items = [||];
             ctxs = [||];
             flows = [||];
             len = 0;
             cursor = 0;
             closed = false;
             last_ts = Sim_time.zero;
             last_fed = no_record;
             last_popped = Sim_time.zero;
             lagging = false;
           })
         hosts)
  in
  make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~reorder_slack
    ~has_mmap_send ~memo:(memo_create ~streams:(List.length hosts)) streams

let quarantine t reason a =
  t.c.quarantined <- List.map (fun (r, n) -> (r, if r = reason then n + 1 else n)) t.c.quarantined;
  if Deque.length t.quarantine_log >= quarantine_cap then ignore (Deque.pop_front t.quarantine_log);
  Deque.push_back t.quarantine_log (reason, a);
  Quarantined reason

let close_input t =
  Array.iter (fun s -> s.closed <- true) t.streams;
  (* closed streams no longer count as evicted *)
  t.c.stragglers_active <- 0

let buffered_send_count t flow =
  match Id_table.find t.buffered_sends flow with
  | b -> b.count
  | exception Not_found -> 0

let count_send t i (e : candidate) delta =
  match e.activity.kind with
  | Activity.Send -> (
      match Id_table.find t.buffered_sends e.flow with
      | b ->
          b.count <- b.count + delta;
          b.home <- i;
          if b.count <= 0 then Id_table.remove t.buffered_sends e.flow
      | exception Not_found ->
          if delta > 0 then Id_table.add t.buffered_sends e.flow { count = delta; home = i })
  | Activity.Begin | Activity.End_ | Activity.Receive -> ()

let note_buffered t =
  t.c.fetched <- t.c.fetched + 1;
  if t.buffered > t.c.peak_buffered then t.c.peak_buffered <- t.buffered

let sync_head t i =
  let q = t.queues.(i) in
  t.heads.(i) <- (if Deque.is_empty q then no_candidate else Deque.front q)

let push t i e =
  Deque.push_back t.queues.(i) e;
  if t.heads.(i) == no_candidate then t.heads.(i) <- e;
  count_send t i e 1;
  t.buffered <- t.buffered + 1;
  note_buffered t

(* Place a late record among the already-fetched items of its stream. *)
let insert_fetched t i pos e =
  Deque.insert t.queues.(i) pos e;
  sync_head t i;
  count_send t i e 1;
  t.buffered <- t.buffered + 1;
  note_buffered t

(* Insert [a] and its ids into [stream] at [pos], growing the columns if
   needed. *)
let insert_item stream pos a ~ctx ~flow =
  if stream.len = Array.length stream.items then begin
    let ncap = max 64 (2 * Array.length stream.items) in
    let grow col fill =
      let ncol = Array.make ncap fill in
      Array.blit col 0 ncol 0 stream.len;
      ncol
    in
    stream.items <- grow stream.items a;
    stream.ctxs <- grow stream.ctxs 0;
    stream.flows <- grow stream.flows 0
  end;
  for j = stream.len downto pos + 1 do
    stream.items.(j) <- stream.items.(j - 1);
    stream.ctxs.(j) <- stream.ctxs.(j - 1);
    stream.flows.(j) <- stream.flows.(j - 1)
  done;
  stream.items.(pos) <- a;
  stream.ctxs.(pos) <- ctx;
  stream.flows.(pos) <- flow;
  stream.len <- stream.len + 1

(* The stream of [host], or -1: first by [==] on each stream's last
   hostname block, hashing the string only on a miss. *)
let stream_of_host t host =
  let n = Array.length t.streams and i = ref 0 in
  while !i < n && t.streams.(!i).host_block != host do
    incr i
  done;
  if !i < n then !i
  else
    match Hashtbl.find_opt t.host_index host with
    | Some i ->
        t.streams.(i).host_block <- host;
        i
    | None -> -1

(* Live records enter here. *)
let feed t (a : Activity.t) =
  let context = a.Activity.context in
  let i = stream_of_host t context.host in
  if i < 0 then quarantine t Unknown_host a
  else
    let stream = t.streams.(i) in
    if stream.closed then quarantine t Closed a
    else if stream.last_fed != no_record && Activity.equal stream.last_fed a then
      quarantine t Duplicate a
    else if stream.len > 0 && before a.timestamp stream.last_ts then begin
      (* A timestamp regression. Within the skew allowance the record is
         merely late — re-sort it into place; beyond it, or behind what
         this stream already committed, it is unusable. *)
      let late_by = Sim_time.diff stream.last_ts a.timestamp in
      if Sim_time.compare_span late_by t.skew_allowance > 0 then quarantine t Regression a
      else if before a.timestamp stream.last_popped then quarantine t Stale a
      else begin
        let ctx = ctx_id t.memo ~stream:i context and flow = flow_id t.memo a in
        (match
           Deque.find_index t.queues.(i) (fun (x : candidate) ->
               before a.timestamp x.activity.timestamp)
         with
        | Some pos -> insert_fetched t i pos { activity = a; ctx; flow }
        | None ->
            (* Behind no fetched item: keep the unfetched region sorted.
               Regressions are small, so scan from the tail. *)
            let pos = ref stream.len in
            while
              !pos > stream.cursor
              && before a.timestamp stream.items.(!pos - 1).Activity.timestamp
            do
              decr pos
            done;
            insert_item stream !pos a ~ctx ~flow;
            t.backlog <- t.backlog + 1;
            t.fetched_to <- None);
        stream.last_fed <- a;
        t.c.resorted <- t.c.resorted + 1;
        Resorted
      end
    end
    else begin
      insert_item stream stream.len a ~ctx:(ctx_id t.memo ~stream:i context)
        ~flow:(flow_id t.memo a);
      t.backlog <- t.backlog + 1;
      t.fetched_to <- None;
      stream.last_ts <- a.timestamp;
      stream.last_fed <- a;
      if before t.watermark a.timestamp then t.watermark <- a.timestamp;
      (if stream.lagging then
         let caught_up =
           match t.straggler_timeout with
           | Some limit ->
               Sim_time.compare_span (Sim_time.diff t.watermark a.timestamp) limit <= 0
           | None -> true
         in
         if caught_up then begin
           (* Reintegrate: the stream rejoins the wait set and the next
              [refill] performs the resync fetch of its backlog. *)
           stream.lagging <- false;
           t.c.stragglers_active <- t.c.stragglers_active - 1;
           t.c.straggler_resyncs <- t.c.straggler_resyncs + 1
         end);
      Accepted
    end

(* Pull every stream item with timestamp <= deadline into its queue. *)
let fetch_until t deadline =
  (match t.fetched_to with
  | Some d when not_after deadline d -> ()
  | Some _ | None -> t.fetched_to <- Some deadline);
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.(i) in
    while s.cursor < s.len && not_after s.items.(s.cursor).Activity.timestamp deadline do
      let k = s.cursor in
      push t i { activity = s.items.(k); ctx = s.ctxs.(k); flow = s.flows.(k) };
      s.cursor <- k + 1;
      t.backlog <- t.backlog - 1
    done;
    (* Reclaim the consumed prefix so a long-lived online stream holds
       only its unfetched backlog, not everything ever fed. *)
    if s.cursor > 64 && 2 * s.cursor >= s.len then begin
      let remaining = s.len - s.cursor in
      Array.blit s.items s.cursor s.items 0 remaining;
      Array.blit s.ctxs s.cursor s.ctxs 0 remaining;
      Array.blit s.flows s.cursor s.flows 0 remaining;
      s.len <- remaining;
      s.cursor <- 0
    end
  done

let pop t i =
  let e = Deque.pop_front t.queues.(i) in
  sync_head t i;
  count_send t i e (-1);
  t.buffered <- t.buffered - 1;
  let s = t.streams.(i) in
  let ts = e.activity.Activity.timestamp in
  if before s.last_popped ts then s.last_popped <- ts;
  e

(* Fetch up to one window past the sliding window's left edge: the minimum
   local timestamp among queue heads and unfetched stream fronts. *)
let refill t =
  let found = ref false and left = ref Sim_time.zero in
  for i = 0 to Array.length t.heads - 1 do
    let e = t.heads.(i) in
    if e != no_candidate then begin
      let ts = e.activity.Activity.timestamp in
      if (not !found) || before ts !left then begin
        found := true;
        left := ts
      end
    end;
    let s = t.streams.(i) in
    if s.cursor < s.len then begin
      let ts = s.items.(s.cursor).Activity.timestamp in
      if (not !found) || before ts !left then begin
        found := true;
        left := ts
      end
    end
  done;
  if !found then begin
    let deadline = Sim_time.add !left t.window in
    match t.fetched_to with
    | Some d when not_after deadline d -> ()
    | Some _ | None -> fetch_until t deadline
  end

(* The queue of the earliest head (lowest queue index on ties) among the
   heads satisfying [p]; -1 when none does. *)
let earliest_head t p =
  let best = ref (-1) and best_ts = ref Sim_time.zero in
  for i = 0 to Array.length t.heads - 1 do
    let e = t.heads.(i) in
    if e != no_candidate then begin
      let ts = e.activity.Activity.timestamp in
      if (!best < 0 || before ts !best_ts) && p t e then begin
        best := i;
        best_ts := ts
      end
    end
  done;
  !best

(* Rule 1: the RECEIVE head whose matching SEND is in the mmap, earliest
   local timestamp first, then lowest queue index; -1 when there is none.
   [has_mmap_send] is pure, so [earliest_head] only asks about heads that
   would win. *)
let mmap_receive t (e : candidate) =
  match e.activity.Activity.kind with
  | Activity.Receive -> t.has_mmap_send e.flow
  | Activity.Begin | Activity.Send | Activity.End_ -> false

(* Rule 2: the non-RECEIVE head of lowest type priority, then earliest
   local timestamp, then lowest queue index; -1 when every head is a
   RECEIVE. *)
let rule2 t =
  let best = ref (-1) and best_p = ref 0 and best_ts = ref Sim_time.zero in
  for i = 0 to Array.length t.heads - 1 do
    let e = t.heads.(i) in
    if e != no_candidate then begin
      let a = e.activity in
      match a.Activity.kind with
      | Activity.Receive -> ()
      | (Activity.Begin | Activity.Send | Activity.End_) as kind ->
          let p = Activity.kind_priority kind in
          if !best < 0 || p < !best_p || (p = !best_p && before a.timestamp !best_ts)
          then begin
            best := i;
            best_p := p;
            best_ts := a.timestamp
          end
    end
  done;
  !best

let any_head _ (_ : candidate) = true
let no_buffered_send t (e : candidate) = buffered_send_count t e.flow = 0

(* Whether the SEND at [i] in [q] can move to the front without jumping an
   earlier activity of its own execution entity, which would break
   adjacent-context order (the paper's swap only ever jumps another CPU's
   activities). *)
let promotable q i =
  let send_ctx = (Deque.get q i).ctx in
  let rec clear j = j >= i || ((Deque.get q j).ctx <> send_ctx && clear (j + 1)) in
  clear 0

let matching_send flow (x : candidate) =
  Activity.equal_kind x.activity.kind Activity.Send && x.flow = flow

(* Promote the buffered SEND matching RECEIVE head [r], if any. *)
let promote_for t (r : candidate) =
  match Id_table.find t.buffered_sends r.flow with
  | { count; home } when count > 0 -> (
      let q = t.queues.(home) in
      match Deque.find_index q (matching_send r.flow) with
      | Some i when i > 0 && promotable q i ->
          Deque.promote q i;
          sync_head t home;
          t.c.promotions <- t.c.promotions + 1;
          true
      | Some _ | None -> false)
  | _ | (exception Not_found) -> false

(* Concurrency disturbance: every head is a RECEIVE, but some head's
   matching SEND sits deeper in a queue. Promote the buried SEND to its
   queue's front so Rule 2 can emit it next round. Heads are tried in
   queue order. *)
let try_promote t =
  let n = Array.length t.heads and i = ref 0 and promoted = ref false in
  while (not !promoted) && !i < n do
    let e = t.heads.(!i) in
    if e != no_candidate then promoted := promote_for t e;
    incr i
  done;
  !promoted

(* Deferred noise check: before declaring the earliest suspect RECEIVE
   noise, make sure its matching SEND is not merely outside the fetched
   region — pull input up to [skew_allowance] past the suspect first. *)
let try_force_fetch t =
  let earliest = t.heads.(earliest_head t any_head).activity in
  let target = Sim_time.add earliest.timestamp t.skew_allowance in
  let found = ref false and next = ref Sim_time.zero in
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.(i) in
    if s.cursor < s.len then begin
      let ts = s.items.(s.cursor).Activity.timestamp in
      if (not !found) || before ts !next then begin
        found := true;
        next := ts
      end
    end
  done;
  if !found && not_after !next target then begin
    (* Fetch an escalating slice: window-sized at first (cheap when the
       missing SEND is just past the window edge), doubling while the
       search keeps failing so a noise-heavy trace costs O(log allowance)
       extensions per suspect rather than O(allowance / window). *)
    fetch_until t (Sim_time.min target (Sim_time.add !next t.force_step));
    let doubled = Sim_time.span_add t.force_step t.force_step in
    if Sim_time.compare_span doubled t.skew_allowance <= 0 then t.force_step <- doubled
    else t.force_step <- t.skew_allowance;
    t.c.forced_fetches <- t.c.forced_fetches + 1;
    true
  end
  else false

type step = Candidate of candidate | Need_input | Exhausted

(* An open stream that would block the pipeline but has fallen further
   than [straggler_timeout] behind the global feed watermark is evicted
   from the wait set — it is presumed silent (crashed probe, partitioned
   host), and a silent host must not stall everyone else forever. Returns
   whether the stream may be skipped. *)
let straggler_skippable t s =
  s.lagging
  ||
  match t.straggler_timeout with
  | Some limit when Sim_time.compare_span (Sim_time.diff t.watermark s.last_ts) limit > 0 ->
      s.lagging <- true;
      t.c.stragglers_active <- t.c.stragglers_active + 1;
      t.c.stragglers_evicted <- t.c.stragglers_evicted + 1;
      true
  | Some _ | None -> false

(* Popping candidate [a] commits to its position in the causal order; with
   live input this is only safe once every still-open stream that has
   nothing buffered has reported past [a.ts + skew_allowance] - no future
   activity can then belong before [a]. Closed streams and streams with
   buffered or fetched-but-unranked data behave exactly as offline. With a
   non-zero [reorder_slack], every open stream must additionally have
   reported past [a.ts + slack]: a record delayed by up to the slack could
   otherwise still arrive and re-sort ahead of [a]. Every blocking stream
   is checked for straggling, even once the answer is known. *)
let safe_to_pop t (a : Activity.t) =
  let horizon = Sim_time.add a.Activity.timestamp t.skew_allowance in
  let slack = Sim_time.span_ns t.reorder_slack > 0 in
  let slack_floor = Sim_time.add a.Activity.timestamp t.reorder_slack in
  let ok = ref true in
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.(i) in
    if not s.closed then begin
      let blocking =
        (t.heads.(i) == no_candidate && s.cursor >= s.len && before s.last_ts horizon)
        || (slack && before s.last_ts slack_floor)
      in
      if blocking && not (straggler_skippable t s) then ok := false
    end
  done;
  !ok

let fully_consumed t =
  Array.for_all (fun s -> s.closed && s.cursor >= s.len) t.streams

(* Declaring [suspect] noise requires knowing nothing relevant is still on
   the wire: every open stream must have reported past the allowance. *)
let noise_decidable t (suspect : Activity.t) =
  let target = Sim_time.add suspect.Activity.timestamp t.skew_allowance in
  let ok = ref true in
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.(i) in
    if (not s.closed) && before s.last_ts target && not (straggler_skippable t s) then
      ok := false
  done;
  !ok

let held t = t.buffered + t.backlog

let over_budget t =
  match t.max_buffered with Some limit -> held t > limit | None -> false

let emit t i =
  t.c.candidates <- t.c.candidates + 1;
  t.force_step <- t.window;
  Candidate (pop t i)

(* Backpressure: past [max_buffered] held records, stop waiting for
   reassuring input and force-resolve the oldest window instead. *)
let emit_or_wait t i ~force =
  if safe_to_pop t t.heads.(i).activity then emit t i
  else if force then begin
    t.c.backpressure_pops <- t.c.backpressure_pops + 1;
    emit t i
  end
  else Need_input

let rec rank_step t =
  refill t;
  if t.buffered = 0 then if fully_consumed t then Exhausted else Need_input
  else
    let force = over_budget t in
    let i = if t.ablation.disable_rule1 then -1 else earliest_head t mmap_receive in
    if i >= 0 then emit_or_wait t i ~force
    else
      let i = rule2 t in
      if i >= 0 then emit_or_wait t i ~force else all_receive t ~force

(* Every head is an unmatched RECEIVE. *)
and all_receive t ~force =
  if (not t.ablation.disable_promotion) && try_promote t then rank_step t
  else if try_force_fetch t then rank_step t
  else begin
    (* is_noise: no matching SEND in mmap nor anywhere in the buffer, with
       the input fetched well past the suspect. Heads whose matching SEND
       is buffered but unpromotable are not noise; discarding one of those
       (only possible under adversarial interleavings) is counted
       separately and asserted zero in tests. *)
    let i = earliest_head t no_buffered_send in
    let forced = i < 0 in
    let i = if forced then earliest_head t any_head else i in
    let decidable = noise_decidable t t.heads.(i).activity in
    if (not decidable) && not force then Need_input
    else begin
      if not decidable then t.c.backpressure_pops <- t.c.backpressure_pops + 1;
      ignore (pop t i);
      t.c.noise_discarded <- t.c.noise_discarded + 1;
      if forced then t.c.forced_discards <- t.c.forced_discards + 1;
      rank_step t
    end
  end

let rank t =
  match rank_step t with Candidate c -> Some c.activity | Need_input | Exhausted -> None

let buffered t = t.buffered

let stragglers_active t = t.c.stragglers_active

let quarantine_log t = Deque.to_list t.quarantine_log

let quarantined_total t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.c.quarantined

let stats t = { t.c with fetched = t.c.fetched }
let counts t = t.c

module R = Telemetry.Registry

let fields =
  let count name help read = R.count ~help name read in
  [
    count "pt_ranker_fetched_total" "Activities pulled into the ranker buffer" (fun c -> c.fetched);
    count "pt_ranker_candidates_total" "Candidates emitted by the ranker" (fun c -> c.candidates);
    count "pt_ranker_noise_discarded_total" "RECEIVEs discarded as noise" (fun c ->
        c.noise_discarded);
    count "pt_ranker_promotions_total" "Concurrency-disturbance head swaps" (fun c ->
        c.promotions);
    count "pt_ranker_forced_fetches_total" "Window extensions for deferred noise checks"
      (fun c -> c.forced_fetches);
    count "pt_ranker_forced_discards_total"
      "Discards of receives with unpromotable buffered sends" (fun c -> c.forced_discards);
    count "pt_ranker_resorted_total"
      "Late records re-sorted into place within the skew allowance" (fun c -> c.resorted);
    count "pt_ranker_stragglers_evicted_total"
      "Streams marked lagging past the straggler timeout" (fun c -> c.stragglers_evicted);
    count "pt_ranker_straggler_resyncs_total" "Lagging streams reintegrated after catching up"
      (fun c -> c.straggler_resyncs);
    count "pt_ranker_backpressure_pops_total"
      "Oldest-window force-resolutions under max_buffered" (fun c -> c.backpressure_pops);
    R.peak ~help:"High-water mark of buffered activities" "pt_ranker_peak_buffered" (fun c ->
        float_of_int c.peak_buffered);
  ]
  @ List.map
      (fun r ->
        R.count ~help:"Malformed records quarantined by the ranker"
          ~labels:[ ("reason", reject_reason_to_string r) ]
          "pt_ranker_quarantined_total"
          (fun c -> List.assoc r c.quarantined))
      all_reject_reasons

let register reg t = R.register reg fields t.c
