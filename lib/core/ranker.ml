module Activity = Trace.Activity
module Address = Simnet.Address
module Sim_time = Simnet.Sim_time

type stream = {
  host : string;
  mutable items : Activity.t array;
  mutable len : int;
  mutable cursor : int;
  mutable closed : bool;
  mutable last_ts : Sim_time.t;
  mutable last_fed : Activity.t option;
  mutable last_popped : Sim_time.t;
      (* Highest timestamp committed (popped) from this stream; late
         arrivals below it can no longer be ordered and are quarantined. *)
  mutable lagging : bool;
      (* Evicted as a straggler: [safe_to_pop]/[noise_decidable] stop
         waiting on this stream until its feed catches the watermark. *)
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

type t = {
  window : Sim_time.span;
  skew_allowance : Sim_time.span;
  ablation : ablation;
  straggler_timeout : Sim_time.span option;
  max_buffered : int option;
  reorder_slack : Sim_time.span;
  streams : stream array;  (* one per node log *)
  host_index : (string, int) Hashtbl.t;  (* host -> index in [streams] *)
  queues : Activity.t Deque.t array;  (* parallel to [streams] *)
  buffered_sends : (int * int) Address.Flow_table.t;
      (* flow -> (buffered SEND count, home queue index): every SEND of a
         flow originates on one node, so lookups and promotion searches can
         target exactly that queue. *)
  has_mmap_send : Address.flow -> bool;
  quarantine_log : (reject_reason * Activity.t) Deque.t;
  c : stats;
  mutable watermark : Sim_time.t;  (* max feed timestamp across streams *)
  mutable buffered : int;
  mutable backlog : int;  (* fed but not yet fetched into a queue *)
  mutable force_step : Sim_time.span;
      (* Current deferred-noise fetch increment; doubles while consecutive
         force-fetches fail to surface a candidate, resets on success. *)
}

let make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~reorder_slack
    ~has_mmap_send streams =
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
    buffered_sends = Address.Flow_table.create 256;
    has_mmap_send;
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
    force_step = window;
  }

let create ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ~has_mmap_send collection =
  let streams =
    Array.of_list
      (List.map
         (fun log ->
           let items = Array.of_list (Trace.Log.to_list log) in
           {
             host = Trace.Log.hostname log;
             items;
             len = Array.length items;
             cursor = 0;
             closed = true;
             last_ts =
               (match Array.length items with
               | 0 -> Sim_time.zero
               | n -> items.(n - 1).Activity.timestamp);
             last_fed = None;
             last_popped = Sim_time.zero;
             lagging = false;
           })
         collection)
  in
  make ~window ~skew_allowance ~ablation ~straggler_timeout:None ~max_buffered:None
    ~reorder_slack:(Sim_time.ms 0) ~has_mmap_send streams

let create_online ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ?straggler_timeout ?max_buffered ?(reorder_slack = Sim_time.ms 0) ~has_mmap_send ~hosts ()
    =
  let streams =
    Array.of_list
      (List.map
         (fun host ->
           {
             host;
             items = [||];
             len = 0;
             cursor = 0;
             closed = false;
             last_ts = Sim_time.zero;
             last_fed = None;
             last_popped = Sim_time.zero;
             lagging = false;
           })
         hosts)
  in
  make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~reorder_slack
    ~has_mmap_send streams

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
  match Address.Flow_table.find_opt t.buffered_sends flow with
  | Some (n, _) -> n
  | None -> 0

let count_send t i (a : Activity.t) delta =
  match a.kind with
  | Activity.Send ->
      let flow = a.message.flow in
      let n = buffered_send_count t flow in
      let n' = n + delta in
      if n' <= 0 then Address.Flow_table.remove t.buffered_sends flow
      else Address.Flow_table.replace t.buffered_sends flow (n', i)
  | Activity.Begin | Activity.End_ | Activity.Receive -> ()

let note_buffered t =
  t.c.fetched <- t.c.fetched + 1;
  if t.buffered > t.c.peak_buffered then t.c.peak_buffered <- t.buffered

let push t i a =
  Deque.push_back t.queues.(i) a;
  count_send t i a 1;
  t.buffered <- t.buffered + 1;
  note_buffered t

(* Place a late record among the already-fetched items of its stream. *)
let insert_fetched t i pos a =
  Deque.insert t.queues.(i) pos a;
  count_send t i a 1;
  t.buffered <- t.buffered + 1;
  note_buffered t

(* Insert [a] into [stream.items] at [pos], growing the array if needed. *)
let insert_item stream pos a =
  if stream.len = Array.length stream.items then begin
    let ncap = max 64 (2 * Array.length stream.items) in
    let nitems = Array.make ncap a in
    Array.blit stream.items 0 nitems 0 stream.len;
    stream.items <- nitems
  end;
  for j = stream.len downto pos + 1 do
    stream.items.(j) <- stream.items.(j - 1)
  done;
  stream.items.(pos) <- a;
  stream.len <- stream.len + 1

let feed t (a : Activity.t) =
  let host = a.Activity.context.host in
  match Hashtbl.find_opt t.host_index host with
  | None -> quarantine t Unknown_host a
  | Some i ->
      let stream = t.streams.(i) in
      if stream.closed then quarantine t Closed a
      else if
        match stream.last_fed with Some prev -> Activity.equal prev a | None -> false
      then quarantine t Duplicate a
      else if stream.len > 0 && Sim_time.(a.timestamp < stream.last_ts) then begin
        (* A timestamp regression. Within the skew allowance the record is
           merely late — re-sort it into place; beyond it, or behind what
           this stream already committed, it is unusable. *)
        let late_by = Sim_time.diff stream.last_ts a.timestamp in
        if Sim_time.compare_span late_by t.skew_allowance > 0 then quarantine t Regression a
        else if Sim_time.(a.timestamp < stream.last_popped) then quarantine t Stale a
        else begin
          (match
             Deque.find_index t.queues.(i) (fun (x : Activity.t) ->
                 Sim_time.(a.timestamp < x.timestamp))
           with
          | Some pos -> insert_fetched t i pos a
          | None ->
              (* Behind no fetched item: keep the unfetched region sorted.
                 Regressions are small, so scan from the tail. *)
              let pos = ref stream.len in
              while
                !pos > stream.cursor
                && Sim_time.(a.timestamp < stream.items.(!pos - 1).Activity.timestamp)
              do
                decr pos
              done;
              insert_item stream !pos a;
              t.backlog <- t.backlog + 1);
          stream.last_fed <- Some a;
          t.c.resorted <- t.c.resorted + 1;
          Resorted
        end
      end
      else begin
        insert_item stream stream.len a;
        t.backlog <- t.backlog + 1;
        stream.last_ts <- a.timestamp;
        stream.last_fed <- Some a;
        if Sim_time.(t.watermark < a.timestamp) then t.watermark <- a.timestamp;
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
  Array.iteri
    (fun i s ->
      while s.cursor < s.len && Sim_time.(s.items.(s.cursor).Activity.timestamp <= deadline) do
        push t i s.items.(s.cursor);
        s.cursor <- s.cursor + 1;
        t.backlog <- t.backlog - 1
      done;
      (* Reclaim the consumed prefix so a long-lived online stream holds
         only its unfetched backlog, not everything ever fed. *)
      if s.cursor > 64 && 2 * s.cursor >= s.len then begin
        let remaining = s.len - s.cursor in
        Array.blit s.items s.cursor s.items 0 remaining;
        s.len <- remaining;
        s.cursor <- 0
      end)
    t.streams

let pop t i =
  let a = Deque.pop_front t.queues.(i) in
  count_send t i a (-1);
  t.buffered <- t.buffered - 1;
  let s = t.streams.(i) in
  if Sim_time.(s.last_popped < a.Activity.timestamp) then s.last_popped <- a.Activity.timestamp;
  a

(* Minimum local timestamp among queue heads and unfetched stream fronts:
   the sliding window's left edge. *)
let window_min t =
  let mins = ref None in
  let consider ts = match !mins with None -> mins := Some ts | Some m -> mins := Some (Sim_time.min m ts) in
  Array.iter
    (fun q ->
      match Deque.peek_front q with
      | Some a -> consider a.Activity.timestamp
      | None -> ())
    t.queues;
  Array.iter
    (fun s -> if s.cursor < s.len then consider s.items.(s.cursor).Activity.timestamp)
    t.streams;
  !mins

let refill t =
  match window_min t with
  | None -> ()
  | Some m -> fetch_until t (Sim_time.add m t.window)

(* Indices of non-empty queues, with their head activities. *)
let heads t =
  let acc = ref [] in
  for i = Array.length t.queues - 1 downto 0 do
    match Deque.peek_front t.queues.(i) with
    | Some a -> acc := (i, a) :: !acc
    | None -> ()
  done;
  !acc

let head_receive_matching_mmap t hs =
  let eligible =
    List.filter
      (fun (_, (a : Activity.t)) ->
        Activity.equal_kind a.kind Activity.Receive && t.has_mmap_send a.message.flow)
      hs
  in
  match eligible with
  | [] -> None
  | hs ->
      (* Deterministic choice: earliest local timestamp, then queue index. *)
      Some
        (List.fold_left
           (fun ((_, (best : Activity.t)) as b) ((_, (a : Activity.t)) as c) ->
             if Sim_time.(a.timestamp < best.timestamp) then c else b)
           (List.hd hs) (List.tl hs))

let lowest_priority_non_receive hs =
  let non_receive =
    List.filter (fun (_, (a : Activity.t)) -> not (Activity.equal_kind a.kind Activity.Receive)) hs
  in
  match non_receive with
  | [] -> None
  | hs ->
      Some
        (List.fold_left
           (fun ((_, (best : Activity.t)) as b) ((_, (a : Activity.t)) as c) ->
             let pa = Activity.kind_priority a.kind and pb = Activity.kind_priority best.kind in
             if pa < pb || (pa = pb && Sim_time.(a.timestamp < best.timestamp)) then c else b)
           (List.hd hs) (List.tl hs))

(* Concurrency disturbance: every head is a RECEIVE, but some head's
   matching SEND sits deeper in a queue. Promote the buried SEND to its
   queue's front so Rule 2 can emit it next round — but never across an
   earlier activity of the SEND's own execution entity, which would break
   adjacent-context order (the paper's swap only ever jumps another
   CPU's activities). *)
let try_promote t hs =
  let matching_send flow (x : Activity.t) =
    Activity.equal_kind x.kind Activity.Send && Address.flow_equal x.message.flow flow
  in
  let promotable q i =
    let send_ctx = (Deque.get q i).Activity.context in
    let rec clear j =
      j >= i || ((not (Activity.equal_context (Deque.get q j).Activity.context send_ctx)) && clear (j + 1))
    in
    clear 0
  in
  let promote_for (_, (r : Activity.t)) =
    let flow = r.message.flow in
    match Address.Flow_table.find_opt t.buffered_sends flow with
    | Some (n, qi) when n > 0 -> (
        let q = t.queues.(qi) in
        match Deque.find_index q (matching_send flow) with
        | Some i when i > 0 && promotable q i ->
            Deque.promote q i;
            t.c.promotions <- t.c.promotions + 1;
            true
        | Some _ | None -> false)
    | Some _ | None -> false
  in
  List.exists promote_for hs

(* Deferred noise check: before declaring the earliest suspect RECEIVE
   noise, make sure its matching SEND is not merely outside the fetched
   region — pull input up to [skew_allowance] past the suspect first. *)
let try_force_fetch t hs =
  let earliest =
    List.fold_left
      (fun (best : Activity.t) (_, (a : Activity.t)) ->
        if Sim_time.(a.timestamp < best.timestamp) then a else best)
      (snd (List.hd hs))
      (List.tl hs)
  in
  let target = Sim_time.add earliest.timestamp t.skew_allowance in
  let next_fetchable =
    Array.fold_left
      (fun acc s ->
        if s.cursor < s.len then
          let ts = s.items.(s.cursor).Activity.timestamp in
          match acc with None -> Some ts | Some m -> Some (Sim_time.min m ts)
        else acc)
      None t.streams
  in
  match next_fetchable with
  | Some ts when Sim_time.(ts <= target) ->
      (* Fetch an escalating slice: window-sized at first (cheap when the
         missing SEND is just past the window edge), doubling while the
         search keeps failing so a noise-heavy trace costs O(log allowance)
         extensions per suspect rather than O(allowance / window). *)
      fetch_until t (Sim_time.min target (Sim_time.add ts t.force_step));
      let doubled = Sim_time.span_add t.force_step t.force_step in
      if Sim_time.compare_span doubled t.skew_allowance <= 0 then t.force_step <- doubled
      else t.force_step <- t.skew_allowance;
      t.c.forced_fetches <- t.c.forced_fetches + 1;
      true
  | Some _ | None -> false

type step = Candidate of Activity.t | Need_input | Exhausted

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
   otherwise still arrive and re-sort ahead of [a]. *)
let safe_to_pop t (a : Activity.t) =
  let horizon = Sim_time.add a.Activity.timestamp t.skew_allowance in
  let slack_floor =
    if Sim_time.span_ns t.reorder_slack > 0 then
      Some (Sim_time.add a.Activity.timestamp t.reorder_slack)
    else None
  in
  let ok = ref true in
  Array.iteri
    (fun i s ->
      if not s.closed then begin
        let blocking =
          (Deque.is_empty t.queues.(i) && s.cursor >= s.len && Sim_time.(s.last_ts < horizon))
          || (match slack_floor with Some f -> Sim_time.(s.last_ts < f) | None -> false)
        in
        if blocking && not (straggler_skippable t s) then ok := false
      end)
    t.streams;
  !ok

let fully_consumed t =
  Array.for_all (fun s -> s.closed && s.cursor >= s.len) t.streams

(* Declaring [suspect] noise requires knowing nothing relevant is still on
   the wire: every open stream must have reported past the allowance. *)
let noise_decidable t (suspect : Activity.t) =
  let target = Sim_time.add suspect.Activity.timestamp t.skew_allowance in
  let ok = ref true in
  Array.iter
    (fun s ->
      if (not s.closed) && Sim_time.(s.last_ts < target) && not (straggler_skippable t s) then
        ok := false)
    t.streams;
  !ok

let held t = t.buffered + t.backlog

let over_budget t =
  match t.max_buffered with Some limit -> held t > limit | None -> false

let rec rank_step t =
  refill t;
  match heads t with
  | [] -> if fully_consumed t then Exhausted else Need_input
  | hs -> (
      (* Backpressure: past [max_buffered] held records, stop waiting for
         reassuring input and force-resolve the oldest window instead. *)
      let force = over_budget t in
      let emit i =
        t.c.candidates <- t.c.candidates + 1;
        t.force_step <- t.window;
        Candidate (pop t i)
      in
      let emit_or_wait i a =
        if safe_to_pop t a then emit i
        else if force then begin
          t.c.backpressure_pops <- t.c.backpressure_pops + 1;
          emit i
        end
        else Need_input
      in
      match (if t.ablation.disable_rule1 then None else head_receive_matching_mmap t hs) with
      | Some (i, a) -> emit_or_wait i a
      | None -> (
          match lowest_priority_non_receive hs with
          | Some (i, a) -> emit_or_wait i a
          | None ->
              (* Every head is an unmatched RECEIVE. *)
              if (not t.ablation.disable_promotion) && try_promote t hs then rank_step t
              else if try_force_fetch t hs then rank_step t
              else begin
                (* is_noise: no matching SEND in mmap nor anywhere in the
                   buffer, with the input fetched well past the suspect.
                   Heads whose matching SEND is buffered but unpromotable
                   are not noise; discarding one of those (only possible
                   under adversarial interleavings) is counted separately
                   and asserted zero in tests. *)
                let no_buffered_send (_, (a : Activity.t)) =
                  buffered_send_count t a.message.flow = 0
                in
                let pool, forced =
                  match List.filter no_buffered_send hs with
                  | [] -> (hs, true)
                  | noise_heads -> (noise_heads, false)
                in
                let i, suspect =
                  List.fold_left
                    (fun ((_, (best : Activity.t)) as b) ((_, (a : Activity.t)) as c) ->
                      if Sim_time.(a.timestamp < best.timestamp) then c else b)
                    (List.hd pool) (List.tl pool)
                in
                let decidable = noise_decidable t suspect in
                if (not decidable) && not force then Need_input
                else begin
                  if not decidable then t.c.backpressure_pops <- t.c.backpressure_pops + 1;
                  ignore (pop t i);
                  t.c.noise_discarded <- t.c.noise_discarded + 1;
                  if forced then t.c.forced_discards <- t.c.forced_discards + 1;
                  rank_step t
                end
              end))

let rank t =
  match rank_step t with Candidate a -> Some a | Need_input | Exhausted -> None

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
