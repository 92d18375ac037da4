module Activity = Trace.Activity
module Address = Simnet.Address
module Id_table = Trace.Intern.Id_table
module Sim_time = Simnet.Sim_time

(* Every count the engine keeps, in one record updated in place: {!stats}
   copies it and the registry's read-through [fields] read it. *)
type stats = {
  mutable cags_started : int;
  mutable cags_finished : int;
  mutable send_merges : int;
  mutable end_merges : int;
  mutable receive_merges : int;
  mutable partial_receives : int;
  mutable unmatched_receives : int;
  mutable thread_reuse_blocked : int;
  mutable orphans : int;
  mutable crossed_boundaries : int;
  mutable mmap_entries : int;
  mutable live_vertices : int;
  mutable peak_live_vertices : int;
  mutable evicted_sends : int;
}

(* Both indexes are keyed on the interned ids the ranker hands over with
   each candidate: a lookup is an int-indexed bucket probe, with no
   interning, string hashing or structural comparison on the correlation
   hot path. *)
type t = {
  mmap : Cag.vertex Deque.t Id_table.t;  (* flow id -> outstanding SENDs *)
  mutable in_mmap : Bytes.t;
      (* Bit [flow] is set while [mmap] holds the flow: Rule 1's probe,
         asked several times per step, is one byte load. *)
  cmap : Cag.vertex Id_table.t;  (* context id -> latest vertex *)
  on_finished : Cag.t -> unit;
  mutable rev_finished : Cag.t list;
  mutable open_cags : Cag.t list;
      (* CAGs begun, most recent first; finished ones are dropped lazily
         (see [finish_cag]). *)
  mutable open_listed : int;  (* length of [open_cags] *)
  mutable next_cag_id : int;
  c : stats;
}

let create ?(on_finished = fun _ -> ()) () =
  {
    mmap = Id_table.create 1024;
    in_mmap = Bytes.make 1024 '\000';
    cmap = Id_table.create 256;
    on_finished;
    rev_finished = [];
    open_cags = [];
    open_listed = 0;
    next_cag_id = 0;
    c =
      {
        cags_started = 0;
        cags_finished = 0;
        send_merges = 0;
        end_merges = 0;
        receive_merges = 0;
        partial_receives = 0;
        unmatched_receives = 0;
        thread_reuse_blocked = 0;
        orphans = 0;
        crossed_boundaries = 0;
        mmap_entries = 0;
        live_vertices = 0;
        peak_live_vertices = 0;
        evicted_sends = 0;
      };
  }

let has_mmap_send t flow =
  let byte = flow lsr 3 in
  byte < Bytes.length t.in_mmap
  && Char.code (Bytes.get t.in_mmap byte) land (1 lsl (flow land 7)) <> 0

let mark_in_mmap t flow present =
  let byte = flow lsr 3 in
  if byte >= Bytes.length t.in_mmap then begin
    let bigger = Bytes.make (max (byte + 1) (2 * Bytes.length t.in_mmap)) '\000' in
    Bytes.blit t.in_mmap 0 bigger 0 (Bytes.length t.in_mmap);
    t.in_mmap <- bigger
  end;
  let bits = Char.code (Bytes.get t.in_mmap byte) and bit = 1 lsl (flow land 7) in
  Bytes.set t.in_mmap byte (Char.chr (if present then bits lor bit else bits land lnot bit))

let mmap_remove t flow =
  Id_table.remove t.mmap flow;
  mark_in_mmap t flow false

let mmap_deque t flow =
  match Id_table.find t.mmap flow with
  | q -> q
  | exception Not_found ->
      let q = Deque.create () in
      Id_table.add t.mmap flow q;
      mark_in_mmap t flow true;
      q

let mmap_push t flow vertex =
  Deque.push_back (mmap_deque t flow) vertex;
  t.c.mmap_entries <- t.c.mmap_entries + 1

(* Re-register a SEND whose earlier bytes were already fully consumed but
   which just grew by a merged syscall. It logically precedes any newer
   outstanding SEND on the flow, hence the front. *)
let mmap_push_front t flow vertex =
  Deque.push_front (mmap_deque t flow) vertex;
  t.c.mmap_entries <- t.c.mmap_entries + 1

(* The flow's oldest outstanding SEND; [Not_found] when there is none. *)
let mmap_front t flow =
  match Id_table.find t.mmap flow with
  | q when not (Deque.is_empty q) -> Deque.front q
  | _ -> raise Not_found

let mmap_pop t flow =
  match Id_table.find t.mmap flow with
  | q when not (Deque.is_empty q) ->
      ignore (Deque.pop_front q);
      t.c.mmap_entries <- t.c.mmap_entries - 1;
      if Deque.is_empty q then mmap_remove t flow
  | _ | (exception Not_found) -> ()

let bump_live t n =
  t.c.live_vertices <- t.c.live_vertices + n;
  if t.c.live_vertices > t.c.peak_live_vertices then t.c.peak_live_vertices <- t.c.live_vertices

(* The CAG a vertex belongs to, unless that CAG has already been output:
   attaching new activities to a finished CAG would corrupt emitted
   results (DESIGN.md clarification on recycled entities after discarded
   noise). *)
let open_cag_of (v : Cag.vertex) =
  match v.Cag.cag with Some cag as open_ when not (Cag.is_finished cag) -> open_ | _ -> None

let same_open_cag a b =
  match (open_cag_of a, open_cag_of b) with
  | Some ca, Some cb -> ca == cb
  | _ -> false

(* The context's latest vertex; [Not_found] when it has none yet. *)
let cmap_parent t ctx = Id_table.find t.cmap ctx
let cmap_set t ctx v = Id_table.replace t.cmap ctx v

(* Attach [v] under [parent]'s open CAG (if any) with a context edge. *)
let attach_context t ~parent v =
  match open_cag_of parent with
  | Some cag ->
      Cag.Builder.adopt cag v;
      Cag.Builder.add_edge Cag.Context_edge ~parent ~child:v
  | None -> t.c.orphans <- t.c.orphans + 1

let handle_begin t ctx (a : Activity.t) =
  let root = Cag.Builder.fresh_vertex a in
  let cag = Cag.Builder.create ~cag_id:t.next_cag_id root in
  t.next_cag_id <- t.next_cag_id + 1;
  t.c.cags_started <- t.c.cags_started + 1;
  t.open_cags <- cag :: t.open_cags;
  t.open_listed <- t.open_listed + 1;
  bump_live t 1;
  cmap_set t ctx root

let finish_cag t cag =
  (* A SEND whose bytes were never fully matched by a RECEIVE means the
     receiving side of the interaction is missing from the input (log
     loss, an agent outage): the path still closes at its END, but it is
     a truncated rendition of the real request and must say so. *)
  if
    List.exists
      (fun (v : Cag.vertex) ->
        Activity.equal_kind v.Cag.activity.Activity.kind Activity.Send
        && v.Cag.unreceived > 0)
      cag.Cag.rev_vertices
  then Cag.Builder.mark_deformed cag;
  Cag.Builder.finish cag;
  t.c.cags_finished <- t.c.cags_finished + 1;
  t.rev_finished <- cag :: t.rev_finished;
  (* The finished CAG stays in [open_cags] until finished entries
     outnumber the open ones: amortised O(1) per path instead of a list
     copy per END. *)
  let still_open = t.c.cags_started - t.c.cags_finished in
  if t.open_listed > (2 * still_open) + 64 then begin
    t.open_cags <- List.filter (fun c -> not (Cag.is_finished c)) t.open_cags;
    t.open_listed <- still_open
  end;
  t.c.live_vertices <- t.c.live_vertices - Cag.size cag;
  t.on_finished cag

let handle_end t ctx (a : Activity.t) =
  match cmap_parent t ctx with
  | parent
    when Activity.equal_kind parent.Cag.activity.Activity.kind Activity.End_
         && Address.flow_equal parent.Cag.activity.Activity.message.flow a.message.flow ->
      (* A multi-part response: fold this syscall into the END vertex. *)
      Cag.Builder.grow_send parent a.message.size;
      Cag.Builder.add_source parent a;
      t.c.end_merges <- t.c.end_merges + 1
  | parent ->
      let v = Cag.Builder.fresh_vertex a in
      bump_live t 1;
      (match open_cag_of parent with
      | Some cag ->
          Cag.Builder.adopt cag v;
          Cag.Builder.add_edge Cag.Context_edge ~parent ~child:v;
          cmap_set t ctx v;
          finish_cag t cag
      | None ->
          t.c.orphans <- t.c.orphans + 1;
          cmap_set t ctx v)
  | exception Not_found ->
      let v = Cag.Builder.fresh_vertex a in
      bump_live t 1;
      t.c.orphans <- t.c.orphans + 1;
      cmap_set t ctx v

let handle_send t ctx flow (a : Activity.t) =
  match cmap_parent t ctx with
  | parent
    when Activity.equal_kind parent.Cag.activity.Activity.kind Activity.Send
         && Address.flow_equal parent.Cag.activity.Activity.message.flow a.message.flow ->
      (* Consecutive sends of one logical message: accumulate size. If the
         earlier bytes were already fully matched (a fast receiver drained
         them before this syscall was ranked — possible because Rule 1
         outranks Rule 2), the vertex left the mmap and must re-enter it. *)
      let was_drained = parent.Cag.unreceived = 0 in
      Cag.Builder.grow_send parent a.message.size;
      Cag.Builder.add_source parent a;
      if was_drained then mmap_push_front t flow parent;
      t.c.send_merges <- t.c.send_merges + 1
  | parent ->
      let v = Cag.Builder.fresh_vertex a in
      bump_live t 1;
      attach_context t ~parent v;
      cmap_set t ctx v;
      mmap_push t flow v
  | exception Not_found ->
      (* First activity seen in this context (e.g. an untraced peer): the
         SEND still enters the mmap so its RECEIVEs correlate. *)
      let v = Cag.Builder.fresh_vertex a in
      bump_live t 1;
      t.c.orphans <- t.c.orphans + 1;
      cmap_set t ctx v;
      mmap_push t flow v

(* The existing RECEIVE vertex of [sender]'s message in context [a.context],
   if the message was completed once already and has since grown. *)
let existing_receive_of t ctx sender (a : Activity.t) =
  let is_that_child (kind, (c : Cag.vertex)) =
    kind = Cag.Message_edge
    && Activity.equal_kind c.Cag.activity.Activity.kind Activity.Receive
    && Activity.equal_context c.Cag.activity.Activity.context a.context
  in
  match List.find_opt is_that_child sender.Cag.children with
  | Some (_, child) -> (
      (* Only reuse it while it is still the context's latest activity;
         otherwise fall back to a fresh vertex. *)
      match cmap_parent t ctx with
      | v when v == child -> Some child
      | _ | (exception Not_found) -> None)
  | None -> None

let handle_receive t ctx flow (a : Activity.t) =
  match mmap_front t flow with
  | exception Not_found -> t.c.unmatched_receives <- t.c.unmatched_receives + 1
  | sender ->
      let remaining = Cag.Builder.consume sender a.message.size in
      if remaining > 0 then begin
        (* No vertex yet: park the chunk on the sender so the completing
           RECEIVE vertex can claim the whole message's provenance. *)
        Cag.Builder.stash_pending_source sender a;
        t.c.partial_receives <- t.c.partial_receives + 1
      end
      else begin
        if remaining < 0 then t.c.crossed_boundaries <- t.c.crossed_boundaries + 1;
        mmap_pop t flow;
        let full_size = sender.Cag.activity.Activity.message.size in
        let chunks = Cag.Builder.take_pending_sources sender in
        match existing_receive_of t ctx sender a with
        | Some v ->
            (* The message completed before (its SEND grew afterwards):
               extend the same RECEIVE vertex to the new completion. *)
            Cag.Builder.refresh_receive v ~timestamp:a.timestamp ~size:full_size;
            List.iter (Cag.Builder.add_source v) chunks;
            Cag.Builder.add_source v a;
            t.c.receive_merges <- t.c.receive_merges + 1
        | None ->
            let v = Cag.Builder.fresh_vertex a in
            bump_live t 1;
            (* The completing chunk created the vertex; earlier chunks of
               the same message precede it in observation order. *)
            Cag.Builder.add_earlier_sources v chunks;
            Cag.Builder.set_full_size v full_size;
            (match open_cag_of sender with
            | Some cag ->
                Cag.Builder.adopt cag v;
                Cag.Builder.add_edge Cag.Message_edge ~parent:sender ~child:v;
                (* Thread-reuse check (pseudo-code lines 29-32): the adjacent
                   context edge is added only if both parents share the CAG. *)
                (match cmap_parent t ctx with
                | parent_cntx when same_open_cag parent_cntx sender ->
                    Cag.Builder.add_edge Cag.Context_edge ~parent:parent_cntx ~child:v
                | _ -> t.c.thread_reuse_blocked <- t.c.thread_reuse_blocked + 1
                | exception Not_found -> ())
            | None -> t.c.orphans <- t.c.orphans + 1);
            cmap_set t ctx v
      end

let step_ids t ~ctx ~flow (a : Activity.t) =
  match a.kind with
  | Activity.Begin -> handle_begin t ctx a
  | Activity.End_ -> handle_end t ctx a
  | Activity.Send -> handle_send t ctx flow a
  | Activity.Receive -> handle_receive t ctx flow a

let live_vertices t = t.c.live_vertices
let mmap_entries t = t.c.mmap_entries

let gc t ~older_than =
  let evicted = ref 0 in
  let stale_flows = ref [] in
  Id_table.iter
    (fun flow q ->
      (* Entries are FIFO per flow, so stale ones sit at the front. *)
      let continue = ref true in
      while !continue do
        match Deque.peek_front q with
        | Some (v : Cag.vertex)
          when Sim_time.(v.Cag.activity.Activity.timestamp < older_than) ->
            ignore (Deque.pop_front q);
            t.c.mmap_entries <- t.c.mmap_entries - 1;
            incr evicted;
            (match v.Cag.cag with
            | None -> t.c.live_vertices <- t.c.live_vertices - 1
            | Some _ -> (
                t.c.evicted_sends <- t.c.evicted_sends + 1;
                (* The owning CAG can no longer match this SEND's receives:
                   if it is still open it will stay unfinished, so flag it
                   deformed rather than silently losing it. *)
                match open_cag_of v with
                | Some cag -> Cag.Builder.mark_deformed cag
                | None -> ()))
        | Some _ | None -> continue := false
      done;
      if Deque.is_empty q then stale_flows := flow :: !stale_flows)
    t.mmap;
  List.iter (mmap_remove t) !stale_flows;
  !evicted

let finished t = List.rev t.rev_finished
let unfinished t = List.rev (List.filter (fun c -> not (Cag.is_finished c)) t.open_cags)

let stats t = { t.c with cags_started = t.c.cags_started }
let counts t = t.c

module R = Telemetry.Registry

let fields =
  let count name help read = R.count ~help name read in
  [
    count "pt_engine_cags_started_total" "CAGs begun (BEGIN correlated)" (fun c ->
        c.cags_started);
    count "pt_engine_cags_finished_total" "CAGs completed (END correlated)" (fun c ->
        c.cags_finished);
    count "pt_engine_send_merges_total" "SEND syscalls folded into an earlier SEND vertex"
      (fun c -> c.send_merges);
    count "pt_engine_end_merges_total" "END syscalls folded into an earlier END vertex"
      (fun c -> c.end_merges);
    count "pt_engine_receive_merges_total" "RECEIVE completions folded into an existing vertex"
      (fun c -> c.receive_merges);
    count "pt_engine_partial_receives_total" "RECEIVEs leaving a SEND partly unmatched"
      (fun c -> c.partial_receives);
    count "pt_engine_unmatched_receives_total" "RECEIVEs with no mmap entry" (fun c ->
        c.unmatched_receives);
    count "pt_engine_thread_reuse_blocked_total" "Context edges suppressed across CAGs"
      (fun c -> c.thread_reuse_blocked);
    count "pt_engine_orphans_total" "Vertices correlated outside any CAG" (fun c -> c.orphans);
    count "pt_engine_crossed_boundaries_total" "RECEIVEs spanning two logical messages"
      (fun c -> c.crossed_boundaries);
    count "pt_engine_evicted_sends_total"
      "Open-CAG SEND vertices evicted by GC (CAG flagged deformed)" (fun c -> c.evicted_sends);
    R.level ~help:"Outstanding SEND vertices in the mmap" "pt_engine_mmap_entries" (fun c ->
        float_of_int c.mmap_entries);
    R.level ~help:"Vertices of unfinished CAGs plus orphans" "pt_engine_live_vertices"
      (fun c -> float_of_int c.live_vertices);
    R.peak ~help:"High-water mark of live vertices" "pt_engine_peak_live_vertices" (fun c ->
        float_of_int c.peak_live_vertices);
  ]

let register reg t = R.register reg fields t.c
