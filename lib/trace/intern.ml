module Address = Simnet.Address
module R = Telemetry.Registry

(* One process-wide table per attribute domain. Ids are dense, stable for
   the life of the process and never recycled, so they can be stored in
   flat arrays ({!Arena}), hashed as ints, and compared with [==]. Inserts
   are serialised on a single mutex (dune's parallel query pool and the
   sharded correlator's worker domains intern concurrently); reads by id
   take no lock at all. *)

let mu = Mutex.create ()

(* An append-only array published as one immutable snapshot. Inserts
   (under [mu]) write the new slot first, then publish the array and its
   length together with one atomic store, so a reader that sees length
   [n] also sees every slot below [n] — with no lock, even while another
   domain is growing the table. *)
type 'a snapshot = { arr : 'a array; len : int }
type 'a vec = 'a snapshot Atomic.t

let vec_make dummy n : 'a vec = Atomic.make { arr = Array.make n dummy; len = 0 }

let vec_push (v : 'a vec) x =
  let { arr; len } = Atomic.get v in
  let arr =
    if len < Array.length arr then arr
    else begin
      let bigger = Array.make (2 * Array.length arr) arr.(0) in
      Array.blit arr 0 bigger 0 len;
      bigger
    end
  in
  arr.(len) <- x;
  Atomic.set v { arr; len = len + 1 }

let vec_length (v : 'a vec) = (Atomic.get v).len

(* Lock-free read of an issued id. *)
let vec_get (v : 'a vec) i what =
  let { arr; len } = Atomic.get v in
  if i < 0 || i >= len then invalid_arg what;
  arr.(i)

(* ---- strings (hostnames and program names) ---- *)

let string_tbl : (string, int) Hashtbl.t = Hashtbl.create 256
let string_rev : string vec = vec_make "" 256

(* ---- contexts ---- *)

(* parts are (host string id, program string id, pid, tid); [ctx_rev]
   additionally keeps one canonical {!Activity.context} record per id so
   materialising a record allocates nothing and [==] works as a context
   fast path. *)
let ctx_tbl : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 256

let dummy_ctx = { Activity.host = ""; program = ""; pid = 0; tid = 0 }
let ctx_rev : ((int * int * int * int) * Activity.context) vec =
  vec_make ((0, 0, 0, 0), dummy_ctx) 256

(* ---- flows ---- *)

(* keyed by the two endpoints packed as [ip lsl 16 lor port] (48 bits
   each, so the pair hashes and compares as two immediate ints). *)
let flow_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 256

let dummy_flow =
  Address.flow
    ~src:(Address.endpoint (Address.ip_of_int 0) 0)
    ~dst:(Address.endpoint (Address.ip_of_int 0) 0)

let flow_rev : ((int * int * int * int) * Address.flow) vec =
  vec_make ((0, 0, 0, 0), dummy_flow) 256

(* ---- telemetry (registered lazily; inserts are rare) ---- *)

let strings_gauge =
  lazy (R.gauge R.default ~help:"Interned strings in the process-wide table" "pt_intern_strings")

let contexts_gauge =
  lazy (R.gauge R.default ~help:"Interned contexts in the process-wide table" "pt_intern_contexts")

let flows_gauge =
  lazy (R.gauge R.default ~help:"Interned flows in the process-wide table" "pt_intern_flows")

(* ---- strings ---- *)

(* [*_u] variants assume [mu] is held: the hot entry points take the lock
   once for a whole multi-table operation. None of them raises (argument
   checks happen before locking), so callers lock and unlock around them
   directly, without a closure. *)
let string_id_u s =
  match Hashtbl.find_opt string_tbl s with
  | Some i -> i
  | None ->
      let i = vec_length string_rev in
      vec_push string_rev s;
      Hashtbl.replace string_tbl s i;
      R.set (Lazy.force strings_gauge) (float_of_int (i + 1));
      i

let string_id s =
  Mutex.lock mu;
  let i = string_id_u s in
  Mutex.unlock mu;
  i

let string_of_id i = vec_get string_rev i "Intern.string_of_id: unknown id"

(* ---- contexts ---- *)

let context_id_parts_u ~host ~program ~pid ~tid =
  let key = (host, program, pid, tid) in
  match Hashtbl.find_opt ctx_tbl key with
  | Some i -> i
  | None ->
      let i = vec_length ctx_rev in
      let strings = (Atomic.get string_rev).arr in
      let canonical = { Activity.host = strings.(host); program = strings.(program); pid; tid } in
      vec_push ctx_rev (key, canonical);
      Hashtbl.replace ctx_tbl key i;
      R.set (Lazy.force contexts_gauge) (float_of_int (i + 1));
      i

let context_id_parts ~host ~program ~pid ~tid =
  (* Issued string ids stay valid forever, so checking before the lock is
     as good as checking under it. *)
  let strings = vec_length string_rev in
  if host < 0 || host >= strings then invalid_arg "Intern.context_id_parts: bad host id";
  if program < 0 || program >= strings then invalid_arg "Intern.context_id_parts: bad program id";
  Mutex.lock mu;
  let i = context_id_parts_u ~host ~program ~pid ~tid in
  Mutex.unlock mu;
  i

let context_id (c : Activity.context) =
  Mutex.lock mu;
  let host = string_id_u c.host in
  let program = string_id_u c.program in
  let i = context_id_parts_u ~host ~program ~pid:c.pid ~tid:c.tid in
  Mutex.unlock mu;
  i

let ctx_entry i = vec_get ctx_rev i "Intern.context_of_id: unknown id"
let context_of_id i = snd (ctx_entry i)
let context_parts_of_id i = fst (ctx_entry i)

let compare_context_id a b =
  if a = b then 0 else Activity.compare_context (context_of_id a) (context_of_id b)

(* ---- flows ---- *)

let pack_endpoint ip port = (ip lsl 16) lor (port land 0xffff)

let flow_id_parts ~src_ip ~src_port ~dst_ip ~dst_port =
  let src_ip_v = Address.ip_of_int src_ip and dst_ip_v = Address.ip_of_int dst_ip in
  if src_port < 0 || src_port > 0xffff then invalid_arg "Intern.flow_id_parts: bad src port";
  if dst_port < 0 || dst_port > 0xffff then invalid_arg "Intern.flow_id_parts: bad dst port";
  let key = (pack_endpoint src_ip src_port, pack_endpoint dst_ip dst_port) in
  Mutex.lock mu;
  let i =
    match Hashtbl.find_opt flow_tbl key with
    | Some i -> i
    | None ->
        let i = vec_length flow_rev in
        let canonical =
          Address.flow
            ~src:(Address.endpoint src_ip_v src_port)
            ~dst:(Address.endpoint dst_ip_v dst_port)
        in
        vec_push flow_rev ((src_ip, src_port, dst_ip, dst_port), canonical);
        Hashtbl.replace flow_tbl key i;
        R.set (Lazy.force flows_gauge) (float_of_int (i + 1));
        i
  in
  Mutex.unlock mu;
  i

let flow_id (f : Address.flow) =
  flow_id_parts ~src_ip:(Address.ip_to_int f.src.ip) ~src_port:f.src.port
    ~dst_ip:(Address.ip_to_int f.dst.ip) ~dst_port:f.dst.port

let flow_entry i = vec_get flow_rev i "Intern.flow_of_id: unknown id"
let flow_of_id i = snd (flow_entry i)
let flow_parts_of_id i = fst (flow_entry i)

let counts () = (vec_length string_rev, vec_length ctx_rev, vec_length flow_rev)

module Id_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Ids are dense and non-negative, so they are their own hash. *)
  let hash (i : int) = i
end)
