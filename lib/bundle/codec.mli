(** Bundle payload codecs: the causal paths with their back-links, and
    the pattern profile JSON.

    A bundle's [paths] section is exactly a PTH1 message
    ({!Core.Hierarchy.encode_paths}) over the correlated CAGs. Its
    [links] section holds the {e back-link table} PTH1 leaves out: per
    vertex, the [(host, record)] coordinates of the raw activity records
    that produced it, where [host] indexes {!decoded.link_hosts} and
    [record] indexes that host's log in the bundle's canonical record
    order ({!Reader.collection}). Every path node in a bundle therefore
    resolves to the exact stored bytes behind it — the micro end of the
    paper's §5.4 macro↔micro workflow.

    {v
    links section:
    nhost  uvarint, then nhost host names (uvarint length + bytes)
    then, per path in PTH1 order and per vertex in causal order:
           nlink uvarint, then nlink of: host-index record-index (uvarint)
    v} *)

type path = {
  cag : Core.Cag.t;
  links : (int * int) list array;
      (** Back-links per vertex, indexed by causal position; pairs are
          [(host index, record index)]. *)
}

type decoded = { link_hosts : string array; paths : path list }

val encode_links : link_hosts:string array -> path list -> string
(** The [links] section body; the [paths] section is
    {!Core.Hierarchy.encode_paths} of the same paths' CAGs, in the same
    order. Deterministic.
    @raise Invalid_argument if a path's link rows do not match its
    vertices or a link names a host outside [link_hosts]. *)

val decode_links :
  string -> pos:int -> len:int -> Core.Cag.t list -> (decoded, string) result
(** Attach the [links] section at [pos] (spanning [len] bytes) inside the
    bundle string to the CAGs decoded from its [paths] section
    ({!Core.Hierarchy.decode_paths}). The section must supply exactly
    one row per vertex, and every host index must be in range. Errors
    read [corrupt at offset N: reason] with bundle-relative offsets. *)

(** {1 Pattern profiles} *)

type component_stat = { comp : Core.Latency.component; share : float; mean_s : float }

type profile = {
  name : string;  (** Tier route, e.g. ["httpd>java>mysqld>java>httpd"]. *)
  signature : string;  (** {!Core.Pattern.signature_of} canonical form. *)
  count : int;
  cag_ids : int list;  (** Member path ids, in input order. *)
  mean_total_s : float;  (** 0 when the pattern has no finished member. *)
  components : component_stat list;  (** In critical-path appearance order. *)
}

val shares : profile -> (Core.Latency.component * float) list
(** The percentage profile in the form {!Core.Analysis.compare_profiles}
    consumes. *)

val profiles_of_cags : Core.Cag.t list -> profile list
(** Classify and aggregate — the packer's source of truth, identical to
    what the live pipeline reports ({!Core.Pattern.classify} order). *)

val profiles_to_json : profile list -> Core.Json.t
val profiles_of_json : Core.Json.t -> (profile list, string) result
