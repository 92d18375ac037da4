(** Per-node activity logs and multi-node collections.

    Each node's tracer appends to its own log in local-clock order; the
    Correlator consumes a [collection] — one sorted log per node — exactly
    as PreciseTracer gathers files from the cluster. *)

type t
(** A single node's log. *)

val create : hostname:string -> t
val hostname : t -> string

val append : t -> Activity.t -> unit
(** Activities must be appended in non-decreasing local-timestamp order
    (which a monotonic local clock guarantees); violations raise
    [Invalid_argument] to catch probe bugs early. *)

val length : t -> int

val to_list : t -> Activity.t list
(** In timestamp order. *)

val to_array : t -> Activity.t array
(** {!to_list} as a fresh array, without the intermediate list. *)

val of_list : hostname:string -> Activity.t list -> t
(** Builds a log from activities in any order; they are sorted. *)

val iter : t -> (Activity.t -> unit) -> unit

type collection = t list
(** One log per node. *)

val total : collection -> int

val map_activities : (Activity.t -> Activity.t option) -> collection -> collection
(** Rewrite or drop activities node by node (order preserved); used for
    BEGIN/END transformation, loss injection and filtering. *)

val save : collection -> dir:string -> unit
(** Write one [<hostname>.trace] file per node in TCP_TRACE format. *)

val load : dir:string -> (collection, string) result
(** Read every [*.trace] file in [dir]. *)
