(** A mutable double-ended queue with random access and promotion.

    The ranker keeps one of these per node. Besides the usual deque
    operations it supports [promote], which moves an inner element to the
    front — the generalisation of the paper's head-swap that resolves
    concurrency disturbances (its Fig. 6 swaps positions 0 and 1; a
    matching SEND can sit deeper when several requests collide). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit
val peek_front : 'a t -> 'a option

val front : 'a t -> 'a
(** {!peek_front} without the option, for allocation-free hot loops.
    @raise Invalid_argument on an empty deque. *)

val pop_front : 'a t -> 'a
(** @raise Invalid_argument on an empty deque. *)

val get : 'a t -> int -> 'a
(** [get t i] is the i-th element from the front (0-based).
    @raise Invalid_argument when out of bounds. *)

val promote : 'a t -> int -> unit
(** [promote t i] moves the element at index [i] to the front, shifting
    elements [0..i-1] back one slot; order among them is preserved.
    [promote t 1] is the paper's head swap. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert t i x] places [x] at index [i] from the front, shifting
    elements [i..] back one slot; [insert t 0] is {!push_front} and
    [insert t (length t)] is {!push_back}. Used by the ranker to re-sort a
    late-but-tolerable record into its host's fetched queue.
    @raise Invalid_argument when out of bounds. *)

val find_index : 'a t -> ('a -> bool) -> int option
(** Index of the first element satisfying the predicate. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Front to back. *)

val to_list : 'a t -> 'a list
