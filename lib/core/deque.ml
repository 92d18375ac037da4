(* Ring buffer over a growable array. *)
type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let index t i = (t.head + i) mod Array.length t.buf

let grow t seed =
  let cap = Array.length t.buf in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let nbuf = Array.make ncap seed in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.(index t i)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push_back t v =
  if t.len = Array.length t.buf then grow t v;
  t.buf.(index t t.len) <- v;
  t.len <- t.len + 1

let push_front t v =
  if t.len = Array.length t.buf then grow t v;
  t.head <- (t.head + Array.length t.buf - 1) mod Array.length t.buf;
  t.buf.(t.head) <- v;
  t.len <- t.len + 1

let peek_front t = if t.len = 0 then None else Some t.buf.(t.head)

let front t =
  if t.len = 0 then invalid_arg "Deque.front: empty";
  t.buf.(t.head)

let pop_front t =
  if t.len = 0 then invalid_arg "Deque.pop_front: empty";
  let v = t.buf.(t.head) in
  t.head <- index t 1;
  t.len <- t.len - 1;
  v

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get: out of bounds";
  t.buf.(index t i)

let promote t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.promote: out of bounds";
  let v = t.buf.(index t i) in
  (* Shift [0..i-1] back by one, preserving their relative order. *)
  for j = i downto 1 do
    t.buf.(index t j) <- t.buf.(index t (j - 1))
  done;
  t.buf.(t.head) <- v

let insert t i v =
  if i < 0 || i > t.len then invalid_arg "Deque.insert: out of bounds";
  if t.len = Array.length t.buf then grow t v;
  t.len <- t.len + 1;
  (* Shift [i..len-2] back by one, then drop [v] into the hole. *)
  for j = t.len - 1 downto i + 1 do
    t.buf.(index t j) <- t.buf.(index t (j - 1))
  done;
  t.buf.(index t i) <- v

let find_index t p =
  let rec loop i = if i >= t.len then None else if p (get t i) then Some i else loop (i + 1) in
  loop 0

let iter t f =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get t i :: acc) in
  loop (t.len - 1) []
