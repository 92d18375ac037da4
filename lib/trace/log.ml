module Sim_time = Simnet.Sim_time

type t = {
  hostname : string;
  mutable rev_items : Activity.t list;
  mutable count : int;
  mutable last_ts : Sim_time.t;
}

let create ~hostname =
  { hostname; rev_items = []; count = 0; last_ts = Sim_time.zero }

let hostname t = t.hostname

let append t (a : Activity.t) =
  if t.count > 0 && Sim_time.(a.timestamp < t.last_ts) then
    invalid_arg
      (Format.asprintf "Log.append: timestamp regression on %s (%a < %a)" t.hostname
         Sim_time.pp a.timestamp Sim_time.pp t.last_ts);
  t.rev_items <- a :: t.rev_items;
  t.count <- t.count + 1;
  t.last_ts <- a.timestamp

let length t = t.count
let to_list t = List.rev t.rev_items

let to_array t =
  match t.rev_items with
  | [] -> [||]
  | last :: _ ->
      let a = Array.make t.count last in
      List.iteri (fun i x -> a.(t.count - 1 - i) <- x) t.rev_items;
      a

let of_list ~hostname items =
  let sorted = List.stable_sort Activity.compare_by_time items in
  let t = create ~hostname in
  List.iter (append t) sorted;
  t

let iter t f = List.iter f (to_list t)

type collection = t list

let total c = List.fold_left (fun acc t -> acc + t.count) 0 c

let map_activities f c =
  let map_log t = of_list ~hostname:t.hostname (List.filter_map f (to_list t)) in
  List.map map_log c

let save c ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let save_log t =
    let path = Filename.concat dir (t.hostname ^ ".trace") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        iter t (fun a ->
            output_string oc (Raw_format.to_line a);
            output_char oc '\n'))
  in
  List.iter save_log c

let load_file path =
  let hostname = Filename.remove_extension (Filename.basename path) in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (of_list ~hostname (List.rev acc))
        | line when String.trim line = "" -> loop acc (lineno + 1)
        | line -> (
            match Raw_format.of_line line with
            | Ok a -> loop (a :: acc) (lineno + 1)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      loop [] 1)

let load ~dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
      let traces =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".trace")
        |> List.sort String.compare
      in
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
            match load_file (Filename.concat dir f) with
            | Ok log -> loop (log :: acc) rest
            | Error _ as e -> e)
      in
      loop [] traces
