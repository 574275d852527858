module Dll = Edb_util.Dll

type t = {
  records : Log_record.t Dll.t;
  (* The paper's P(x) pointers: item name -> the list node holding the
     unique retained record for that item. *)
  pointer : (string, Log_record.t Dll.node) Hashtbl.t;
}

let create () = { records = Dll.create (); pointer = Hashtbl.create 16 }

let latest_seq t =
  match Dll.last t.records with None -> 0 | Some node -> (Dll.value node).seq

let add t ~item ~seq =
  if seq <= latest_seq t then
    invalid_arg "Log_component.add: sequence numbers must increase";
  (match Hashtbl.find_opt t.pointer item with
  | None -> ()
  | Some stale ->
    Dll.remove t.records stale;
    Hashtbl.remove t.pointer item);
  let node = Dll.append t.records { Log_record.item; seq } in
  Hashtbl.replace t.pointer item node

let of_array records =
  let t = { records = Dll.create (); pointer = Hashtbl.create (Array.length records) } in
  let latest = ref 0 in
  Array.iter
    (fun (r : Log_record.t) ->
      if r.seq <= !latest then
        invalid_arg "Log_component.of_array: sequence numbers must increase";
      latest := r.seq;
      Hashtbl.replace t.pointer r.item (Dll.append t.records r))
    records;
  (* A repeated item overwrote its pointer entry, so it shows up here as
     one entry fewer than records. *)
  if Hashtbl.length t.pointer <> Array.length records then
    invalid_arg "Log_component.of_array: two records for one item";
  t

let tail_after t ~seq =
  Dll.take_while_rev (fun (r : Log_record.t) -> r.seq > seq) t.records

let find_record t item =
  Option.map Dll.value (Hashtbl.find_opt t.pointer item)

let length t = Dll.length t.records

let to_list t = Dll.to_list t.records

let check_invariants t =
  let records = to_list t in
  let rec ordered = function
    | [] | [ _ ] -> true
    | (a : Log_record.t) :: (b :: _ as rest) -> a.seq < b.seq && ordered rest
  in
  let items = List.map (fun (r : Log_record.t) -> r.item) records in
  let distinct = List.sort_uniq String.compare items in
  if not (ordered records) then Error "log records out of sequence order"
  else if List.length distinct <> List.length items then
    Error "duplicate item record in log component"
  else if Hashtbl.length t.pointer <> List.length records then
    Error "pointer map size differs from record count"
  else
    let bad_pointer =
      List.find_opt
        (fun (r : Log_record.t) ->
          match find_record t r.item with
          | Some r' -> not (Log_record.equal r r')
          | None -> true)
        records
    in
    match bad_pointer with
    | Some r -> Error (Format.asprintf "pointer map misses record %a" Log_record.pp r)
    | None -> Ok ()
