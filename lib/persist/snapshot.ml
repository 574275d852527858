module Node = Edb_core.Node
module W = Codec.Writer
module R = Codec.Reader

(* Bump when the layout changes; decode refuses other layouts explicitly
   rather than misparsing them. The payload sits behind an explicit
   Adler-32 so corruption of the node state is reported as such,
   distinctly from damage to the file framing. v4 writes the payload in
   the wire-v2 forms (varints, vstrings, sparse vectors), one section
   per shard for every shard count, and links each log record to its
   item by index. Versions 2 (flat) and 3 (sharded) were the same state
   in fixed-width integers; they are refused by name. *)
let version = 4

let retired_versions = [ (2, "flat"); (3, "sharded") ]

let magic = "EDBSNAP1"

exception Retired of int * string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (R.Corrupt msg)) fmt

(* A count of elements that each take at least [min_bytes] of the
   payload: a larger one is forged, and is refused before anything is
   allocated for it. *)
let count r ~what ~min_bytes =
  let c = R.varint r in
  if c < 0 || c > R.remaining r / min_bytes then
    corrupt "%s count %d exceeds %d remaining payload bytes" what c (R.remaining r);
  c

(* ------------------------------------------------------------------ *)
(* Payload layout                                                      *)
(*                                                                     *)
(*   varint id, varint n, varint shard count, then per shard:          *)
(*     varint k, k items (vstring name, vstring value, sparse IVV)     *)
(*       in strictly ascending name order;                             *)
(*     sparse DBVV;                                                    *)
(*     per origin: varint count, then (varint item index,              *)
(*       varint seq delta) pairs, oldest first — the index points into *)
(*       this shard's item table, the first delta is from 0;           *)
(*     varint, aux items (as items); varint, aux log records (vstring  *)
(*       item, sparse IVV, operation).                                 *)
(* ------------------------------------------------------------------ *)

let encode_item w (item : Node.State.item) =
  W.vstring w item.name;
  W.vstring w item.value;
  Wire_v2.encode_vv_array w item.ivv

let encode_items w items =
  W.varint w (Array.length items);
  Array.iter (encode_item w) items

let encode_log w records =
  W.varint w (Array.length records);
  let prev = ref 0 in
  Array.iter
    (fun (index, seq) ->
      W.varint w index;
      W.varint w (seq - !prev);
      prev := seq)
    records

let encode_aux_record w (record : Node.State.aux_record) =
  W.vstring w record.item;
  Wire_v2.encode_vv_array w record.ivv;
  Wire_v2.encode_operation w record.op

let encode_shard w (shard : Node.State.shard) =
  encode_items w shard.items;
  Wire_v2.encode_vv_array w shard.dbvv;
  Array.iter (encode_log w) shard.logs;
  encode_items w shard.aux_items;
  W.varint w (Array.length shard.aux_log);
  Array.iter (encode_aux_record w) shard.aux_log

(* An item is at least three bytes: two empty vstrings and an empty
   sparse vector. *)
let decode_items r ~n =
  Array.init (count r ~what:"item" ~min_bytes:3) (fun _ ->
      let name = R.vstring r in
      let value = R.vstring r in
      let ivv = Wire_v2.decode_vv_array r ~n in
      { Node.State.name; value; ivv })

let decode_log r ~items =
  let records = count r ~what:"log record" ~min_bytes:2 in
  if records > items then corrupt "%d log records for %d items" records items;
  let seq = ref 0 in
  Array.init records (fun _ ->
      let index = R.varint r in
      if index < 0 || index >= items then
        corrupt "log record points at item %d of %d" index items;
      (* Strict increase is [Node.import_state]'s to check. *)
      seq := !seq + R.varint r;
      (index, !seq))

let decode_aux_record r ~n =
  let item = R.vstring r in
  let ivv = Wire_v2.decode_vv_array r ~n in
  let op = Wire_v2.decode_operation r in
  { Node.State.item; ivv; op }

let decode_shard r ~n =
  let items = decode_items r ~n in
  let dbvv = Wire_v2.decode_vv_array r ~n in
  let logs = Array.init n (fun _ -> decode_log r ~items:(Array.length items)) in
  let aux_items = decode_items r ~n in
  let aux_log =
    Array.init (count r ~what:"aux record" ~min_bytes:3) (fun _ -> decode_aux_record r ~n)
  in
  { Node.State.items; dbvv; logs; aux_items; aux_log }

let encode_state (state : Node.State.t) =
  let payload =
    W.with_scratch (fun w ->
        W.varint w state.Node.State.id;
        W.varint w state.n;
        W.varint w (Array.length state.shards);
        Array.iter (encode_shard w) state.shards;
        W.contents w)
  in
  W.with_scratch (fun w ->
      W.string w magic;
      W.int w version;
      (* Explicit payload checksum on top of the codec's whole-blob
         trailer: a flipped bit in the node state is reported as state
         corruption rather than a generic framing error, and the
         payload stays verifiable even if re-framed. *)
      W.int w (Codec.adler32_sub payload ~off:0 ~len:(String.length payload));
      W.string w payload;
      W.contents w)

let encode node = encode_state (Node.export_state node)

let decode_payload ?policy ?conflict_handler ?mode r =
  let id = R.varint r in
  (* Every shard section spends at least a byte per origin, so neither
     the dimension nor the shard count can exceed the payload. *)
  let n = R.varint r in
  if n < 1 || n > R.remaining r then corrupt "dimension %d" n;
  let shards = count r ~what:"shard" ~min_bytes:n in
  if shards < 1 then corrupt "no shards";
  let shards = Array.init shards (fun _ -> decode_shard r ~n) in
  R.expect_end r;
  Node.import_state ?policy ?conflict_handler ?mode { Node.State.id; n; shards }

let decode ?policy ?conflict_handler ?mode blob =
  match
    let r = R.create blob in
    let file_magic = R.string r in
    if not (String.equal file_magic magic) then corrupt "bad magic %S" file_magic;
    let file_version = R.int r in
    (match List.assoc_opt file_version retired_versions with
    | Some layout -> raise (Retired (file_version, layout))
    | None ->
      if file_version <> version then
        corrupt "unsupported snapshot version %d (expected %d)" file_version version);
    let stored = R.int r in
    (* The payload is checked and decoded where it lies in [blob]: the
       explicit checksum and the inner envelope's trailer both run over
       the sub-range, so no copy of the node state is made. *)
    let off, len = R.span r in
    R.expect_end r;
    let computed = Codec.adler32_sub blob ~off ~len in
    if stored <> computed then
      corrupt "payload checksum mismatch (stored %#x, computed %#x)" stored computed;
    decode_payload ?policy ?conflict_handler ?mode (R.create_sub blob ~off ~len)
  with
  | node -> Ok node
  | exception Retired (v, layout) ->
    Error
      (Printf.sprintf
         "unsupported snapshot: version %d is the retired fixed-width %s layout; \
          this build reads only version %d snapshots"
         v layout version)
  | exception R.Corrupt msg -> Error ("corrupt snapshot: " ^ msg)
  | exception Invalid_argument msg ->
    Error ("corrupt snapshot: inconsistent state: " ^ msg)

let save node ~path =
  let blob = encode node in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc blob;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let load ?policy ?conflict_handler ?mode ~path () =
  match open_in_bin path with
  | exception Sys_error msg -> Error ("cannot open snapshot: " ^ msg)
  | ic ->
    let read () =
      let len = in_channel_length ic in
      really_input_string ic len
    in
    (match read () with
    | blob ->
      close_in ic;
      decode ?policy ?conflict_handler ?mode blob
    | exception e ->
      close_in_noerr ic;
      Error ("cannot read snapshot: " ^ Printexc.to_string e))
