(* Sharded replicas (DESIGN.md §7): the shards=1 configuration must be
   byte-for-byte the pre-sharding protocol (pinned wire fixture), its
   checkpoint is pinned in the v4 layout and the retired snapshot
   layouts are refused, sharded sessions must skip converged shards individually,
   the sharded reply must survive the wire codec, a sharded cluster
   must converge to the same database as a flat one, and the durable
   layer must reject shard-count skew. *)

module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Message = Edb_core.Message
module Shard_map = Edb_core.Shard_map
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Snapshot = Edb_persist.Snapshot
module Durable = Edb_persist.Durable_node

let set v = Operation.Set v

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let encode_reply reply =
  Codec.Writer.with_scratch (fun w ->
      Wire.encode_propagation_reply w reply;
      Codec.Writer.contents w)

(* ---------- shards=1 is bitwise the pre-sharding protocol ---------- *)

(* The request of an unsharded node carries no per-shard vectors (so its
   bytes are exactly id + DBVV, as before sharding), and the reply is
   the legacy [Propagate] constructor whose encoding is pinned below. *)
let test_flat_request_shape () =
  let a = Node.create ~id:0 ~n:2 () in
  let req = Node.propagation_request a in
  Alcotest.(check int) "no shard vectors" 0 (Array.length req.recipient_shard_dbvvs);
  Alcotest.(check int) "request bytes: id + vv" (8 + 16) (Message.request_bytes req)

(* Pinned fixture: two fresh n=2 nodes, two updates at the source, one
   session. Any byte-level drift in what a shards=1 deployment puts on
   the wire — framing, field order, the reply constructor — fails
   here. *)
let pinned_flat_reply =
  "01000000000000000200000000000000020000000000000001000000000000007801000000000000000100000000000000790200000000000000000000000000000002000000000000000100000000000000780000000000000000020000000000000076310200000000000000010000000000000000000000000000000100000000000000790000000000000000020000000000000076320200000000000000010000000000000000000000000000004a03f70c"

let test_flat_wire_fixture () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.update a "y" (set "v2");
  let reply = Node.handle_propagation_request a (Node.propagation_request b) in
  (match reply with
  | Message.Propagate _ -> ()
  | Message.Propagate_sharded _ | Message.You_are_current ->
    Alcotest.fail "shards=1 must produce a legacy Propagate reply");
  Alcotest.(check string) "pinned reply bytes" pinned_flat_reply (hex (encode_reply reply))

(* Pinned fixture for the v4 snapshot of a shards=1 node: varint
   header, one shard section, log records as (item index, seq delta)
   pairs. Any drift in what a checkpoint puts on disk fails here. *)
let pinned_v4_snapshot =
  "0800000000000000454442534e4150310400000000000000c301911e00000000210000000000000000020102016101310100010162013201000101000202000101010000003c0132189105edf2" [@ocamlformat "disable"]

let test_v4_snapshot_fixture () =
  let n = Node.create ~id:0 ~n:2 () in
  Node.update n "a" (set "1");
  Node.update n "b" (set "2");
  Alcotest.(check string) "pinned snapshot" pinned_v4_snapshot (hex (Snapshot.encode n))

(* The same state in the retired fixed-width layouts: a flat (v2)
   snapshot, and the sharded (v3) one of a 2-shard node. *)
let retired_v2_snapshot =
  "0800000000000000454442534e41503102000000000000007f03d7e200000000d200000000000000000000000000000002000000000000000200000000000000010000000000000061010000000000000031020000000000000001000000000000000000000000000000010000000000000062010000000000000032020000000000000001000000000000000000000000000000020000000000000002000000000000000000000000000000020000000000000002000000000000000100000000000000610100000000000000010000000000000062020000000000000000000000000000000000000000000000000000000000000005029bd8c408889b" [@ocamlformat "disable"]

let retired_v3_snapshot =
  "0800000000000000454442534e41503103000000000000009b020d76000000002201000000000000000000000000000002000000000000000200000000000000020000000000000001000000000000006101000000000000003102000000000000000100000000000000000000000000000001000000000000006201000000000000003202000000000000000100000000000000000000000000000002000000000000000200000000000000000000000000000002000000000000000200000000000000010000000000000061010000000000000001000000000000006202000000000000000000000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000b02166d170655ba" [@ocamlformat "disable"]

(* ---------- per-shard skipping ---------- *)

(* Converge an 8-shard pair, then dirty items confined to a couple of
   shards: the next session must ship deltas for exactly the dirty
   shards and charge [shards_skipped] for every other one. Converged
   shards thus contribute zero bytes — the whole point of per-shard
   DBVVs. *)
let test_per_shard_skipping () =
  let shards = 8 in
  let a = Node.create ~id:0 ~n:2 ~shards () in
  let b = Node.create ~id:1 ~n:2 ~shards () in
  for i = 0 to 63 do
    Node.update a (Printf.sprintf "item-%02d" i) (set "base")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Counters.reset (Node.counters a);
  (* Dirty only items living in shards 0 and 1. *)
  let dirty = Hashtbl.create 4 in
  let budget = ref 6 in
  for i = 0 to 63 do
    let name = Printf.sprintf "item-%02d" i in
    let s = Node.shard_of_item a name in
    if s < 2 && !budget > 0 then begin
      decr budget;
      Node.update a name (set "fresh");
      Hashtbl.replace dirty s ()
    end
  done;
  let dirty_shards = Hashtbl.length dirty in
  Alcotest.(check bool) "workload touched 2 shards" true (dirty_shards = 2);
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate_sharded deltas ->
    Alcotest.(check (list int))
      "deltas for exactly the dirty shards, ascending"
      [ 0; 1 ]
      (List.map (fun (d : Message.shard_delta) -> d.shard) deltas);
    List.iter
      (fun (d : Message.shard_delta) ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d ships something" d.shard)
          true
          (d.items <> []))
      deltas
  | Message.Propagate _ -> Alcotest.fail "sharded node must reply Propagate_sharded"
  | Message.You_are_current -> Alcotest.fail "expected propagation");
  Alcotest.(check int) "converged shards skipped" (shards - dirty_shards)
    (Node.counters a).Counters.shards_skipped

(* Full convergence answers through the summary vector alone: the reply
   is You_are_current and no per-shard work (or skip counting) happens. *)
let test_summary_you_are_current () =
  let a = Node.create ~id:0 ~n:2 ~shards:4 () in
  let b = Node.create ~id:1 ~n:2 ~shards:4 () in
  for i = 0 to 15 do
    Node.update a (Printf.sprintf "it%02d" i) (set "v")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Counters.reset (Node.counters a);
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.You_are_current -> ()
  | Message.Propagate _ | Message.Propagate_sharded _ ->
    Alcotest.fail "converged pair must answer You_are_current");
  Alcotest.(check int) "summary short-circuits the shard loop" 0
    (Node.counters a).Counters.shards_skipped

(* ---------- sharded reply wire round-trip ---------- *)

let test_sharded_reply_roundtrip () =
  let a = Node.create ~id:0 ~n:3 ~shards:4 () in
  let b = Node.create ~id:1 ~n:3 ~shards:4 () in
  for i = 0 to 23 do
    Node.update a (Printf.sprintf "item-%03d" i) (set (Printf.sprintf "v%d" i))
  done;
  match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate _ | Message.You_are_current -> Alcotest.fail "expected sharded reply"
  | Message.Propagate_sharded _ as reply ->
    let decoded =
      Wire.decode_propagation_reply (Codec.Reader.create (encode_reply reply))
    in
    Alcotest.(check bool) "round-trips structurally" true (decoded = reply)

(* ---------- sharded vs flat equivalence ---------- *)

(* The same single-writer workload on a flat and a 4-shard cluster must
   yield identical reads everywhere after anti-entropy: sharding is a
   state layout, not a semantics change. *)
let test_sharded_matches_flat () =
  let items = 12 and nodes = 3 in
  let name rank = Printf.sprintf "item-%03d" rank in
  let run shards =
    let cluster = Cluster.create ~seed:17 ~shards ~n:nodes () in
    for step = 0 to 39 do
      let rank = step * 7 mod items in
      Cluster.update cluster ~node:(rank mod nodes) ~item:(name rank)
        (set (Printf.sprintf "s%d-%d" step rank));
      if step mod 5 = 4 then
        ignore (Cluster.pull cluster ~recipient:(step mod nodes) ~source:((step + 1) mod nodes))
    done;
    Alcotest.(check bool)
      (Printf.sprintf "shards=%d converges" shards)
      true
      (Cluster.sync_until_converged cluster > 0);
    List.init nodes (fun node ->
        List.init items (fun rank -> Node.read (Cluster.node cluster node) (name rank)))
  in
  Alcotest.(check bool) "flat and sharded reads agree" true (run 1 = run 4)

(* ---------- sharded snapshot ---------- *)

let test_sharded_snapshot_roundtrip () =
  let original = Node.create ~id:1 ~n:3 ~shards:5 () in
  let peer = Node.create ~id:0 ~n:3 ~shards:5 () in
  for i = 0 to 30 do
    Node.update original (Printf.sprintf "k%02d" i) (set (Printf.sprintf "v%d" i))
  done;
  Node.update peer "hot" (set "h1");
  let (_ : Node.oob_result) =
    Node.fetch_out_of_bound ~recipient:original ~source:peer "hot"
  in
  Node.update original "hot" (set "h2");
  match Snapshot.decode (Snapshot.encode original) with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
    Alcotest.(check int) "shard count restored" 5 (Node.shards restored);
    Alcotest.(check bool) "state equal" true
      (Node.export_state restored = Node.export_state original);
    (match Node.check_invariants restored with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Checkpoints in the retired layouts are refused by name, never
   misparsed as v4. *)
let test_retired_snapshots_refused () =
  List.iter
    (fun (blob, expected) ->
      match Snapshot.decode (unhex blob) with
      | Ok _ -> Alcotest.fail "a retired snapshot layout must not load"
      | Error msg ->
        Alcotest.(check string) "refused by name"
          (Printf.sprintf
             "unsupported snapshot: version %s layout; this build reads only \
              version 4 snapshots"
             expected)
          msg)
    [
      (retired_v2_snapshot, "2 is the retired fixed-width flat");
      (retired_v3_snapshot, "3 is the retired fixed-width sharded");
    ]

(* ---------- durable shard-count skew ---------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "edb-shard" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_durable_rejects_shard_skew () =
  with_temp_dir (fun dir ->
      (match Durable.open_or_create ~shards:2 ~dir ~id:0 ~n:2 () with
      | Error msg -> Alcotest.fail msg
      | Ok (d, _) ->
        Durable.update d "x" (set "v");
        Durable.checkpoint d;
        Durable.close d);
      match Durable.open_or_create ~shards:3 ~dir ~id:0 ~n:2 () with
      | Ok (d, _) ->
        Durable.close d;
        Alcotest.fail "reopening with a different shard count must fail"
      | Error msg ->
        Alcotest.(check bool) "error names the skew" true
          (Astring.String.is_infix ~affix:"shards" msg))

(* Sessions between nodes of different shard counts are a configuration
   error, not a protocol state: refuse loudly. *)
let test_mixed_shard_counts_rejected () =
  let a = Node.create ~id:0 ~n:2 ~shards:2 () in
  let b = Node.create ~id:1 ~n:2 ~shards:4 () in
  Node.update a "x" (set "v");
  match Node.pull ~recipient:b ~source:a () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed shard counts must be rejected"

let suite =
  [
    Alcotest.test_case "flat request shape" `Quick test_flat_request_shape;
    Alcotest.test_case "flat wire fixture (pinned)" `Quick test_flat_wire_fixture;
    Alcotest.test_case "v4 snapshot fixture (pinned)" `Quick test_v4_snapshot_fixture;
    Alcotest.test_case "per-shard skipping" `Quick test_per_shard_skipping;
    Alcotest.test_case "summary short-circuit" `Quick test_summary_you_are_current;
    Alcotest.test_case "sharded reply wire round-trip" `Quick test_sharded_reply_roundtrip;
    Alcotest.test_case "sharded matches flat" `Quick test_sharded_matches_flat;
    Alcotest.test_case "sharded snapshot round-trip" `Quick test_sharded_snapshot_roundtrip;
    Alcotest.test_case "v2 and v3 snapshots refused" `Quick test_retired_snapshots_refused;
    Alcotest.test_case "durable rejects shard skew" `Quick test_durable_rejects_shard_skew;
    Alcotest.test_case "mixed shard counts rejected" `Quick test_mixed_shard_counts_rejected;
  ]
