(* Tests for the persistence layer: the binary codec, snapshot
   round-trips, corruption rejection, and crash-recovery semantics. *)

module Codec = Edb_persist.Codec
module Snapshot = Edb_persist.Snapshot
module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector

let set v = Operation.Set v

(* ---------- Codec ---------- *)

let test_codec_roundtrip_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 42;
  Codec.Writer.int w (-7);
  Codec.Writer.int w max_int;
  Codec.Writer.string w "hello";
  Codec.Writer.string w "";
  Codec.Writer.bool w true;
  Codec.Writer.bool w false;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check int) "int" 42 (Codec.Reader.int r);
  Alcotest.(check int) "negative int" (-7) (Codec.Reader.int r);
  Alcotest.(check int) "max_int" max_int (Codec.Reader.int r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check string) "empty string" "" (Codec.Reader.string r);
  Alcotest.(check bool) "true" true (Codec.Reader.bool r);
  Alcotest.(check bool) "false" false (Codec.Reader.bool r);
  Codec.Reader.expect_end r

let test_codec_roundtrip_containers () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w Codec.Writer.int [ 1; 2; 3 ];
  Codec.Writer.array w Codec.Writer.string [| "a"; "bb" |];
  Codec.Writer.list w Codec.Writer.int [];
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Reader.list r Codec.Reader.int);
  Alcotest.(check (array string)) "array" [| "a"; "bb" |]
    (Codec.Reader.array r Codec.Reader.string);
  Alcotest.(check (list int)) "empty list" [] (Codec.Reader.list r Codec.Reader.int);
  Codec.Reader.expect_end r

let expect_corrupt f =
  match f () with
  | exception Codec.Reader.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_codec_rejects_bit_flip () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "important data";
  let blob = Bytes.of_string (Codec.Writer.contents w) in
  Bytes.set blob 10 (Char.chr (Char.code (Bytes.get blob 10) lxor 0x40));
  expect_corrupt (fun () -> Codec.Reader.create (Bytes.to_string blob))

let test_codec_rejects_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "important data";
  let blob = Codec.Writer.contents w in
  expect_corrupt (fun () ->
      Codec.Reader.create (String.sub blob 0 (String.length blob - 3)))

let test_codec_rejects_short_read_past_end () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 1;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  let (_ : int) = Codec.Reader.int r in
  expect_corrupt (fun () -> Codec.Reader.int r)

let test_codec_expect_end_catches_garbage () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 1;
  Codec.Writer.int w 2;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  let (_ : int) = Codec.Reader.int r in
  expect_corrupt (fun () -> Codec.Reader.expect_end r)

(* ---------- Adler-32 kernel ---------- *)

(* The per-byte definition from RFC 1950 — both sums reduced after
   every byte — kept as the reference the block-deferred kernel must
   match bit for bit. *)
let reference_adler32 data =
  let modulus = 65_521 in
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod modulus;
      b := (!b + !a) mod modulus)
    data;
  (!b lsl 16) lor !a

let adler32 data = Codec.adler32_sub data ~off:0 ~len:(String.length data)

let prop_adler32_matches_reference =
  QCheck2.Test.make ~name:"adler32 kernel = per-byte reference" ~count:300
    QCheck2.Gen.(
      let* data = string_size (int_range 0 3000) in
      let n = String.length data in
      let* off = int_range 0 n in
      let* len = int_range 0 (n - off) in
      return (data, off, len))
    (fun (data, off, len) ->
      adler32 data = reference_adler32 data
      && Codec.adler32_sub data ~off ~len
         = reference_adler32 (String.sub data off len))

(* All-0xFF input drives both sums as fast as any input can, so these
   lengths straddle zlib's 5552-byte block and the kernel's own 2^20
   block with the largest possible deferred sums. *)
let test_adler32_block_boundaries () =
  let block = 1 lsl 20 in
  List.iter
    (fun n ->
      let data = String.make n '\255' in
      Alcotest.(check int)
        (Printf.sprintf "all-0xFF x %d" n)
        (reference_adler32 data) (adler32 data))
    [ 5552; 5553; block - 1; block; block + 1 ];
  let big = String.init ((3 lsl 20) + 12345) (fun i -> Char.chr ((i * 7919) land 0xFF)) in
  Alcotest.(check int) ">= 3 MiB" (reference_adler32 big) (adler32 big)

let test_adler32_rfc_vector () =
  Alcotest.(check int) "Wikipedia" 0x11E60398 (adler32 "Wikipedia");
  Alcotest.(check int) "empty" 1 (adler32 "");
  Alcotest.(check int) "sub-range" 0x11E60398
    (Codec.adler32_sub "[[Wikipedia]]" ~off:2 ~len:9)

let test_adler32_rejects_bad_range () =
  let rejects off len =
    match Codec.adler32_sub "abcd" ~off ~len with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "range off=%d len=%d accepted" off len
  in
  rejects (-1) 1;
  rejects 0 5;
  rejects 2 (-1);
  rejects 4 max_int

(* The sealed envelope is the payload plus the reference checksum,
   little-endian — the on-disk and on-wire bytes the kernel must keep. *)
let test_envelope_trailer_is_reference () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w (String.make 5000 'x');
  Codec.Writer.int w 7;
  let blob = Codec.Writer.contents w in
  let payload_len = String.length blob - 4 in
  Alcotest.(check int) "trailer"
    (reference_adler32 (String.sub blob 0 payload_len))
    (Int32.to_int (String.get_int32_le blob payload_len) land 0xFFFFFFFF)

(* Property: any int/string script round-trips. *)
let prop_codec_roundtrip =
  QCheck2.Gen.(
    let field = oneof [ map (fun i -> `Int i) int; map (fun s -> `Str s) string_small ] in
    QCheck2.Test.make ~name:"codec roundtrips arbitrary scripts" ~count:300 (list field)
      (fun script ->
        let w = Codec.Writer.create () in
        List.iter
          (function `Int i -> Codec.Writer.int w i | `Str s -> Codec.Writer.string w s)
          script;
        let r = Codec.Reader.create (Codec.Writer.contents w) in
        let ok =
          List.for_all
            (function
              | `Int i -> Codec.Reader.int r = i
              | `Str s -> String.equal (Codec.Reader.string r) s)
            script
        in
        Codec.Reader.expect_end r;
        ok))

(* ---------- Node state round-trip ---------- *)

(* A node with every kind of state: regular items, logs from several
   origins, an auxiliary copy with pending deferred updates. *)
let busy_node () =
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  Node.update b "shared" (set "b1");
  Node.update b "b-only" (set "b2");
  let (_ : Node.pull_result) = Node.pull ~recipient:a ~source:b () in
  Node.update a "shared" (set "a1");
  Node.update a "a-only" (Operation.Splice { offset = 1; data = "XY" });
  (* Auxiliary state: fetch a newer copy of an item out of bound and
     defer two updates on it. *)
  Node.update b "hot" (set "h1");
  let (_ : Node.oob_result) = Node.fetch_out_of_bound ~recipient:a ~source:b "hot" in
  Node.update a "hot" (set "h2");
  Node.update a "hot" (set "h3");
  a

(* [Node.export_state] is canonical (per-shard, item lists in sorted
   name order), so structural equality is state equivalence. *)
let nodes_equivalent x y = Node.export_state x = Node.export_state y

let test_snapshot_roundtrip () =
  let original = busy_node () in
  match Snapshot.decode (Snapshot.encode original) with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
    Alcotest.(check bool) "states equivalent" true (nodes_equivalent original restored);
    (match Node.check_invariants restored with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("restored node invalid: " ^ msg));
    Alcotest.(check (option string)) "reads aux value" (Some "h3")
      (Node.read restored "hot");
    Alcotest.(check bool) "aux copy restored" true (Node.has_aux restored "hot");
    Alcotest.(check int) "aux log restored" 2
      (Edb_log.Aux_log.length (Node.aux_log restored))

let test_snapshot_rejects_corruption () =
  let blob = Bytes.of_string (Snapshot.encode (busy_node ())) in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 1));
  match Snapshot.decode (Bytes.to_string blob) with
  | Error msg ->
    Alcotest.(check bool) "mentions corruption" true
      (Astring.String.is_infix ~affix:"corrupt" msg)
  | Ok _ -> Alcotest.fail "corrupted snapshot must not load"

let test_snapshot_rejects_wrong_magic () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "NOTASNAP";
  match Snapshot.decode (Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must not load"

let test_snapshot_file_roundtrip () =
  let path = Filename.temp_file "edb-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let original = busy_node () in
      Snapshot.save original ~path;
      match Snapshot.load ~path () with
      | Ok restored ->
        Alcotest.(check bool) "file round-trip" true (nodes_equivalent original restored)
      | Error msg -> Alcotest.fail msg)

let test_snapshot_load_missing_file () =
  match Snapshot.load ~path:"/nonexistent/edb.snap" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

(* Crash-recovery semantics: a node restored from a checkpoint taken
   before some remote updates looks like a disconnected node, and plain
   anti-entropy brings it up to date. *)
let test_recovered_node_rejoins_epidemic () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.sync_pair a b;
  let checkpoint = Snapshot.encode b in
  (* After the checkpoint, more updates happen elsewhere. *)
  Node.update a "x" (set "v2");
  Node.update a "y" (set "w1");
  (* b crashes and recovers from its checkpoint. *)
  let b' =
    match Snapshot.decode checkpoint with
    | Ok node -> node
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (option string)) "recovered at checkpoint state" (Some "v1")
    (Node.read b' "x");
  (match Node.pull ~recipient:b' ~source:a () with
  | Node.Pulled { copied; conflicts; _ } ->
    Alcotest.(check int) "no conflicts on rejoin" 0 conflicts;
    Alcotest.(check int) "caught up both items" 2 (List.length copied)
  | Node.Already_current -> Alcotest.fail "recovered node must be behind");
  Alcotest.(check (option string)) "x current" (Some "v2") (Node.read b' "x");
  Alcotest.(check (option string)) "y current" (Some "w1") (Node.read b' "y");
  Alcotest.(check bool) "dbvvs equal" true (Vv.equal (Node.dbvv a) (Node.dbvv b'))

(* A recovered node can also serve as a propagation source again: its
   restored log vector still carries forwardable records. *)
let test_recovered_node_forwards () =
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  let c = Node.create ~id:2 ~n:3 () in
  Node.update a "x" (set "v");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  let b' =
    match Snapshot.decode (Snapshot.encode b) with
    | Ok node -> node
    | Error msg -> Alcotest.fail msg
  in
  (match Node.pull ~recipient:c ~source:b' () with
  | Node.Pulled { copied; _ } -> Alcotest.(check int) "forwarded" 1 (List.length copied)
  | Node.Already_current -> Alcotest.fail "c is behind");
  Alcotest.(check (option string)) "c got it via restored b" (Some "v") (Node.read c "x")

(* Property: export/import round-trips after arbitrary single-writer
   scripts. *)
let prop_state_roundtrip =
  QCheck2.Gen.(
    let action = pair (int_bound 3) (int_bound 5) in
    QCheck2.Test.make ~name:"export/import identity after random runs" ~count:150
      (list_size (int_range 0 40) action)
      (fun script ->
        let cluster = Cluster.create ~seed:31 ~n:3 () in
        List.iter
          (fun (kind, rank) ->
            let item = Printf.sprintf "i%d" rank in
            match kind with
            | 0 | 1 ->
              Cluster.update cluster ~node:(rank mod 3) ~item
                (set (Printf.sprintf "v%d" rank))
            | 2 -> ignore (Cluster.pull cluster ~recipient:0 ~source:1)
            | _ -> ignore (Cluster.pull cluster ~recipient:1 ~source:0))
          script;
        let node = Cluster.node cluster 0 in
        match Snapshot.decode (Snapshot.encode node) with
        | Ok restored ->
          nodes_equivalent node restored && Node.check_invariants restored = Ok ()
        | Error _ -> false))

(* Fuzz: random mutations of a valid snapshot never crash the decoder —
   they either load (mutation hit a don't-care byte and still passed the
   checksum, practically impossible) or return a clean [Error]. *)
let prop_decoder_never_crashes =
  QCheck2.Gen.(
    let gen = pair (int_bound 10_000) (int_bound 255) in
    QCheck2.Test.make ~name:"snapshot decoder survives fuzzing" ~count:300 gen
      (fun (position, byte) ->
        let blob = Bytes.of_string (Snapshot.encode (busy_node ())) in
        let position = position mod Bytes.length blob in
        Bytes.set blob position (Char.chr byte);
        match Snapshot.decode (Bytes.to_string blob) with
        | Ok _ | Error _ -> true))

(* Fuzz: arbitrary garbage is always rejected cleanly. *)
let prop_decoder_rejects_garbage =
  QCheck2.Test.make ~name:"snapshot decoder rejects garbage" ~count:300
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun garbage ->
      match Snapshot.decode garbage with
      | Error _ -> true
      | Ok _ -> (* vanishingly unlikely; would mean a forged checksum *) false)

(* ---------- v4 payload, past the checksum ---------- *)

(* A blob's v4 payload without its trailer, and the blob that seals a
   payload the way [Snapshot.encode] does, every checksum valid. *)
let payload_of blob =
  let r = Codec.Reader.create blob in
  ignore (Codec.Reader.string r : string);
  ignore (Codec.Reader.int r : int);
  ignore (Codec.Reader.int r : int);
  let off, len = Codec.Reader.span r in
  String.sub blob off (len - 4)

let seal payload =
  let len = String.length payload in
  let inner = Bytes.create (len + 4) in
  Bytes.blit_string payload 0 inner 0 len;
  Bytes.set_int32_le inner len (Int32.of_int (Codec.adler32_sub payload ~off:0 ~len));
  let inner = Bytes.to_string inner in
  let w = Codec.Writer.create () in
  Codec.Writer.string w "EDBSNAP1";
  Codec.Writer.int w 4;
  Codec.Writer.int w (Codec.adler32_sub inner ~off:0 ~len:(String.length inner));
  Codec.Writer.string w inner;
  Codec.Writer.contents w

let test_seal_matches_encode () =
  let blob = Snapshot.encode (busy_node ()) in
  Alcotest.(check string) "re-sealed payload = encoded blob" blob (seal (payload_of blob))

(* An item with one update from origin 0, for hand-built states. *)
let state_item name = { Node.State.name; value = "v"; ivv = [| 1; 0 |] }

let state_shard ?(aux_items = [||]) ?(aux_log = [||]) items logs =
  let dbvv = [| Array.length items; 0 |] in
  { Node.State.items; dbvv; logs; aux_items; aux_log }

(* Each state passes every checksum and breaks one rule of the layout;
   decode must refuse it, naming the rule. *)
let test_snapshot_rejects_crafted_states () =
  let a = state_item "a" and b = state_item "b" in
  let flat shard = { Node.State.id = 0; n = 2; shards = [| shard |] } in
  (* At two shards, the name that the hash puts in shard 1. *)
  let s1 =
    List.find
      (fun name -> Edb_core.Shard_map.shard_of ~shards:2 name = 1)
      (List.init 16 (Printf.sprintf "k%d"))
  in
  let misplaced ?aux_items ?aux_log items logs =
    {
      Node.State.id = 0;
      n = 2;
      shards =
        [| state_shard ?aux_items ?aux_log items logs; state_shard [||] [| [||]; [||] |] |];
    }
  in
  let cases =
    [
      ( "index out of range",
        flat (state_shard [| a; b |] [| [| (0, 1); (2, 2) |]; [||] |]),
        "points at item 2 of 2" );
      ( "unsorted names",
        flat (state_shard [| b; a |] [| [| (0, 1); (1, 2) |]; [||] |]),
        "not strictly ascending" );
      ( "repeated name",
        flat (state_shard [| a; a |] [| [| (0, 1); (1, 2) |]; [||] |]),
        "not strictly ascending" );
      ( "duplicate log item",
        flat (state_shard [| a; b |] [| [| (0, 1); (0, 2) |]; [||] |]),
        "two records for one item" );
      ( "non-increasing seq",
        flat (state_shard [| a; b |] [| [| (0, 2); (1, 2) |]; [||] |]),
        "sequence numbers must increase" );
      ( "item in the wrong shard",
        misplaced [| state_item s1 |] [| [| (0, 1) |]; [||] |],
        Printf.sprintf "%S filed under shard 0, owned by shard 1" s1 );
      ( "aux item in the wrong shard",
        misplaced ~aux_items:[| state_item s1 |] [||] [| [||]; [||] |],
        Printf.sprintf "%S filed under shard 0, owned by shard 1" s1 );
      ( "aux record in the wrong shard",
        misplaced
          ~aux_log:[| { Node.State.item = s1; ivv = [| 0; 0 |]; op = set "x" } |]
          [||] [| [||]; [||] |],
        Printf.sprintf "%S filed under shard 0, owned by shard 1" s1 );
    ]
  in
  List.iter
    (fun (what, state, reason) ->
      match Snapshot.decode (Snapshot.encode_state state) with
      | Ok _ -> Alcotest.failf "%s: the snapshot must not load" what
      | Error msg ->
        if not (Astring.String.is_infix ~affix:reason msg) then
          Alcotest.failf "%s: error %S does not say %S" what msg reason)
    cases;
  (* A forged count: a thousand items claimed over a few bytes. *)
  let forged =
    let w = Codec.Writer.create () in
    List.iter (Codec.Writer.varint w) [ 0; 2; 1; 1000; 0; 0 ];
    let sealed = Codec.Writer.contents w in
    String.sub sealed 0 (String.length sealed - 4)
  in
  match Snapshot.decode (seal forged) with
  | Ok _ -> Alcotest.fail "a forged item count must not load"
  | Error msg ->
    Alcotest.(check bool) "forged count named" true
      (Astring.String.is_infix ~affix:"item count 1000 exceeds" msg)

(* Fuzz past the checksum: edit the v4 payload of a valid snapshot —
   overwrite, insert or delete a few bytes — then re-seal every
   checksum, so the structural decoder and [import_state] see the
   damage. Decode must answer [Ok] or [Error], never raise. *)
let prop_payload_fuzz_never_crashes =
  let sharded_node () =
    let node = Node.create ~id:1 ~n:3 ~shards:3 () in
    List.iter (fun k -> Node.update node k (set ("v" ^ k))) [ "a"; "b"; "c"; "d"; "e" ];
    node
  in
  let bases =
    lazy
      (Array.map
         (fun node -> payload_of (Snapshot.encode node))
         [| busy_node (); sharded_node () |])
  in
  QCheck2.Gen.(
    (* Half the bytes are 0–2: a log index or seq delta nudged that
       little is how a duplicate log item or a non-increasing seq
       appears without the rest of the payload breaking first. *)
    let byte = oneof [ int_bound 2; int_bound 255 ] in
    let edit = triple (int_bound 2) (int_bound 10_000) byte in
    QCheck2.Test.make ~name:"snapshot payload fuzz (re-sealed) never raises" ~count:2000
      (pair bool (list_size (int_range 1 4) edit))
      (fun (sharded, edits) ->
        let payload = (Lazy.force bases).(if sharded then 1 else 0) in
        let apply p (kind, position, byte) =
          let len = String.length p in
          let at = position mod (len + 1) in
          let c = String.make 1 (Char.chr byte) in
          match kind with
          | 0 when at < len -> String.sub p 0 at ^ c ^ String.sub p (at + 1) (len - at - 1)
          | 1 -> String.sub p 0 at ^ c ^ String.sub p at (len - at)
          | _ when at < len -> String.sub p 0 at ^ String.sub p (at + 1) (len - at - 1)
          | _ -> p
        in
        match Snapshot.decode (seal (List.fold_left apply payload edits)) with
        | Ok _ | Error _ -> true))

let suite =
  [
    Alcotest.test_case "codec scalars" `Quick test_codec_roundtrip_scalars;
    QCheck_alcotest.to_alcotest prop_decoder_never_crashes;
    QCheck_alcotest.to_alcotest prop_decoder_rejects_garbage;
    Alcotest.test_case "codec containers" `Quick test_codec_roundtrip_containers;
    Alcotest.test_case "codec rejects bit flip" `Quick test_codec_rejects_bit_flip;
    Alcotest.test_case "codec rejects truncation" `Quick test_codec_rejects_truncation;
    Alcotest.test_case "codec rejects read past end" `Quick
      test_codec_rejects_short_read_past_end;
    Alcotest.test_case "codec expect_end" `Quick test_codec_expect_end_catches_garbage;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot rejects corruption" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "snapshot rejects wrong magic" `Quick
      test_snapshot_rejects_wrong_magic;
    Alcotest.test_case "snapshot file round-trip" `Quick test_snapshot_file_roundtrip;
    Alcotest.test_case "snapshot missing file" `Quick test_snapshot_load_missing_file;
    Alcotest.test_case "recovered node rejoins epidemic" `Quick
      test_recovered_node_rejoins_epidemic;
    Alcotest.test_case "recovered node forwards" `Quick test_recovered_node_forwards;
    QCheck_alcotest.to_alcotest prop_state_roundtrip;
    QCheck_alcotest.to_alcotest prop_adler32_matches_reference;
    Alcotest.test_case "adler32 block boundaries" `Quick
      test_adler32_block_boundaries;
    Alcotest.test_case "adler32 RFC 1950 vector" `Quick test_adler32_rfc_vector;
    Alcotest.test_case "adler32 rejects bad range" `Quick
      test_adler32_rejects_bad_range;
    Alcotest.test_case "envelope trailer = reference" `Quick
      test_envelope_trailer_is_reference;
    Alcotest.test_case "snapshot re-seal = encode" `Quick test_seal_matches_encode;
    Alcotest.test_case "snapshot rejects crafted states" `Quick
      test_snapshot_rejects_crafted_states;
    QCheck_alcotest.to_alcotest prop_payload_fuzz_never_crashes;
  ]
