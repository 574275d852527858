(* The journal (DESIGN.md §6a): every record is one session's effect in
   the compact v2 codec. Pinned record bytes, the refusal of a journal
   written before the format bump, a fully redundant session journaling
   nothing, and the exactness argument made executable: accepting a
   reply's effect from the pre-session state lands on exactly the state
   the whole reply reaches, in memory and through a crash-and-replay. *)

module Vv = Edb_vv.Version_vector
module Operation = Edb_store.Operation
module Node = Edb_core.Node
module Message = Edb_core.Message
module Durable = Edb_persist.Durable_node

let set v = Operation.Set v

let ok = function Ok x -> x | Error msg -> Alcotest.fail msg

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let with_temp_dir f =
  let dir = Filename.temp_file "edb-journal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let wal_bytes dir =
  let path = Filename.concat dir "node.wal" in
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    data
  end

let reopen ?policy ?mode ?shards ~dir ~id ~n () =
  fst (ok (Durable.open_or_create ?policy ?mode ?shards ~dir ~id ~n ()))

(* ---------- pinned record bytes ---------- *)

(* One user update at n = 2: WAL frame [8-byte length | record | Adler],
   record [tag 0x10 | vstring "x" | Set tag 0 | vstring "v1" | envelope
   trailer]. 23 bytes where the fixed-width journal took 51. *)
let pinned_update_wal = "0b00000000000000100178000276313301f8036202860b"

let test_update_record_pinned () =
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 () in
      Durable.update d "x" (set "v1");
      Durable.close d;
      Alcotest.(check string) "pinned update record" pinned_update_wal
        (hex (wal_bytes dir)))

(* One pulled session at n = 2 (the source wrote x then y): record
   [tag 0x11 | varint source 1 | Wire_v2 reply: tag 1, one sparse tail
   at origin 1 with both records, names interned on first use, two
   items with sparse IVVs]. *)
let pinned_reply_wal =
  "2300000000000000110101010102000178010001790202010002763101010102000276320101016c02eb22e7034930"

let test_reply_record_pinned () =
  with_temp_dir (fun dir ->
      let source = Node.create ~id:1 ~n:2 () in
      Node.update source "x" (set "v1");
      Node.update source "y" (set "v2");
      let d = reopen ~dir ~id:0 ~n:2 () in
      (match Durable.pull_from d ~source with
      | Node.Pulled { copied; _ } ->
        Alcotest.(check (list string)) "copied" [ "x"; "y" ] (List.sort compare copied)
      | Node.Already_current -> Alcotest.fail "expected a propagation");
      Durable.close d;
      Alcotest.(check string) "pinned reply record" pinned_reply_wal
        (hex (wal_bytes dir));
      let d = reopen ~dir ~id:0 ~n:2 () in
      Alcotest.(check bool) "replays to the source's state" true
        (Vv.equal (Node.dbvv (Durable.node d)) (Node.dbvv source)
        && Node.read (Durable.node d) "y" = Some "v2");
      Durable.close d)

(* ---------- the format bump ---------- *)

(* The journal the fixed-width build wrote for [update "x" (Set "v1")]
   at n = 2: its record starts with tag 0 as an 8-byte int. Replay must
   name the problem, not misparse the record or call it damage. *)
let pre_bump_wal =
  "270000000000000000000000000000000100000000000000780000000000000000020000000000000076312301570aa8012a10"

let test_pre_bump_journal_refused () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let oc = open_out_bin (Filename.concat dir "node.wal") in
      output_string oc (unhex pre_bump_wal);
      close_out oc;
      match Durable.open_or_create ~dir ~id:0 ~n:2 () with
      | Ok _ -> Alcotest.fail "a pre-bump journal must be refused"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names the v1 format (%s)" msg)
          true
          (Astring.String.is_infix ~affix:"v1 tag 0" msg))

(* ---------- redundant sessions ---------- *)

(* A reply to a stale request re-ships what another session already
   delivered. All of it redundant: nothing is journaled and the WAL is
   byte-for-byte untouched. Partly redundant: the effect carries only
   the new copy and its record. *)
let test_redundant_reply_journals_nothing () =
  with_temp_dir (fun dir ->
      let source = Node.create ~id:1 ~n:2 () in
      Node.update source "x" (set "v1");
      Node.update source "y" (set "v2");
      let d = reopen ~dir ~id:0 ~n:2 () in
      let stale = Node.propagation_request_owned (Durable.node d) in
      ignore (Durable.pull_from d ~source : Node.pull_result);
      let records = Durable.journal_records d in
      let wal = wal_bytes dir in
      let state = Node.export_state (Durable.node d) in
      let redundant = Node.handle_propagation_request source stale in
      Alcotest.(check bool) "no effect" true
        (Node.propagation_effect (Durable.node d) redundant = None);
      Durable.accept_reply d ~source:1 redundant;
      Alcotest.(check int) "no record appended" records (Durable.journal_records d);
      Alcotest.(check string) "WAL untouched" (hex wal) (hex (wal_bytes dir));
      Alcotest.(check bool) "state untouched" true
        (Node.export_state (Durable.node d) = state);
      Node.update source "z" (set "v3");
      let partly = Node.handle_propagation_request source stale in
      (match Node.propagation_effect (Durable.node d) partly with
      | Some (Message.Propagate { tails; items }) ->
        Alcotest.(check (list string)) "only the new copy"
          [ "z" ]
          (List.map (fun (s : Message.shipped_item) -> s.name) items);
        Alcotest.(check (list (pair string int))) "only its record"
          [ ("z", 3) ]
          (List.concat_map
             (List.map (fun (r : Edb_log.Log_record.t) -> (r.item, r.seq)))
             (Array.to_list tails))
      | _ -> Alcotest.fail "expected a one-item effect");
      Durable.accept_reply d ~source:1 partly;
      Alcotest.(check int) "one record appended" (records + 1)
        (Durable.journal_records d);
      Durable.close d;
      let d = reopen ~dir ~id:0 ~n:2 () in
      Alcotest.(check bool) "replay reaches the source" true
        (Vv.equal (Node.dbvv (Durable.node d)) (Node.dbvv source));
      Durable.close d)

(* ---------- effect equivalence ---------- *)

let key_name k = Printf.sprintf "k%d" k

let resolver ~(local : Message.shipped_item) ~(remote : Message.shipped_item) =
  let value (s : Message.shipped_item) =
    match s.payload with Message.Whole v -> v | Message.Delta _ -> ""
  in
  let a = value local and b = value remote in
  if a <= b then a ^ "|" ^ b else b ^ "|" ^ a

let config (case : Gen.effect_case) =
  let policy = if case.resolve then Node.Resolve resolver else Node.Report_only in
  let mode = if case.op_log then Node.Op_log { depth = 2 } else Node.Whole_item in
  (policy, mode)

(* Node 2, either a plain node or a durable one. *)
type recipient = {
  node : unit -> Node.t;
  write : string -> Operation.t -> unit;
  pull : Node.t -> unit;
}

let plain_recipient case =
  let policy, mode = config case in
  let node = Node.create ~policy ~mode ~shards:case.Gen.shards ~id:2 ~n:3 () in
  {
    node = (fun () -> node);
    write = Node.update node;
    pull = (fun source -> ignore (Node.pull ~recipient:node ~source () : Node.pull_result));
  }

let durable_recipient d =
  {
    node = (fun () -> Durable.node d);
    write = Durable.update d;
    pull = (fun source -> ignore (Durable.pull_from d ~source : Node.pull_result));
  }

(* Run the case's history; return the two writers and node 2's
   captured request, if any. *)
let run_history (case : Gen.effect_case) r =
  let policy, mode = config case in
  let writers =
    Array.init 2 (fun id -> Node.create ~policy ~mode ~shards:case.shards ~id ~n:3 ())
  in
  let node i = if i = 2 then r.node () else writers.(i) in
  let captured = ref None in
  List.iter
    (function
      | Gen.Write { node = 2; key; op } -> r.write (key_name key) op
      | Gen.Write { node = i; key; op } -> Node.update writers.(i) (key_name key) op
      | Gen.Sync { recipient; source } when recipient = source -> ()
      | Gen.Sync { recipient = 2; source } -> r.pull (node source)
      | Gen.Sync { recipient; source } ->
        ignore
          (Node.pull ~recipient:writers.(recipient) ~source:(node source) ()
            : Node.pull_result)
      | Gen.Capture -> captured := Some (Node.propagation_request_owned (r.node ())))
    case.steps;
  (writers, !captured)

let rotate k l =
  match l with
  | [] -> []
  | _ ->
    let k = k mod List.length l in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* The reply node 2 receives: the chosen writer's answer, tails
   rotated, with items of the other writer's answer spliced into each
   delta of the same shard. *)
let reply_for (case : Gen.effect_case) writers captured recipient =
  let request =
    match captured with
    | Some req when case.stale -> req
    | _ -> Node.propagation_request_owned recipient
  in
  let primary = Node.handle_propagation_request writers.(case.source) request in
  let other = Node.handle_propagation_request writers.(1 - case.source) request in
  let items_of shard =
    match other with
    | Message.You_are_current -> []
    | Message.Propagate { items; _ } -> items
    | Message.Propagate_sharded deltas -> (
      match List.find_opt (fun (d : Message.shard_delta) -> d.shard = shard) deltas with
      | Some d -> d.items
      | None -> [])
  in
  let mix shard tails items =
    let extra = List.filteri (fun i _ -> i < case.extras) (items_of shard) in
    ( Array.map (rotate case.rotate) tails,
      if case.extras_first then extra @ items else items @ extra )
  in
  match primary with
  | Message.You_are_current -> primary
  | Message.Propagate { tails; items } ->
    let tails, items = mix 0 tails items in
    Message.Propagate { tails; items }
  | Message.Propagate_sharded deltas ->
    Message.Propagate_sharded
      (List.map
         (fun (d : Message.shard_delta) ->
           let tails, items = mix d.shard d.tails d.items in
           { d with tails; items })
         deltas)

let same_state a b =
  Node.export_state a = Node.export_state b && Vv.equal (Node.dbvv a) (Node.dbvv b)

let print_case (case : Gen.effect_case) =
  Printf.sprintf "shards=%d op_log=%b resolve=%b source=%d stale=%b rotate=%d extras=%d%s steps=%d"
    case.shards case.op_log case.resolve case.source case.stale case.rotate case.extras
    (if case.extras_first then " first" else "")
    (List.length case.steps)

(* In memory: two identical histories; one node accepts the whole
   reply, its twin only the effect computed against its own pre-session
   state — which the computation must leave untouched. *)
let prop_effect_equivalence =
  QCheck2.Test.make ~name:"accepting the effect = accepting the reply" ~count:1000
    ~print:print_case Gen.effect_case (fun case ->
      let full = plain_recipient case and twin = plain_recipient case in
      let writers, captured = run_history case full in
      let (_ : Node.t array * Message.propagation_request option) =
        run_history case twin
      in
      let reply = reply_for case writers captured (full.node ()) in
      let pre = Node.export_state (twin.node ()) in
      let effect = Node.propagation_effect (twin.node ()) reply in
      if Node.export_state (twin.node ()) <> pre then
        QCheck2.Test.fail_report "computing the effect mutated the node";
      ignore (Node.accept_propagation (full.node ()) ~source:case.source reply
        : Node.accept_result);
      Option.iter
        (fun effect ->
          ignore (Node.accept_propagation (twin.node ()) ~source:case.source effect
            : Node.accept_result))
        effect;
      same_state (full.node ()) (twin.node ()))

(* Through the journal: the durable twin runs the history and accepts
   the whole reply through the journaling path; the node recovered from
   disk — every record, the last one the reply's effect, decoded from
   the v2 codec — must equal the in-memory node that took the reply. *)
let prop_replay_equivalence =
  QCheck2.Test.make ~name:"replaying the journaled effect = accepting the reply"
    ~count:150 ~print:print_case Gen.effect_case (fun case ->
      with_temp_dir (fun dir ->
          let policy, mode = config case in
          let open_d () =
            reopen ~policy ~mode ~shards:case.shards ~dir ~id:2 ~n:3 ()
          in
          let full = plain_recipient case in
          let writers, captured = run_history case full in
          let d = open_d () in
          let (_ : Node.t array * Message.propagation_request option) =
            run_history case (durable_recipient d)
          in
          let reply = reply_for case writers captured (full.node ()) in
          ignore (Node.accept_propagation (full.node ()) ~source:case.source reply
            : Node.accept_result);
          Durable.accept_reply d ~source:case.source reply;
          Durable.close d;
          let recovered = open_d () in
          let equal = same_state (full.node ()) (Durable.node recovered) in
          Durable.close recovered;
          equal))

let suite =
  [
    Alcotest.test_case "v2 update record (pinned)" `Quick test_update_record_pinned;
    Alcotest.test_case "v2 reply record (pinned)" `Quick test_reply_record_pinned;
    Alcotest.test_case "pre-bump journal refused" `Quick test_pre_bump_journal_refused;
    Alcotest.test_case "redundant reply journals nothing" `Quick
      test_redundant_reply_journals_nothing;
    QCheck_alcotest.to_alcotest prop_effect_equivalence;
    QCheck_alcotest.to_alcotest prop_replay_equivalence;
  ]
