module Node = Edb_core.Node
module Message = Edb_core.Message
module Fault = Edb_fault.Fault

type membership_op = Extend of { name : int } | Retire of { slot : int; name : int }

type t = {
  (* Mutable: membership reshapes (dimension extension on join, component
     retirement) replace the node wholesale — every vector is rebuilt. *)
  mutable node : Node.t;
  dir : string;
  mutable wal : Wal.writer;
  mutable journal_records : int;
  (* Membership ops applied since the last checkpoint, oldest first:
     the replayed ones plus any appended by this process. Recovery hands
     them to the membership layer so it can rebuild its view (epoch,
     roster) and re-judge any standing retirement fence from the
     recovered DBVVs — acknowledgements are deliberately not persisted,
     exactly as AcceptPropagation re-judges freshness on replay. *)
  mutable membership : membership_op list;
  (* Group commit (opt-in, daemon event loop): with [group_commit] set,
     [journal] appends without flushing and [sync] releases the whole
     batch with one flush. [unsynced] counts records owed to the next
     sync. Default off: every other caller keeps the append-is-flushed
     commit point. *)
  mutable group_commit : bool;
  mutable unsynced : int;
}

let snapshot_path dir = Filename.concat dir "node.snap"

let wal_path dir = Filename.concat dir "node.wal"

(* Journal records (DESIGN.md §6a): one tag byte, then the compact
   Wire_v2 forms — varints, per-record name interning, sparse vectors —
   sealed in the Codec envelope. The tags start at 0x10 so no record can
   be misread across the format bump: every record of the earlier
   fixed-width journal began with its tag as an 8-byte little-endian
   int, so its first byte is 0..4, which replay refuses by name. *)
let tag_update = 0x10

let tag_reply = 0x11

let tag_oob = 0x12

let tag_push = 0x13

let tag_membership = 0x14

let last_v1_tag = 4

let encode_record tag body =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.byte w tag;
      body w;
      Codec.Writer.contents w)

let encode_update item op =
  encode_record tag_update (fun w ->
      Codec.Writer.vstring w item;
      Wire_v2.encode_operation w op)

let encode_reply ~source reply =
  encode_record tag_reply (fun w ->
      Codec.Writer.varint w source;
      Wire_v2.encode_propagation_reply w reply)

let encode_oob ~source reply =
  encode_record tag_oob (fun w ->
      Codec.Writer.varint w source;
      Wire_v2.encode_oob_reply w reply)

let encode_push ~source update =
  encode_record tag_push (fun w ->
      Codec.Writer.varint w source;
      Wire_v2.encode_push w [ update ])

let encode_membership op =
  encode_record tag_membership (fun w ->
      match op with
      | Extend { name } ->
        Codec.Writer.byte w 0;
        Codec.Writer.varint w name
      | Retire { slot; name } ->
        Codec.Writer.byte w 1;
        Codec.Writer.varint w slot;
        Codec.Writer.varint w name)

exception Pre_v2_journal of int

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Codec.Reader.Corrupt msg)) fmt

(* Every record decodes against the dimension of the node it replays
   onto: a membership record reshapes the node, and the records after
   it were written at the new dimension. *)
let apply_journal_record node_ref membership data ~off ~len =
  let node = !node_ref in
  let n = Node.dimension node in
  let r = Codec.Reader.create_sub data ~off ~len in
  let tag = Codec.Reader.byte r in
  if tag = tag_update then begin
    let item = Codec.Reader.vstring r in
    let op = Wire_v2.decode_operation r in
    Node.update node item op
  end
  else if tag = tag_reply then begin
    let source = Codec.Reader.varint r in
    let reply = Wire_v2.decode_propagation_reply r ~n in
    let (_ : Node.accept_result) = Node.accept_propagation node ~source reply in
    ()
  end
  else if tag = tag_oob then begin
    let source = Codec.Reader.varint r in
    let reply = Wire_v2.decode_oob_reply r ~n in
    let (_ : Node.oob_result) = Node.accept_out_of_bound node ~source reply in
    ()
  end
  else if tag = tag_push then begin
    let source = Codec.Reader.varint r in
    match Wire_v2.decode_push r ~n with
    | [ update ] ->
      let (_ : [ `Applied | `Stale ]) = Node.apply_push node ~source update in
      ()
    | updates -> corrupt "push record carries %d updates" (List.length updates)
  end
  else if tag = tag_membership then begin
    (* Membership reshape: mechanical vector surgery, replayed exactly
       like any other committed record. The journal append was the
       commit point, so recovery lands on the post-reshape geometry and
       every later journaled reply decodes against the right dimension. *)
    match Codec.Reader.byte r with
    | 0 ->
      let name = Codec.Reader.varint r in
      node_ref := Node.extend_dimension node;
      membership := Extend { name } :: !membership
    | 1 ->
      let slot = Codec.Reader.varint r in
      let name = Codec.Reader.varint r in
      node_ref := Node.retire_component node ~slot;
      membership := Retire { slot; name } :: !membership
    | op -> corrupt "unknown membership op %d" op
  end
  else if tag <= last_v1_tag then raise (Pre_v2_journal tag)
  else corrupt "unknown journal tag %#x" tag;
  Codec.Reader.expect_end r

let open_or_create ?policy ?mode ?(shards = 1) ~dir ~id ~n () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let from_checkpoint =
    if Sys.file_exists (snapshot_path dir) then
      Snapshot.load ?policy ?mode ~path:(snapshot_path dir) ()
    else Ok (Node.create ?policy ?mode ~shards ~id ~n ())
  in
  match from_checkpoint with
  | Error _ as e -> e
  | Ok node ->
    if Node.id node <> id || Node.dimension node <> n then
      Error
        (Printf.sprintf "checkpoint is for node %d/%d, requested %d/%d" (Node.id node)
           (Node.dimension node) id n)
    else if Node.shards node <> shards then
      Error
        (Printf.sprintf "checkpoint has %d shards, requested %d" (Node.shards node)
           shards)
    else (
      let node_ref = ref node in
      let membership = ref [] in
      match
        Wal.replay_in_place ~path:(wal_path dir)
          ~f:(apply_journal_record node_ref membership)
      with
      | Error _ as e -> e
      | exception Codec.Reader.Corrupt msg -> Error ("corrupt journal record: " ^ msg)
      | exception Pre_v2_journal tag ->
        Error
          (Printf.sprintf
             "unsupported journal: a record carries v1 tag %d; this build reads \
              only v2 journals — open the directory with the build that wrote \
              it and checkpoint"
             tag)
      | Ok replay_result ->
        let wal = Wal.open_writer ~path:(wal_path dir) in
        Ok
          ( {
              node = !node_ref;
              dir;
              wal;
              journal_records = replay_result.records;
              membership = List.rev !membership;
              group_commit = false;
              unsynced = 0;
            },
            replay_result ))

let node t = t.node

let journal t record =
  Wal.append ~flush:(not t.group_commit) t.wal record;
  if t.group_commit then t.unsynced <- t.unsynced + 1;
  t.journal_records <- t.journal_records + 1

(* Sync releases the current group-commit batch; under group commit the
   sync — not the append — is the commit point, and a crash between
   them recovers to the state before every unsynced record, exactly as
   if those sessions never ran (each journal record is one complete
   session effect, appended in completion order, so the synced prefix
   is always a valid history). *)
let sync t =
  if t.unsynced > 0 then begin
    Wal.sync t.wal;
    t.unsynced <- 0
  end

let unsynced_records t = t.unsynced

let set_group_commit t enabled =
  if (not enabled) && t.group_commit then sync t;
  t.group_commit <- enabled

let update t item op =
  journal t (encode_update item op);
  Node.update t.node item op

(* The one journaling path for propagation replies, in-process and
   remote alike. Journal before applying: the WAL append is the commit
   point. A crash before it (durable.journal.before, or a torn append
   via wal.append.partial) loses nothing — recovery sees the
   pre-session state and a later anti-entropy round re-pulls. A crash
   after it (durable.apply.before, or any accept.* point inside
   accept_propagation) re-applies the journaled record on recovery,
   yielding exactly the post-session state. Never torn.

   The record is the session's effect, not the message: the shipped
   copies this node already holds and the tail records it would not
   append are left out, and a session that changes nothing appends no
   record. Replaying the effect from the pre-session state lands on
   exactly the post-session state (Node.propagation_effect), so the
   crash windows above are unchanged. The full reply is still what is
   accepted, so live behaviour and counters are as before. *)
let journal_record t ~source reply =
  Option.map (encode_reply ~source) (Node.propagation_effect t.node reply)

let journal_and_accept t ~source reply =
  let record = journal_record t ~source reply in
  Fault.hit "durable.journal.before";
  Option.iter (journal t) record;
  Fault.hit "durable.apply.before";
  Node.accept_propagation t.node ~source reply

let pull_from t ~source =
  let request = Node.propagation_request t.node in
  match Node.handle_propagation_request source request with
  | Message.You_are_current -> Node.Already_current
  | (Message.Propagate _ | Message.Propagate_sharded _) as reply ->
    Node.Pulled (journal_and_accept t ~source:(Node.id source) reply)

let accept_reply t ~source reply =
  match reply with
  | Message.You_are_current -> ()
  | Message.Propagate _ | Message.Propagate_sharded _ ->
    let (_ : Node.accept_result) = journal_and_accept t ~source reply in
    ()

let apply_push t ~source update =
  (* Same journal-before-apply discipline as pull_from. The push itself
     is volatile, but once applied it becomes part of this node's state
     and later journaled AE replies assume it — so the application must
     be redoable from the WAL or recovery would replay those replies
     against a state missing the pushed update (breaking the per-origin
     prefix property). Journaling a stale push is harmless: replay
     re-judges freshness and drops it again. *)
  Fault.hit "durable.journal.before";
  journal t (encode_push ~source update);
  Fault.hit "durable.apply.before";
  Node.apply_push t.node ~source update

let fetch_out_of_bound_from t ~source item =
  let reply = Node.serve_out_of_bound source { Message.item } in
  journal t (encode_oob ~source:(Node.id source) reply);
  Node.accept_out_of_bound t.node ~source:(Node.id source) reply

let extend_dimension t ~name =
  (* Journal-before-apply, same commit discipline as pull_from: a crash
     before the append loses the reshape entirely (the membership layer
     re-issues it), a crash after it replays the reshape on recovery. *)
  Fault.hit "durable.journal.before";
  journal t (encode_membership (Extend { name }));
  Fault.hit "durable.apply.before";
  t.node <- Node.extend_dimension t.node;
  t.membership <- t.membership @ [ Extend { name } ]

let retire_component t ~slot ~name =
  Fault.hit "durable.journal.before";
  journal t (encode_membership (Retire { slot; name }));
  Fault.hit "durable.apply.before";
  t.node <- Node.retire_component t.node ~slot;
  t.membership <- t.membership @ [ Retire { slot; name } ]

let membership_log t = t.membership

let checkpoint t =
  sync t;
  Snapshot.save t.node ~path:(snapshot_path t.dir);
  Wal.close_writer t.wal;
  Wal.reset ~path:(wal_path t.dir);
  t.wal <- Wal.open_writer ~path:(wal_path t.dir);
  t.journal_records <- 0;
  t.membership <- []

let journal_records t = t.journal_records

let close t = Wal.close_writer t.wal
