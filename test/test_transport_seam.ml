(* The transport seam (DESIGN.md §12): the shared retry/backoff
   arithmetic, counter charges and frame dispatch that the simulation
   engine, the blocking session client and the socket daemon all run;
   the session client over the in-memory transport against the
   in-process framed pull; and the real thing — multi-process daemons
   over Unix-domain and TCP sockets, including kill -9 crash recovery
   from the WAL. *)

module Node = Edb_core.Node
module Message = Edb_core.Message
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Frame = Edb_persist.Frame
module Transport = Edb_transport.Transport
module Sim_transport = Edb_transport.Sim_transport
module Socket_transport = Edb_transport.Socket_transport
module Harness = Edb_transport.Harness
module Daemon = Edb_transport.Daemon
module Invariant = Edb_check.Invariant
module Session_client = Edb_transport.Session_client
module Session = Session_client.Make (Edb_transport.Sim_transport)

let set v = Operation.Set v

let check_node node = Invariant.check_node node

(* ---------- the shared retry arithmetic ---------- *)

(* The backoff ladder of the default policy, pinned: the engine's
   event-queue retries, the session client and the daemon's select loop
   must all compute these exact floats from these exact inputs. *)
let test_flow_arithmetic () =
  let p = Transport.default_retry_policy in
  (match Transport.Flow.on_timeout p ~attempt:0 with
  | Transport.Flow.Retry { attempt = 1; backoff } ->
    Alcotest.(check (float 0.0)) "first backoff" 0.5 backoff
  | _ -> Alcotest.fail "attempt 0 should retry");
  (match Transport.Flow.on_timeout p ~attempt:1 with
  | Transport.Flow.Retry { attempt = 2; backoff } ->
    Alcotest.(check (float 0.0)) "second backoff" 1.0 backoff
  | _ -> Alcotest.fail "attempt 1 should retry");
  (match Transport.Flow.on_timeout p ~attempt:2 with
  | Transport.Flow.Retry { attempt = 3; backoff } ->
    Alcotest.(check (float 0.0)) "third backoff" 2.0 backoff
  | _ -> Alcotest.fail "attempt 2 should retry");
  (match Transport.Flow.on_timeout p ~attempt:3 with
  | Transport.Flow.Abandon -> ()
  | _ -> Alcotest.fail "attempt 3 exhausts the budget");
  (* The cap engages exactly where the uncapped ladder would pass it. *)
  (match Transport.Flow.on_timeout { p with max_retries = 10 } ~attempt:6 with
  | Transport.Flow.Retry { backoff; _ } ->
    Alcotest.(check (float 0.0)) "capped backoff" p.Transport.backoff_max backoff
  | _ -> Alcotest.fail "attempt 6 should retry under a larger budget");
  (* Jitter stretches multiplicatively by the caller's uniform draw. *)
  Alcotest.(check (float 0.0)) "u = 0 leaves the backoff" 2.0
    (Transport.Flow.jittered p 2.0 ~u:0.0);
  Alcotest.(check (float 0.0)) "u = 1 stretches by 1 + jitter" 3.0
    (Transport.Flow.jittered p 2.0 ~u:1.0)

(* ---------- record tagging and frame dispatch ---------- *)

let test_record_tagging () =
  (match Transport.Record.classify (Transport.Record.frame "abc") with
  | Ok (Transport.Record.Frame "abc") -> ()
  | _ -> Alcotest.fail "frame record");
  (match Transport.Record.classify (Transport.Record.control "xyz") with
  | Ok (Transport.Record.Control "xyz") -> ()
  | _ -> Alcotest.fail "control record");
  (match Transport.Record.classify "Qgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must not classify");
  match Transport.Record.classify "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty record must not classify"

let negotiated_pair () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Frame.sync_pair b a;
  Frame.sync_pair a b;
  (a, b)

let test_frame_kind () =
  let a, b = negotiated_pair () in
  let request = Frame.encode_request b ~dst:0 in
  let reply = Frame.respond a ~src:1 request in
  let nak = Frame.encode_nak a ~dst:1 ~req_id:3 in
  Node.update a "x" (set "v2");
  let push =
    Frame.encode_push a ~dst:1
      [
        {
          Message.item = "x";
          seq = 2;
          ivv = Edb_vv.Version_vector.of_array [| 2; 0 |];
          value = "v2";
        };
      ]
  in
  Alcotest.(check bool) "request" true (Transport.frame_kind request = Some `Request);
  Alcotest.(check bool) "reply" true (Transport.frame_kind reply = Some `Reply);
  Alcotest.(check bool) "nak" true (Transport.frame_kind nak = Some `Nak);
  Alcotest.(check bool) "push" true (Transport.frame_kind push = Some `Push);
  Alcotest.(check bool) "short garbage" true (Transport.frame_kind "ab" = None)

(* The passive side: requests are answered, pushes applied, everything
   else — late replies, naks, garbage — dropped silently. *)
let test_serve_frame () =
  let a, b = negotiated_pair () in
  let request = Frame.encode_request b ~dst:0 in
  (match Transport.serve_frame a ~src:1 request with
  | Some reply -> (
    match Frame.decode_reply b ~src:0 reply with
    | Frame.Reply _ -> ()
    | Frame.Nak _ -> Alcotest.fail "request over live state must not nak")
  | None -> Alcotest.fail "request must be answered");
  let reply = Frame.respond a ~src:1 (Frame.encode_request b ~dst:0) in
  Alcotest.(check bool) "a stray reply drops" true
    (Transport.serve_frame a ~src:1 reply = None);
  Alcotest.(check bool) "garbage drops" true
    (Transport.serve_frame a ~src:1 "\x02\x02\x01not a frame" = None);
  (* A push reaches the injected application hook. *)
  Node.update a "x" (set "v2");
  let push =
    Frame.encode_push a ~dst:1
      [
        {
          Message.item = "x";
          seq = 2;
          ivv = Edb_vv.Version_vector.of_array [| 2; 0 |];
          value = "v2";
        };
      ]
  in
  let seen = ref [] in
  Alcotest.(check bool) "push produces no reply" true
    (Transport.serve_frame
       ~apply_push:(fun ~source u -> seen := (source, u.Message.item) :: !seen)
       b ~src:0 push
    = None);
  Alcotest.(check bool) "push applied through the hook" true (!seen = [ (0, "x") ])

(* ---------- the session client over the in-memory transport ---------- *)

let fresh_pair () =
  let source = Node.create ~id:0 ~n:2 () in
  let recipient = Node.create ~id:1 ~n:2 () in
  Node.update source "alpha" (set "a1");
  Node.update source "beta" (set (String.make 48 'b'));
  Node.update source "alpha" (set "a2");
  (source, recipient)

let sim_endpoint source recipient =
  let net = Sim_transport.create_net () in
  Sim_transport.serve_node net source;
  (net, Sim_transport.endpoint net ~id:(Node.id recipient))

(* One session through the full seam — endpoint, record tagging, frame
   dispatch — must leave both nodes exactly where the in-process framed
   pull leaves a control pair, and charge the same message and wire-byte
   counters; only the connection counters differ (the in-process pull
   opens none). *)
let test_sim_session_matches_frame_pull () =
  let source, recipient = fresh_pair () in
  let _net, ep = sim_endpoint source recipient in
  (match Session.pull ep ~node:recipient ~peer:0 () with
  | Session_client.Synced `Propagated -> ()
  | _ -> Alcotest.fail "first pull must propagate");
  let control_source, control_recipient = fresh_pair () in
  let (_ : Node.pull_result) =
    Frame.pull ~recipient:control_recipient ~source:control_source ()
  in
  Alcotest.(check bool) "recipient state identical" true
    (Node.export_state recipient = Node.export_state control_recipient);
  Alcotest.(check bool) "source state identical" true
    (Node.export_state source = Node.export_state control_source);
  let c = Node.counters recipient and cc = Node.counters control_recipient in
  Alcotest.(check int) "wire bytes charged identically" cc.Counters.wire_bytes_sent
    c.Counters.wire_bytes_sent;
  Alcotest.(check int) "messages charged identically" cc.Counters.messages
    c.Counters.messages;
  Alcotest.(check int) "bytes charged identically" cc.Counters.bytes_sent
    c.Counters.bytes_sent;
  let sc = Node.counters source and scc = Node.counters control_source in
  Alcotest.(check int) "source wire bytes identical" scc.Counters.wire_bytes_sent
    sc.Counters.wire_bytes_sent;
  Alcotest.(check int) "one connection opened" 1 c.Counters.connections_opened;
  Alcotest.(check int) "no connection retries" 0 c.Counters.connection_retries;
  Alcotest.(check int) "in-process pull opens none" 0 cc.Counters.connections_opened;
  (* A second session is answered you-are-current. *)
  match Session.pull ep ~node:recipient ~peer:0 () with
  | Session_client.Synced `Current -> ()
  | _ -> Alcotest.fail "second pull must be current"

(* Total record loss: the full backoff ladder runs, every attempt
   charges a dial and a timeout, and the session is abandoned with the
   connection counters telling the story. *)
let test_sim_total_loss_abandons () =
  let source, recipient = fresh_pair () in
  let net, ep = sim_endpoint source recipient in
  Sim_transport.set_drop net (fun () -> true);
  (match Session.pull ep ~node:recipient ~peer:0 () with
  | Session_client.Abandoned _ -> ()
  | Session_client.Synced _ -> Alcotest.fail "total loss cannot sync");
  let p = Transport.default_retry_policy in
  let attempts = p.Transport.max_retries + 1 in
  let c = Node.counters recipient in
  Alcotest.(check int) "a timeout per attempt" attempts c.Counters.timeouts;
  Alcotest.(check int) "a retry per re-send" p.Transport.max_retries
    c.Counters.retries;
  Alcotest.(check int) "abandoned once" 1 c.Counters.sessions_abandoned;
  Alcotest.(check int) "a dial per attempt" attempts c.Counters.connections_opened;
  Alcotest.(check int) "re-dials are connection retries" p.Transport.max_retries
    c.Counters.connection_retries;
  Alcotest.(check bool) "recipient saw nothing" true
    (Node.read recipient "alpha" = None)

(* Losing only the first record: one retry completes the session, and
   the re-dial shows up in [connection_retries]. *)
let test_sim_first_loss_recovers () =
  let source, recipient = fresh_pair () in
  let net, ep = sim_endpoint source recipient in
  let records = ref 0 in
  (* The drop predicate is consulted once per sent record and once per
     produced reply: losing exactly the first draw loses the first
     request on the wire. *)
  Sim_transport.set_drop net (fun () ->
      incr records;
      !records = 1);
  (match Session.pull ep ~node:recipient ~peer:0 () with
  | Session_client.Synced `Propagated -> ()
  | _ -> Alcotest.fail "retry must complete the session");
  let c = Node.counters recipient in
  Alcotest.(check int) "one timeout" 1 c.Counters.timeouts;
  Alcotest.(check int) "one retry" 1 c.Counters.retries;
  Alcotest.(check int) "nothing abandoned" 0 c.Counters.sessions_abandoned;
  Alcotest.(check int) "two dials" 2 c.Counters.connections_opened;
  Alcotest.(check int) "one was a re-dial" 1 c.Counters.connection_retries;
  Alcotest.(check bool) "data arrived" true (Node.read recipient "alpha" = Some "a2")

(* A crashed peer: the dial itself fails, charged like any other
   attempt. *)
let test_sim_dead_peer_abandons () =
  let source, recipient = fresh_pair () in
  let net, ep = sim_endpoint source recipient in
  Sim_transport.unregister net ~id:0;
  (match Session.pull ep ~node:recipient ~peer:0 () with
  | Session_client.Abandoned _ -> ()
  | Session_client.Synced _ -> Alcotest.fail "a dead peer cannot sync");
  let p = Transport.default_retry_policy in
  let c = Node.counters recipient in
  Alcotest.(check int) "a dial per attempt" (p.Transport.max_retries + 1)
    c.Counters.connections_opened

(* ---------- the socket transport, in one process ---------- *)

let temp_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "edb-seam-%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     dir)

(* One full session over a real Unix-domain socket: handshake, record
   framing across the stream, frame dispatch, reply — and the states
   land exactly where the in-memory seam lands them. *)
let test_socket_unix_session () =
  let source, recipient = fresh_pair () in
  let path = Filename.concat (Lazy.force temp_dir) "seam.sock" in
  let listen = Socket_transport.Unix_path path in
  let server =
    match Socket_transport.create ~listen ~id:0 ~peers:[] () with
    | Ok t -> t
    | Error e -> Alcotest.fail ("server create: " ^ e)
  in
  let client =
    match Socket_transport.create ~id:1 ~peers:[ (0, listen) ] () with
    | Ok t -> t
    | Error e -> Alcotest.fail ("client create: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      Socket_transport.close server;
      Socket_transport.close client)
    (fun () ->
      let conn =
        match Socket_transport.connect client ~peer:0 with
        | Ok c -> c
        | Error e -> Alcotest.fail ("connect: " ^ e)
      in
      let request = Frame.encode_request recipient ~dst:0 in
      (match Socket_transport.send conn (Transport.Record.frame request) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("send: " ^ e));
      let server_conn =
        match Socket_transport.accept ~timeout:5.0 server with
        | Ok c -> c
        | Error e -> Alcotest.fail ("accept: " ^ e)
      in
      (* The handshake identified the dialing node. *)
      Alcotest.(check int) "handshake peer id" 1
        (Socket_transport.peer server_conn);
      (match Socket_transport.recv ~timeout:5.0 server_conn with
      | Error e -> Alcotest.fail ("server recv: " ^ e)
      | Ok record -> (
        match Transport.Record.classify record with
        | Ok (Transport.Record.Frame frame) -> (
          Alcotest.(check string) "frame bytes survive the stream" request frame;
          match Transport.serve_frame source ~src:1 frame with
          | Some reply -> (
            match
              Socket_transport.send server_conn (Transport.Record.frame reply)
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("reply send: " ^ e))
          | None -> Alcotest.fail "request must be answered")
        | _ -> Alcotest.fail "expected a frame record"));
      (match Socket_transport.recv ~timeout:5.0 conn with
      | Error e -> Alcotest.fail ("client recv: " ^ e)
      | Ok record -> (
        match Transport.Record.classify record with
        | Ok (Transport.Record.Frame frame) -> (
          match Frame.decode_reply recipient ~src:0 frame with
          | Frame.Reply (reply, _) ->
            let (_ : Node.accept_result) =
              Node.accept_propagation recipient ~source:0 reply
            in
            ()
          | Frame.Nak _ -> Alcotest.fail "live state must not nak")
        | _ -> Alcotest.fail "expected a frame record"));
      Socket_transport.close_conn conn;
      Socket_transport.close_conn server_conn;
      Alcotest.(check bool) "replicated over the socket" true
        (Node.read recipient "alpha" = Some "a2"
        && Node.read recipient "beta" <> None);
      match check_node recipient with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invariants: " ^ e))

(* A listener whose backlog is full answers a non-blocking connect with
   EAGAIN: no connection was started, so dialing it must fail at once
   (the peer is retried next tick) rather than hand back a connection
   that can only sit until the session timeout. Backlog 1, never
   accepted: the first dials queue, the rest must be refused, and every
   connection that was handed back must take its handshake. *)
let test_dial_full_backlog_fails_fast () =
  let path = Filename.concat (Lazy.force temp_dir) "backlog.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let client =
    match
      Socket_transport.create ~id:1 ~peers:[ (0, Socket_transport.Unix_path path) ] ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail ("client create: " ^ e)
  in
  let conns = ref [] and refused = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter Socket_transport.close_conn !conns;
      Socket_transport.close client;
      Unix.close lfd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let started = Unix.gettimeofday () in
      for _ = 1 to 8 do
        match Socket_transport.dial client ~peer:0 with
        | Error _ -> incr refused
        | Ok conn -> conns := conn :: !conns
      done;
      Alcotest.(check bool) "a full backlog refuses some dial" true (!refused >= 1);
      Alcotest.(check bool) "refusals are prompt" true
        (Unix.gettimeofday () -. started < 1.0);
      List.iter
        (fun conn ->
          match Socket_transport.flush_output conn with
          | `Drained -> ()
          | `Blocked -> Alcotest.fail "a dialed connection hangs: never connected"
          | `Error e -> Alcotest.fail ("dialed connection failed late: " ^ e))
        !conns)

(* ---------- multi-process daemons ---------- *)

let cluster_dir name =
  let dir = Filename.concat (Lazy.force temp_dir) name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let require = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let await h =
  match Harness.await_converged ~deadline:20.0 ~invariant:check_node h with
  | Ok (_ : float) -> ()
  | Error e -> Alcotest.fail ("convergence: " ^ e)

(* Two daemons over Unix-domain sockets: single-writer updates on each
   side replicate both ways through the anti-entropy timers, and the
   connection counters show real dials happened. *)
let test_daemon_pair_converges () =
  let h = Harness.start ~seed:21 ~dir:(cluster_dir "pair") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "from zero"));
      require (Harness.update h ~node:1 ~item:"b.1" (set "from one"));
      await h;
      Alcotest.(check bool) "node 1 sees node 0's write" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "from zero");
      Alcotest.(check bool) "node 0 sees node 1's write" true
        (require (Harness.read h ~node:0 ~item:"b.1") = Some "from one");
      let c0 = require (Harness.counters_of h ~node:0) in
      Alcotest.(check bool) "real connections were opened" true
        (List.assoc "connections_opened" c0 > 0);
      Alcotest.(check bool) "wire bytes were charged" true
        (List.assoc "wire_bytes_sent" c0 > 0))

(* kill -9 mid-run: nothing is flushed, the WAL on disk is all there
   is. The restarted daemon must recover its own pre-kill writes from
   the journal and catch up on what it missed through anti-entropy. *)
let test_daemon_crash_recovery () =
  let h = Harness.start ~seed:33 ~dir:(cluster_dir "crash") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "pre-kill zero"));
      require (Harness.update h ~node:1 ~item:"b.1" (set "pre-kill one"));
      await h;
      Harness.kill h ~node:1;
      Alcotest.(check bool) "daemon 1 is gone" false (Harness.running h ~node:1);
      (* The survivor keeps writing while node 1 is down. *)
      require (Harness.update h ~node:0 ~item:"c.0" (set "while down"));
      require (Harness.update h ~node:0 ~item:"a.0" (set "overwritten"));
      Harness.restart h ~node:1;
      await h;
      (* Node 1 recovered its own write from the WAL... *)
      Alcotest.(check bool) "own write recovered" true
        (require (Harness.read h ~node:1 ~item:"b.1") = Some "pre-kill one");
      (* ...and caught up on everything it missed. *)
      Alcotest.(check bool) "missed write caught up" true
        (require (Harness.read h ~node:1 ~item:"c.0") = Some "while down");
      Alcotest.(check bool) "overwrite caught up" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "overwritten");
      Alcotest.(check bool) "survivor unscathed" true
        (require (Harness.read h ~node:0 ~item:"b.1") = Some "pre-kill one"))

(* The same harness over TCP (kernel-chosen ports). *)
let test_daemon_tcp_smoke () =
  let h = Harness.start ~kind:`Tcp ~seed:44 ~dir:(cluster_dir "tcp") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "over tcp"));
      await h;
      Alcotest.(check bool) "replicated over tcp" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "over tcp"))

(* ---------- WAL group commit: the sync is the commit point ---------- *)

(* Under group commit, appends buffer in the WAL channel and only
   {!Durable_node.sync} makes them durable. What a crash would find on
   disk at any instant is the file as the OS has it — snapshot it by
   copying, and replay the copy. The synced prefix must be exactly the
   records synced so far, never a partial batch, and recovery from that
   prefix must be a valid pre/post-session state. *)
let test_group_commit_sync_prefix () =
  let module Durable = Edb_persist.Durable_node in
  let module Wal = Edb_persist.Wal in
  let dir = cluster_dir "gcwal" in
  let crash_dir = cluster_dir "gcwal-crash" in
  let wal = Filename.concat dir "node.wal" in
  let copy_wal () =
    let ic = open_in_bin wal in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin (Filename.concat crash_dir "node.wal") in
    output_string oc data;
    close_out oc
  in
  let replay_count () =
    copy_wal ();
    match
      Wal.replay ~path:(Filename.concat crash_dir "node.wal") ~f:(fun _ -> ())
    with
    | Ok r ->
      Alcotest.(check bool) "no torn tail in a group-commit batch" false
        r.Wal.torn_tail;
      r.Wal.records
    | Error e -> Alcotest.fail ("replay: " ^ e)
  in
  let d, _ = require (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
  Durable.set_group_commit d true;
  Durable.update d "a" (set "1");
  Durable.update d "b" (set "2");
  Alcotest.(check int) "two records pending" 2 (Durable.unsynced_records d);
  Alcotest.(check int) "nothing durable before the sync" 0 (replay_count ());
  Durable.sync d;
  Alcotest.(check int) "sync drains the batch" 0 (Durable.unsynced_records d);
  Alcotest.(check int) "the whole batch is durable" 2 (replay_count ());
  (* The next batch stays invisible until its own sync: what's on disk
     is always an exact prefix at a batch boundary. *)
  Durable.update d "c" (set "3");
  Alcotest.(check int) "on disk: still the synced prefix" 2 (replay_count ());
  (* Recovery from the crash image is the exact pre-session state for
     the unsynced update, post-session for the synced ones. *)
  let r, replayed =
    require (Durable.open_or_create ~dir:crash_dir ~id:0 ~n:2 ())
  in
  Alcotest.(check int) "recovery replays the prefix" 2 replayed.Wal.records;
  Alcotest.(check bool) "synced updates recovered" true
    (Node.read (Durable.node r) "a" = Some "1"
    && Node.read (Durable.node r) "b" = Some "2");
  Alcotest.(check bool) "unsynced update rolled back whole" true
    (Node.read (Durable.node r) "c" = None);
  Durable.close r;
  (* Turning group commit off syncs the pending batch. *)
  Durable.set_group_commit d false;
  Alcotest.(check int) "disabling group commit syncs" 3 (replay_count ());
  Durable.close d

(* ---------- N-daemon soak: concurrency, control load, kill -9 ---------- *)

(* Five daemons each pulling four peers per fast anti-entropy tick:
   sessions of different daemons overlapping, a stream of control
   writes racing them, and a mid-batch kill -9 — with group
   commit on, the Ack discipline means any acknowledged write must
   survive the crash (no reply precedes the durability of its commit
   record), and the cluster must converge checker-clean around the
   outage. *)
let test_daemon_soak_concurrent () =
  let n = 5 in
  let h =
    Harness.start ~ae_period:0.01 ~max_sessions:4 ~seed:55
      ~dir:(cluster_dir "soak") ~n ()
  in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      let write round node =
        require
          (Harness.update h ~node
             ~item:(Printf.sprintf "r%d.n%d" round node)
             (set (Printf.sprintf "round %d from %d" round node)))
      in
      (* Two full rounds of interleaved writes while anti-entropy
         sessions overlap underneath — no convergence barrier between
         writes, so sessions, pushes and control traffic race. *)
      for round = 0 to 1 do
        for node = 0 to n - 1 do
          write round node
        done
      done;
      (* Mid-batch crash: node 2 acknowledges one more write and is
         immediately SIGKILLed — nothing further is flushed. The Ack
         came after the group-commit sync, so the write must be in the
         WAL. *)
      write 2 2;
      Harness.kill h ~node:2;
      Alcotest.(check bool) "node 2 is down" false (Harness.running h ~node:2);
      (* Survivors keep the load up while node 2 is dead. *)
      for node = 0 to n - 1 do
        if node <> 2 then write 3 node
      done;
      Harness.restart h ~node:2;
      (* The recovered daemon serves immediately and keeps accepting
         writes. *)
      write 4 2;
      for node = 0 to n - 1 do
        if node <> 2 then write 4 node
      done;
      (match Harness.await_converged ~deadline:30.0 ~invariant:check_node h with
      | Ok (_ : float) -> ()
      | Error e -> Alcotest.fail ("soak convergence: " ^ e));
      (* The acknowledged pre-kill write survived kill -9 on the
         crashed node itself... *)
      Alcotest.(check bool) "acked write survived the crash" true
        (require (Harness.read h ~node:2 ~item:"r2.n2")
        = Some "round 2 from 2");
      (* ...and every write of every round is visible everywhere. *)
      for node = 0 to n - 1 do
        for round = 0 to 1 do
          for origin = 0 to n - 1 do
            let item = Printf.sprintf "r%d.n%d" round origin in
            Alcotest.(check bool)
              (Printf.sprintf "%s visible on node %d" item node)
              true
              (require (Harness.read h ~node ~item)
              = Some (Printf.sprintf "round %d from %d" round origin))
          done
        done
      done;
      let sessions_of node =
        let c = require (Harness.counters_of h ~node) in
        List.assoc "propagation_sessions" c + List.assoc "noop_sessions" c
      in
      let total = ref 0 in
      for node = 0 to n - 1 do
        total := !total + sessions_of node
      done;
      Alcotest.(check bool) "anti-entropy actually ran concurrently" true
        (!total > n))


(* ---------- the tick's chain of pulls ---------- *)

(* Two writers, one reader, no waiting between writes. Each tick pulls
   its peers one after another, and each request carries the DBVV the
   previous reply left, so no source ships a copy its recipient already
   holds: the copies sources shipped (items_examined) match the copies
   recipients adopted (items_copied). Pulling both peers at once
   shipped 900 copies for 600 adopted here. *)
let test_daemon_chain_ships_no_repeats () =
  let n = 3 and writes = 300 in
  let h = Harness.start ~seed:66 ~dir:(cluster_dir "chain") ~n () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      for i = 0 to writes - 1 do
        let node = i mod 2 in
        require
          (Harness.update h ~node ~item:(Printf.sprintf "w%d.n%d" i node)
             (set (string_of_int i)))
      done;
      await h;
      let sum name =
        let total = ref 0 in
        for node = 0 to n - 1 do
          total := !total + List.assoc name (require (Harness.counters_of h ~node))
        done;
        !total
      in
      let shipped = sum "items_examined" and adopted = sum "items_copied" in
      Alcotest.(check int) "every write adopted once by each other node"
        (writes * (n - 1)) adopted;
      (* A retry runs beside the chain, so a timed-out attempt on a
         loaded host may overlap it: allow a few percent. *)
      if shipped > adopted + (adopted / 20) then
        Alcotest.failf "shipped %d copies for %d adopted" shipped adopted)

(* The upper bound on reply timeouts a peer that never answers can
   cause in [window] seconds: its first attempt starts at once, every
   retry waits out its (unjittered) backoff, and an abandoned peer is
   picked again at once. *)
let hung_peer_timeouts policy ~window =
  let rec go at attempt count =
    let fails_at = at +. policy.Transport.timeout in
    if fails_at > window then count
    else
      match Transport.Flow.on_timeout policy ~attempt with
      | Transport.Flow.Abandon -> go fails_at 0 (count + 1)
      | Transport.Flow.Retry { attempt; backoff } ->
        go (fails_at +. backoff) attempt (count + 1)
  in
  go 0.0 0 0

(* One live peer and one that accepts connections and never answers
   (a listening socket nobody accepts from). A hung attempt costs the
   chain one reply timeout, then the chain moves on and the retry runs
   beside it: every write on the live peer reaches the daemon within a
   reply timeout plus a few ticks, and the hung peer is dialed on its
   backoff schedule, not on every tick. Both daemons run in this
   process, stepped in turn. *)
let test_daemon_hung_peer_does_not_stall () =
  let dir = cluster_dir "hung" in
  let path name = Filename.concat dir name in
  let hung_path = path "hung.sock" in
  (try Unix.unlink hung_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX hung_path);
  Unix.listen lfd 64;
  let tick = 0.02 in
  let retry =
    { Transport.default_retry_policy with timeout = 0.25; backoff_base = 0.25; jitter = 0.0 }
  in
  let addr id = Socket_transport.Unix_path (path (Printf.sprintf "d%d.sock" id)) in
  let hung = (2, Socket_transport.Unix_path hung_path) in
  let daemon id ~peer =
    require
      (Daemon.create
         (Daemon.Config.make ~ae_period:tick ~retry ~seed:77 ~id ~n:3
            ~dir:(path (Printf.sprintf "node%d" id))
            ~listen:(addr id)
            ~peers:[ (peer, addr peer); hung ]
            ()))
  in
  let a = daemon 0 ~peer:1 in
  let b = daemon 1 ~peer:0 in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown a;
      Daemon.shutdown b;
      Unix.close lfd;
      try Unix.unlink hung_path with Unix.Unix_error _ -> ())
    (fun () ->
      let started = Unix.gettimeofday () in
      let window = 2.0 in
      let worst = ref 0.0 and writes = ref 0 in
      while Unix.gettimeofday () -. started < window do
        let item = Printf.sprintf "w%d" !writes in
        (* Straight into the live peer's node: only propagation is
           under test here. *)
        Node.update (Daemon.node b) item (set "live");
        let written = Unix.gettimeofday () in
        while Node.read (Daemon.node a) item = None && Unix.gettimeofday () -. written < window do
          Daemon.step a;
          Daemon.step b
        done;
        worst := Float.max !worst (Unix.gettimeofday () -. written);
        incr writes
      done;
      let elapsed = Unix.gettimeofday () -. started in
      let limit = retry.Transport.timeout +. (10.0 *. tick) in
      if !worst > limit then
        Alcotest.failf "a write took %.3f s to arrive (limit %.3f s)" !worst limit;
      let timeouts = (Node.counters (Daemon.node a)).Counters.timeouts in
      let schedule = hung_peer_timeouts retry ~window:elapsed in
      if timeouts < 1 || timeouts > schedule then
        Alcotest.failf "%d reply timeouts in %.2f s; the backoff schedule allows 1..%d"
          timeouts elapsed schedule)

(* ---------- accepted connections stay under FD_SETSIZE ---------- *)

(* select(2) cannot watch an fd of 1024 or more, so a daemon must never
   hold one. Flood it with idle connections well past that: it accepts
   up to its bound, closes the rest, still answers a Ping on a control
   connection opened before the flood, and still pulls a write made on
   the other node. The connections are plain fds of this process. *)
let test_daemon_survives_connection_flood () =
  let h = Harness.start ~seed:88 ~dir:(cluster_dir "flood") ~n:2 () in
  let flood = ref [] in
  let client =
    match Socket_transport.create ~id:2 ~peers:[ (1, Harness.addr h ~node:1) ] () with
    | Ok t -> t
    | Error e -> Alcotest.fail ("client create: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !flood;
      Socket_transport.close client;
      Harness.shutdown h)
    (fun () ->
      let control =
        (* The first dials may race the daemon's boot. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec dial () =
          match Socket_transport.connect client ~peer:1 with
          | Ok conn -> conn
          | Error e ->
            if Unix.gettimeofday () > deadline then Alcotest.fail ("control dial: " ^ e);
            Unix.sleepf 0.02;
            dial ()
        in
        dial ()
      in
      let ping () =
        let request = Daemon.Control.encode_request Daemon.Control.Ping in
        match Socket_transport.send control (Transport.Record.control request) with
        | Error e -> Error e
        | Ok () -> (
          match Socket_transport.recv ~timeout:5.0 control with
          | Error e -> Error e
          | Ok record -> (
            match Transport.Record.classify record with
            | Ok (Transport.Record.Control reply)
              when Daemon.Control.decode_reply reply = Daemon.Control.Ack ->
              Ok ()
            | _ -> Error "unexpected reply to Ping"))
      in
      require (ping ());
      (* The harness's control connections too are opened before the
         flood: this process's own select cannot watch a high fd
         either. *)
      for node = 0 to 1 do
        ignore (require (Harness.read h ~node ~item:"after.flood") : string option)
      done;
      let sockaddr =
        match Harness.addr h ~node:1 with
        | Socket_transport.Unix_path p -> Unix.ADDR_UNIX p
        | Socket_transport.Tcp _ -> Alcotest.fail "expected a Unix-domain daemon"
      in
      let target = 1100 in
      let limited = ref None in
      let deadline = Unix.gettimeofday () +. 20.0 in
      while List.length !flood < target && !limited = None do
        match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error (e, _, _) -> limited := Some (Unix.error_message e)
        | fd -> (
          Unix.set_nonblock fd;
          match Unix.connect fd sockaddr with
          | () -> flood := fd :: !flood
          | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
            (* The backlog is full until the daemon's next accept. *)
            Unix.close fd;
            if Unix.gettimeofday () > deadline then
              Alcotest.failf "the daemon stopped accepting after %d connections"
                (List.length !flood);
            Unix.sleepf 0.001
          | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            Alcotest.failf "connection %d refused: %s" (List.length !flood)
              (Unix.error_message e))
      done;
      (match !limited with
      | Some why when List.length !flood <= Daemon.max_accepted ->
        Printf.eprintf
          "connection flood stopped by this host's fd limit at %d connections (%s), \
           not past the daemon's bound of %d: the bound was not exercised\n%!"
          (List.length !flood) why Daemon.max_accepted;
        Alcotest.skip ()
      | _ -> ());
      (* Let the daemon turn over the whole flood before probing it. *)
      Unix.sleepf 0.2;
      require (ping ());
      require (Harness.update h ~node:0 ~item:"after.flood" (set "pulled"));
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec pulled () =
        match Harness.read h ~node:1 ~item:"after.flood" with
        | Ok (Some "pulled") -> ()
        | Ok _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          pulled ()
        | Ok _ -> Alcotest.fail "the flooded daemon did not pull the write"
        | Error e -> Alcotest.fail ("flooded daemon: " ^ e)
      in
      pulled ())

let suite =
  [
    Alcotest.test_case "flow: backoff ladder arithmetic" `Quick
      test_flow_arithmetic;
    Alcotest.test_case "record tagging" `Quick test_record_tagging;
    Alcotest.test_case "frame kind peek" `Quick test_frame_kind;
    Alcotest.test_case "serve_frame dispatch" `Quick test_serve_frame;
    Alcotest.test_case "sim session = in-process framed pull" `Quick
      test_sim_session_matches_frame_pull;
    Alcotest.test_case "sim: total loss abandons, fully charged" `Quick
      test_sim_total_loss_abandons;
    Alcotest.test_case "sim: first loss recovers via retry" `Quick
      test_sim_first_loss_recovers;
    Alcotest.test_case "sim: dead peer abandons" `Quick
      test_sim_dead_peer_abandons;
    Alcotest.test_case "socket: one session over a unix socket" `Quick
      test_socket_unix_session;
    Alcotest.test_case "socket: full backlog refuses dial promptly" `Quick
      test_dial_full_backlog_fails_fast;
    Alcotest.test_case "daemons: 2-process unix cluster converges" `Quick
      test_daemon_pair_converges;
    Alcotest.test_case "daemons: kill -9 recovery from the WAL" `Quick
      test_daemon_crash_recovery;
    Alcotest.test_case "daemons: tcp smoke" `Quick test_daemon_tcp_smoke;
    Alcotest.test_case "wal: group commit syncs an exact prefix" `Quick
      test_group_commit_sync_prefix;
    Alcotest.test_case "daemons: 5-process soak with kill -9 under load" `Quick
      test_daemon_soak_concurrent;
    Alcotest.test_case "daemons: chained pulls ship no copy twice" `Quick
      test_daemon_chain_ships_no_repeats;
    Alcotest.test_case "daemon: a hung peer does not stall the chain" `Quick
      test_daemon_hung_peer_does_not_stall;
    Alcotest.test_case "daemon: survives a flood of idle connections" `Quick
      test_daemon_survives_connection_flood;
  ]
