module Node = Edb_core.Node
module Message = Edb_core.Message
module Counters = Edb_metrics.Counters
module Operation = Edb_store.Operation
module Prng = Edb_util.Prng
module Frame = Edb_persist.Frame
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Snapshot = Edb_persist.Snapshot
module Durable_node = Edb_persist.Durable_node
module Channel = Edb_push.Channel
module T = Socket_transport

(* One protocol node as a process: a {!Durable_node} (WAL + checkpoint)
   served over a {!Socket_transport} select loop. The daemon is both
   sides of the protocol at once — it answers inbound requests and
   pushes, and runs its own anti-entropy timer as the initiator — and
   nothing in the loop may block. Each anti-entropy tick picks up to
   [max_sessions] peers and pulls from them one after another: the next
   request is built only when the previous attempt has ended, so it
   carries the DBVV the previous reply left and no reply re-ships what
   the one before it delivered. Every attempt is just another fd in the
   select set with its reply deadline; a failed attempt leaves the
   chain, which moves on at once, and its backoff retry is dialed from
   its own timer beside the chain. Every connection is non-blocking
   with a per-connection output buffer (writable-fd interest,
   partial-write resumption), and the WAL group-commits once per loop
   turn — no record buffered for a peer is released to the wire before
   the batch holding its commit record is durable. The timeout/retry
   arithmetic is the shared {!Transport.Flow}; the counter charges are
   the shared {!Transport.Charge}. *)

module Config = struct
  type t = {
    id : int;
    n : int;
    dir : string;
    listen : T.addr;
    peers : (int * T.addr) list;
    ae_period : float;
    retry : Transport.retry_policy;
    push : Channel.config option;
    seed : int;
    checkpoint_every : int;
    max_runtime : float option;
    max_sessions : int;
  }

  let make ?(ae_period = 0.05) ?(retry = { Transport.default_retry_policy with timeout = 0.5 })
      ?push ?(seed = 1) ?(checkpoint_every = 0) ?max_runtime ?(max_sessions = 4) ~id ~n
      ~dir ~listen ~peers () =
    {
      id;
      n;
      dir;
      listen;
      peers;
      ae_period;
      retry;
      push;
      seed;
      checkpoint_every;
      max_runtime;
      max_sessions = max 1 max_sessions;
    }
end

(* The client-facing control protocol, one {!Codec} envelope per
   record behind the ['C'] tag: how the harness (and `edb_cli cluster`)
   drives updates, reads state, and shuts a daemon down. *)
module Control = struct
  type request =
    | Ping
    | Update of { item : string; op : Operation.t }
    | Read of { item : string }
    | Export
    | Counters_req
    | Checkpoint
    | Quit

  type reply =
    | Ack
    | Value of string option
    | State of string
    | Stats of (string * int) list
    | Failed of string

  let encode_request r =
    Codec.Writer.with_scratch (fun w ->
        (match r with
        | Ping -> Codec.Writer.byte w 0
        | Update { item; op } ->
          Codec.Writer.byte w 1;
          Codec.Writer.string w item;
          Wire.encode_operation w op
        | Read { item } ->
          Codec.Writer.byte w 2;
          Codec.Writer.string w item
        | Export -> Codec.Writer.byte w 3
        | Counters_req -> Codec.Writer.byte w 4
        | Checkpoint -> Codec.Writer.byte w 5
        | Quit -> Codec.Writer.byte w 6);
        Codec.Writer.contents w)

  let decode_request data =
    let r = Codec.Reader.create data in
    let req =
      match Codec.Reader.byte r with
      | 0 -> Ping
      | 1 ->
        let item = Codec.Reader.string r in
        let op = Wire.decode_operation r in
        Update { item; op }
      | 2 -> Read { item = Codec.Reader.string r }
      | 3 -> Export
      | 4 -> Counters_req
      | 5 -> Checkpoint
      | 6 -> Quit
      | tag -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown control request %d" tag))
    in
    Codec.Reader.expect_end r;
    req

  let encode_reply r =
    Codec.Writer.with_scratch (fun w ->
        (match r with
        | Ack -> Codec.Writer.byte w 0
        | Value v ->
          Codec.Writer.byte w 1;
          Codec.Writer.bool w (v <> None);
          Codec.Writer.string w (Option.value v ~default:"")
        | State s ->
          Codec.Writer.byte w 2;
          Codec.Writer.string w s
        | Stats fields ->
          Codec.Writer.byte w 3;
          Codec.Writer.list w
            (fun w (name, v) ->
              Codec.Writer.string w name;
              Codec.Writer.int w v)
            fields
        | Failed msg ->
          Codec.Writer.byte w 4;
          Codec.Writer.string w msg);
        Codec.Writer.contents w)

  let decode_reply data =
    let r = Codec.Reader.create data in
    let reply =
      match Codec.Reader.byte r with
      | 0 -> Ack
      | 1 ->
        let present = Codec.Reader.bool r in
        let v = Codec.Reader.string r in
        Value (if present then Some v else None)
      | 2 -> State (Codec.Reader.string r)
      | 3 ->
        Stats
          (Codec.Reader.list r (fun r ->
               let name = Codec.Reader.string r in
               let v = Codec.Reader.int r in
               (name, v)))
      | 4 -> Failed (Codec.Reader.string r)
      | tag -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown control reply %d" tag))
    in
    Codec.Reader.expect_end r;
    reply
end

(* An initiator-side session state machine, one per peer: either an
   attempt is in flight (a dialed non-blocking connection with a reply
   deadline) or the session sits in its backoff window waiting to
   re-dial. *)
type session = {
  s_peer : int;
  mutable attempt : int;
  mutable sconn : T.conn option;
  mutable deadline : float;
  mutable retry_at : float;
}

(* select(2) takes fds below FD_SETSIZE (1024) only, and [Unix.select]
   raises [EINVAL] on any larger one. Dialed connections are bounded by
   the peer count; accepted ones are bounded here, and a connection
   accepted beyond the bound is closed at once, so its fd is reused. *)
let max_accepted = 512

type t = {
  config : Config.t;
  durable : Durable_node.t;
  transport : T.t;
  channel : Channel.t option;
  prng : Prng.t;
  started : float;
  (* Accepted connections: peers' sessions and push streams, control
     clients. Non-blocking; a freshly accepted one is anonymous
     ([T.peer conn = -1]) until its handshake arrives via read. *)
  mutable conns : T.conn list;
  (* Initiator sessions, keyed by peer: the chain's attempt and the
     retries running beside it. *)
  sessions : (int, session) Hashtbl.t;
  (* The tick's chain of pulls: [link] is the session whose attempt the
     chain waits on, [chain] the peers the latest tick picked that are
     not dialed yet. *)
  mutable link : session option;
  mutable chain : int list;
  (* Persistent non-blocking push connections, one per peer dialed on
     first flush: a slow push peer accumulates buffered frames (up to
     the transport's cap) instead of stalling the loop. *)
  push_conns : (int, T.conn) Hashtbl.t;
  mutable next_ae : float;
  mutable next_push : float;
  mutable quit : bool;
}

let node t = Durable_node.node t.durable

let counters t = Node.counters (node t)

let close_session_conn s =
  match s.sconn with
  | Some conn ->
    T.close_conn conn;
    s.sconn <- None
  | None -> ()

let is_link t s = match t.link with Some l -> l == s | None -> false

(* The chain's attempt has ended — accepted, current, nak'd or failed:
   dial the next peer the latest tick picked. Its request is encoded
   now, from the state the ended attempt left. *)
let rec advance_chain t =
  t.link <- None;
  match t.chain with
  | [] -> ()
  | peer :: rest ->
    (* A picked peer had no session, and only the chain dials one. *)
    t.chain <- rest;
    let s = { s_peer = peer; attempt = 0; sconn = None; deadline = 0.0; retry_at = 0.0 } in
    Hashtbl.replace t.sessions peer s;
    t.link <- Some s;
    dial_session t s

and session_done t s =
  close_session_conn s;
  Hashtbl.remove t.sessions s.s_peer;
  if is_link t s then advance_chain t

(* A failed attempt — refused dial, send error, reply deadline passed,
   peer closed mid-session, corrupt reply — all funnel here, mirroring
   the simulated transport's single timeout failure mode. The session
   leaves the chain, which moves on at once; its retry, if any, is
   dialed from its backoff timer in [step]. *)
and session_attempt_failed t s =
  close_session_conn s;
  let c = counters t in
  c.Counters.timeouts <- c.Counters.timeouts + 1;
  (match Transport.Flow.on_timeout t.config.Config.retry ~attempt:s.attempt with
  | Transport.Flow.Abandon ->
    c.Counters.sessions_abandoned <- c.Counters.sessions_abandoned + 1;
    Hashtbl.remove t.sessions s.s_peer
  | Transport.Flow.Retry { attempt; backoff } ->
    c.Counters.retries <- c.Counters.retries + 1;
    s.attempt <- attempt;
    s.deadline <- 0.0;
    s.retry_at <-
      Unix.gettimeofday ()
      +. Transport.Flow.jittered t.config.Config.retry backoff ~u:(Prng.float t.prng 1.0));
  if is_link t s then advance_chain t

and dial_session t s =
  let nd = node t in
  Transport.Charge.dial ~retry:(s.attempt > 0) (counters t);
  s.retry_at <- 0.0;
  (* Non-blocking dial: the handshake and request only enter the
     connection's output buffer here; the loop's flush phase drives
     them out, and a connect still in progress just reports [`Blocked]
     until the kernel finishes it. *)
  match T.dial t.transport ~peer:s.s_peer with
  | Error _ -> session_attempt_failed t s
  | Ok conn -> (
    (* Re-encode per attempt: fresh request id, current vectors. *)
    let frame = Frame.encode_request nd ~dst:s.s_peer in
    Transport.Charge.request nd frame;
    match T.send conn (Transport.Record.frame frame) with
    | Error _ ->
      T.close_conn conn;
      session_attempt_failed t s
    | Ok () ->
      s.sconn <- Some conn;
      s.deadline <- Unix.gettimeofday () +. t.config.Config.retry.Transport.timeout)

let session_reply t s frame =
  match Frame.decode_reply (node t) ~src:s.s_peer frame with
  | Frame.Nak _ | Frame.Reply (Message.You_are_current, _) -> session_done t s
  | Frame.Reply (reply, _) ->
    Durable_node.accept_reply t.durable ~source:s.s_peer reply;
    session_done t s
  | exception Codec.Reader.Corrupt _ -> session_attempt_failed t s

let session_capacity t = min t.config.Config.max_sessions (t.config.Config.n - 1)

(* Each anti-entropy tick picks, in uniformly random order, distinct
   peers with no session, up to the free capacity, and makes them the
   chain: they replace the peers an earlier tick picked and has not
   dialed yet, and the first is dialed at once unless the chain is
   still waiting on an attempt. With [max_sessions = 1] this is exactly
   the one-random-peer tick. *)
let tick_chain t =
  let cap = session_capacity t in
  let active = Hashtbl.length t.sessions in
  let picks =
    if cap <= active then []
    else begin
      let free = ref [] in
      for p = t.config.Config.n - 1 downto 0 do
        if p <> t.config.Config.id && not (Hashtbl.mem t.sessions p) then free := p :: !free
      done;
      let free = Array.of_list !free in
      let avail = Array.length free in
      let need = min (cap - active) avail in
      for k = 0 to need - 1 do
        let j = k + Prng.int t.prng (avail - k) in
        let picked = free.(j) in
        free.(j) <- free.(k);
        free.(k) <- picked
      done;
      Array.to_list (Array.sub free 0 need)
    end
  in
  t.chain <- picks;
  if t.link = None then advance_chain t

let drop_push_conn t dst conn =
  T.close_conn conn;
  Hashtbl.remove t.push_conns dst

let push_conn t dst =
  match Hashtbl.find_opt t.push_conns dst with
  | Some conn -> Some conn
  | None -> (
    Transport.Charge.dial (counters t);
    match T.dial t.transport ~peer:dst with
    | Error _ -> None
    | Ok conn ->
      Hashtbl.replace t.push_conns dst conn;
      Some conn)

let flush_push t =
  match t.channel with
  | None -> ()
  | Some channel ->
    let nd = node t in
    List.iter
      (fun (dst, updates) ->
        let frame = Frame.encode_push nd ~dst updates in
        Transport.Charge.push nd ~updates frame;
        (* Best effort end to end: a refused dial, a dead stream or an
           overflowing buffer is a lost push frame, repaired by
           anti-entropy. *)
        match push_conn t dst with
        | None -> ()
        | Some conn -> (
          match T.send conn (Transport.Record.frame frame) with
          | Ok () -> ()
          | Error _ -> drop_push_conn t dst conn))
      (Channel.flush channel ~ready:(fun peer -> Frame.push_ready nd ~dst:peer))

let handle_control t conn payload =
  let reply =
    match Control.decode_request payload with
    | exception Codec.Reader.Corrupt msg -> Control.Failed ("bad control request: " ^ msg)
    | Control.Ping -> Control.Ack
    | Control.Update { item; op } ->
      Durable_node.update t.durable item op;
      Control.Ack
    | Control.Read { item } -> Control.Value (Node.read (node t) item)
    | Control.Export -> Control.State (Snapshot.encode (node t))
    | Control.Counters_req ->
      let c = counters t in
      Control.Stats (List.map (fun (name, get) -> (name, get c)) Counters.fields)
    | Control.Checkpoint ->
      Durable_node.checkpoint t.durable;
      Control.Ack
    | Control.Quit ->
      t.quit <- true;
      Control.Ack
  in
  let (_ : (unit, string) result) =
    T.send conn (Transport.Record.control (Control.encode_reply reply))
  in
  ()

let handle_server_record t conn record =
  match Transport.Record.classify record with
  | Error _ -> ()
  | Ok (Transport.Record.Control payload) -> handle_control t conn payload
  | Ok (Transport.Record.Frame frame) ->
    let peer = T.peer conn in
    (* The peer cache is indexed by the fixed dimension; frames from
       outside it (control clients, confused peers) are dropped. *)
    if peer >= 0 && peer < t.config.Config.n && peer <> t.config.Config.id then (
      match
        Transport.serve_frame
          ~apply_push:(fun ~source u ->
            let (_ : [ `Applied | `Stale ]) = Durable_node.apply_push t.durable ~source u in
            ())
          (node t) ~src:peer frame
      with
      | None -> ()
      | Some reply ->
        let (_ : (unit, string) result) =
          T.send conn (Transport.Record.frame reply)
        in
        ())

(* Drain every complete record buffered on [conn]; [`Closed] when the
   connection should be dropped. *)
let drain_conn t conn ~on_record =
  let rec loop () =
    match T.next_record conn with
    | Some record ->
      on_record t conn record;
      loop ()
    | None -> `Open
    | exception Codec.Reader.Corrupt _ -> `Closed
  in
  loop ()

let service_conn t conn ~on_record =
  match T.read_into conn with
  | `Eof | `Error _ ->
    (* Flush what already arrived, then drop the connection. *)
    let (_ : [ `Open | `Closed ]) = drain_conn t conn ~on_record in
    `Closed
  | `Data -> drain_conn t conn ~on_record

let create config =
  let { Config.id; n; dir; listen; peers; push; seed; _ } = config in
  match Durable_node.open_or_create ~dir ~id ~n () with
  | Error _ as e -> e
  | Ok (durable, _replay) -> (
    match T.create ~listen ~id ~peers () with
    | Error _ as e ->
      Durable_node.close durable;
      e
    | Ok transport ->
      let now = Unix.gettimeofday () in
      let channel = Option.map (fun c -> Channel.create ~config:c (Durable_node.node durable)) push in
      (* Group commit: handlers journal with the batch open, one WAL
         flush per loop turn releases it (see [finalize_turn]). *)
      Durable_node.set_group_commit durable true;
      Ok
        {
          config;
          durable;
          transport;
          channel;
          prng = Prng.create ~seed:(seed + id);
          started = now;
          conns = [];
          sessions = Hashtbl.create 8;
          link = None;
          chain = [];
          push_conns = Hashtbl.create 8;
          (* Stagger first rounds so an N-process boot doesn't dial in
             lockstep. *)
          next_ae = now +. (config.Config.ae_period *. (1.0 +. (float_of_int id /. float_of_int n)));
          next_push =
            (match push with Some c -> now +. c.Channel.flush_period | None -> infinity);
          quit = false;
        })

let listen_addr t = T.listen_addr t.transport

let all_sessions t = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []

(* The turn's closing barrier, in this order: one WAL flush commits
   every record the turn's handlers journaled (group commit), and only
   then is any buffered output released to the wire — so no reply, ack
   or push ever reaches a peer before the batch holding its commit
   record is durable. A write error on flush is the connection's
   failure point: sessions funnel it through the retry machinery,
   server and push connections are dropped. *)
let finalize_turn t =
  Durable_node.sync t.durable;
  t.conns <-
    List.filter
      (fun conn ->
        (not (T.want_write conn))
        ||
        match T.flush_output conn with
        | `Drained | `Blocked -> true
        | `Error _ ->
          T.close_conn conn;
          false)
      t.conns;
  List.iter
    (fun s ->
      match s.sconn with
      | Some conn when T.want_write conn -> (
        match T.flush_output conn with
        | `Drained | `Blocked -> ()
        | `Error _ -> session_attempt_failed t s)
      | _ -> ())
    (all_sessions t);
  let dead_push =
    Hashtbl.fold
      (fun dst conn acc ->
        if not (T.want_write conn) then acc
        else
          match T.flush_output conn with
          | `Drained | `Blocked -> acc
          | `Error _ -> (dst, conn) :: acc)
      t.push_conns []
  in
  List.iter (fun (dst, conn) -> drop_push_conn t dst conn) dead_push

let step t =
  let now = Unix.gettimeofday () in
  (* Timers first: they may start or fail sessions, changing the fd
     set select should watch. *)
  List.iter
    (fun s ->
      if Hashtbl.mem t.sessions s.s_peer then
        if s.sconn = None && s.retry_at > 0.0 && now >= s.retry_at then dial_session t s
        else if s.sconn <> None && now >= s.deadline then session_attempt_failed t s)
    (all_sessions t);
  if now >= t.next_ae then begin
    t.next_ae <- now +. t.config.Config.ae_period;
    if t.config.Config.n > 1 then tick_chain t
  end;
  if now >= t.next_push then begin
    (match t.channel with
    | Some c -> t.next_push <- now +. (Channel.config c).Channel.flush_period
    | None -> t.next_push <- infinity);
    flush_push t
  end;
  if t.config.Config.checkpoint_every > 0
     && Durable_node.journal_records t.durable >= t.config.Config.checkpoint_every
  then Durable_node.checkpoint t.durable;
  (match t.config.Config.max_runtime with
  | Some limit when now -. t.started >= limit -> t.quit <- true
  | _ -> ());
  if t.quit then finalize_turn t
  else begin
    let next_timer =
      Hashtbl.fold
        (fun _ s acc ->
          min acc
            (if s.sconn <> None then s.deadline
             else if s.retry_at > 0.0 then s.retry_at
             else infinity))
        t.sessions
        (min t.next_ae t.next_push)
    in
    let wait = Float.max 0.0 (Float.min 0.25 (next_timer -. now)) in
    let session_conns =
      Hashtbl.fold
        (fun _ s acc -> match s.sconn with Some c -> (s, c) :: acc | None -> acc)
        t.sessions []
    in
    let push_streams = Hashtbl.fold (fun dst c acc -> (dst, c) :: acc) t.push_conns [] in
    let listen_fds = match T.listen_fd t.transport with Some fd -> [ fd ] | None -> [] in
    let read_fds =
      listen_fds @ List.map T.fd t.conns
      @ List.map (fun (_, c) -> T.fd c) session_conns
      @ List.map (fun (_, c) -> T.fd c) push_streams
    in
    (* Writable interest only where output is actually pending — a
       connection with a drained buffer costs select nothing. *)
    let write_interest conns = List.filter_map (fun c -> if T.want_write c then Some (T.fd c) else None) conns in
    let write_fds =
      write_interest t.conns
      @ write_interest (List.map snd session_conns)
      @ write_interest (List.map snd push_streams)
    in
    let readable, _, _ =
      try Unix.select read_fds write_fds [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let is_readable fd = List.memq fd readable in
    (match T.listen_fd t.transport with
    | Some lfd when is_readable lfd ->
      let rec accept_loop accepted =
        match T.accept_nonblocking t.transport with
        | Ok (Some conn) ->
          if accepted >= max_accepted then T.close_conn conn
          else t.conns <- conn :: t.conns;
          accept_loop (accepted + 1)
        | Ok None | Error _ -> ()
      in
      accept_loop (List.length t.conns)
    | _ -> ());
    t.conns <-
      List.filter
        (fun conn ->
          if not (is_readable (T.fd conn)) then true
          else
            match service_conn t conn ~on_record:handle_server_record with
            | `Open -> true
            | `Closed ->
              T.close_conn conn;
              false)
        t.conns;
    List.iter
      (fun (s, conn) ->
        if is_readable (T.fd conn) then begin
          let on_record t _conn record =
            match Transport.Record.classify record with
            | Ok (Transport.Record.Frame frame) -> (
              (* [session_reply] may close the connection; further
                 buffered records on it are duplicates and drop with
                 it. *)
              match Hashtbl.find_opt t.sessions s.s_peer with
              | Some s' when s' == s && s'.sconn <> None -> session_reply t s frame
              | _ -> ())
            | Ok (Transport.Record.Control _) | Error _ -> ()
          in
          match service_conn t conn ~on_record with
          | `Open -> ()
          | `Closed -> (
            match Hashtbl.find_opt t.sessions s.s_peer with
            | Some s' when s' == s && s'.sconn <> None -> session_attempt_failed t s
            | _ -> ())
        end)
      session_conns;
    (* Push streams are write-only; a readable one is the peer closing
       (or resetting) it. *)
    List.iter
      (fun (dst, conn) ->
        if is_readable (T.fd conn) then
          match T.read_into conn with
          | `Eof | `Error _ -> drop_push_conn t dst conn
          | `Data -> ())
      push_streams;
    finalize_turn t
  end

let shutdown t =
  (* Give pending output — typically the ack to the Quit that got us
     here — a brief, bounded chance to drain. *)
  let deadline = Unix.gettimeofday () +. 0.2 in
  let rec drain () =
    let pending = List.filter T.want_write t.conns in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (try ignore (Unix.select [] (List.map T.fd pending) [] 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      List.iter
        (fun conn -> ignore (T.flush_output conn : [ `Drained | `Blocked | `Error of string ]))
        pending;
      drain ()
    end
  in
  drain ();
  List.iter (fun s -> close_session_conn s) (all_sessions t);
  Hashtbl.reset t.sessions;
  List.iter T.close_conn t.conns;
  t.conns <- [];
  Hashtbl.iter (fun _ conn -> T.close_conn conn) t.push_conns;
  Hashtbl.reset t.push_conns;
  (match t.channel with Some c -> Channel.detach c | None -> ());
  T.close t.transport;
  Durable_node.close t.durable

let serve config =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match create config with
  | Error _ as e -> e
  | Ok t ->
    let finally () = shutdown t in
    Fun.protect ~finally (fun () ->
        while not t.quit do
          step t
        done);
    Ok ()
