module Node = Edb_core.Node
module Peer_cache = Edb_core.Peer_cache
module Snapshot = Edb_persist.Snapshot
module Vv = Edb_vv.Version_vector
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters

(* Dynamic membership over the fixed-dimension epidemic protocol.

   The closed-world assumption the paper bakes into every vector is
   lifted by one device: a controller-ordered log of membership events.
   Every member applies a prefix of the same log; the prefix length is
   the member's membership epoch, and the vector dimension, the
   id-to-site mapping ("roster") and the retirement fences a member
   carries are all pure functions of its applied prefix. Two members
   whose epochs agree therefore agree on dimensions and slots, so the
   unmodified fixed-dimension protocol runs between them; a session
   between members at different epochs first replays the missing events
   on the laggard (metadata only — the data session stays the paper's).

   Joins and retirements reshape vectors:

   - [Join]: every member appends a zero component for the new site
     ([Node.extend_dimension]); the joiner itself is bootstrapped from a
     snapshot transfer of its donor and serves no reads until its
     summary DBVV dominates the donor's transfer watermark.
   - [Retire_done]: every member drops the victim's component
     ([Node.retire_component]). This is only appended once the victim's
     retirement fence completes: the fence target is the per-shard
     pointwise maximum of the victim's DBVV component over live members
     (propagated epidemically, merged max-wise), and completion requires
     every required member to have acknowledged the final target —
     proof that all live replicas hold identical victim components, so
     the uniform drop preserves every vector comparison (DESIGN.md §11).
     Crashes and partitions stall the fence: a required member that
     cannot ack simply keeps completion unreachable. *)

type status = Joining | Active | Draining | Departed | Retiring | Retired

let status_to_string = function
  | Joining -> "joining"
  | Active -> "active"
  | Draining -> "draining"
  | Departed -> "departed"
  | Retiring -> "retiring"
  | Retired -> "retired"

type event =
  | Join of { name : int; donor : int }
  | Activate of { name : int }
  | Drain of { name : int }
  | Depart of { name : int }
  | Retire_start of { name : int }
  | Retire_done of { name : int }

let event_to_string = function
  | Join { name; donor } -> Printf.sprintf "join %d (donor %d)" name donor
  | Activate { name } -> Printf.sprintf "activate %d" name
  | Drain { name } -> Printf.sprintf "drain %d" name
  | Depart { name } -> Printf.sprintf "depart %d" name
  | Retire_start { name } -> Printf.sprintf "retire-start %d" name
  | Retire_done { name } -> Printf.sprintf "retire-done %d" name

(* Per-victim fence state as one member knows it. [target.(s)] is the
   highest victim component any live member's shard-[s] DBVV is known
   to hold; [acks] maps member name to the target it acknowledged
   (valid only while equal to the current target — a target that grows
   invalidates every earlier ack). *)
type fence = { victim : int; mutable target : int array; acks : (int, int array) Hashtbl.t }

type member = {
  name : int;
  mutable node : Node.t;
  mutable epoch : int;  (* number of controller events applied *)
  mutable alive : bool;
  (* The member's local roster: stable names in slot order, derived
     from its applied prefix. [node]'s id is this member's index. *)
  mutable roster : int array;
  fences : (int, fence) Hashtbl.t;
  (* [Some w] while joining: the donor's summary DBVV at transfer.
     Cleared by the member's own [Activate]. *)
  mutable watermark : int array option;
}

type t = {
  mutable events : event list;  (* oldest first *)
  mutable n_events : int;
  members : (int, member) Hashtbl.t;  (* by stable name, incl. departed/retired *)
  mutable next_name : int;
  mutable roster : int array;  (* controller full-prefix roster *)
  statuses : (int, status) Hashtbl.t;  (* controller full-prefix view *)
  shards : int;
  policy : Node.resolution_policy option;
  mode : Node.propagation_mode option;
}

let slot_of roster name =
  let rec go i =
    if i >= Array.length roster then None
    else if roster.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let slot_exn roster name =
  match slot_of roster name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Group: name %d not in roster" name)

let remove_slot roster s =
  Array.init
    (Array.length roster - 1)
    (fun i -> if i < s then roster.(i) else roster.(i + 1))

(* ------------------------------------------------------------------ *)
(* Fence judgement                                                     *)
(* ------------------------------------------------------------------ *)

(* Fold the member's own per-shard victim components into the fence
   target, then (re-)acknowledge iff the member's DBVV meets the merged
   target on every shard. Called whenever the member's knowledge could
   have changed: fence creation, after every data session, and on
   recovery (the durable path re-judges from recovered DBVVs instead of
   trusting any persisted ack — same discipline as AcceptPropagation's
   replay). A target that grows invalidates every recorded ack. *)
let rejudge_fence (m : member) (f : fence) =
  match slot_of m.roster f.victim with
  | None -> ()
  | Some slot ->
    let shards = Node.shards m.node in
    let grew = ref false in
    for s = 0 to shards - 1 do
      let mine = Vv.get (Node.shard_dbvv_view m.node s) slot in
      if mine > f.target.(s) then begin
        f.target.(s) <- mine;
        grew := true
      end
    done;
    if !grew then
      Hashtbl.filter_map_inplace
        (fun _ acked -> if acked = f.target then Some acked else None)
        f.acks;
    let met = ref true in
    for s = 0 to shards - 1 do
      if Vv.get (Node.shard_dbvv_view m.node s) slot < f.target.(s) then met := false
    done;
    if !met then Hashtbl.replace f.acks m.name (Array.copy f.target)
    else Hashtbl.remove f.acks m.name

let rejudge_all_fences (m : member) = Hashtbl.iter (fun _ f -> rejudge_fence m f) m.fences

(* ------------------------------------------------------------------ *)
(* Event application                                                   *)
(* ------------------------------------------------------------------ *)

(* Replay one controller event on one member. Pure function of the
   event and the member's current derived state, so any two members
   that applied the same prefix agree on roster, slots and dimension. *)
let apply_event (m : member) = function
  | Join { name; donor = _ } ->
    if name <> m.name then m.node <- Node.extend_dimension m.node;
    (* A pending join watermark undergoes the same surgery as every
       other vector, or later dominance tests would be ill-dimensioned. *)
    (match m.watermark with
    | Some w -> m.watermark <- Some (Array.append w [| 0 |])
    | None -> ());
    m.roster <- Array.append m.roster [| name |]
  | Activate { name } -> if name = m.name then m.watermark <- None
  | Drain _ -> ()
  | Depart { name } ->
    (* Forget everything cached about the departed peer: its slot will
       never answer a session again, and proven lower bounds must not
       outlive the peer they were proven against. *)
    (match slot_of m.roster name with
    | Some slot when name <> m.name ->
      Peer_cache.forget_peer (Node.peer_cache m.node) ~peer:slot
    | _ -> ())
  | Retire_start { name } ->
    if name <> m.name && not (Hashtbl.mem m.fences name) then begin
      let shards = Node.shards m.node in
      let f = { victim = name; target = Array.make shards 0; acks = Hashtbl.create 4 } in
      Hashtbl.add m.fences name f;
      rejudge_fence m f
    end
  | Retire_done { name } ->
    Hashtbl.remove m.fences name;
    let slot = slot_exn m.roster name in
    if name <> m.name then begin
      m.node <- Node.retire_component m.node ~slot;
      (Node.counters m.node).Counters.retirements_completed <-
        (Node.counters m.node).Counters.retirements_completed + 1;
      (match m.watermark with
      | Some w ->
        m.watermark <-
          Some
            (Array.init
               (Array.length w - 1)
               (fun i -> if i < slot then w.(i) else w.(i + 1)))
      | None -> ())
    end;
    m.roster <- remove_slot m.roster slot

let catch_up t (m : member) =
  if m.epoch < t.n_events then begin
    let rec drop k = function
      | rest when k = 0 -> rest
      | _ :: rest -> drop (k - 1) rest
      | [] -> []
    in
    let missing = drop m.epoch t.events in
    List.iter
      (fun e ->
        apply_event m e;
        m.epoch <- m.epoch + 1)
      missing
  end

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

let append t e =
  t.events <- t.events @ [ e ];
  t.n_events <- t.n_events + 1;
  (match e with
  | Join { name; _ } ->
    t.roster <- Array.append t.roster [| name |];
    Hashtbl.replace t.statuses name Joining
  | Activate { name } -> Hashtbl.replace t.statuses name Active
  | Drain { name } -> Hashtbl.replace t.statuses name Draining
  | Depart { name } -> Hashtbl.replace t.statuses name Departed
  | Retire_start { name } -> Hashtbl.replace t.statuses name Retiring
  | Retire_done { name } ->
    t.roster <- remove_slot t.roster (slot_exn t.roster name);
    Hashtbl.replace t.statuses name Retired);
  e

let status t ~name =
  match Hashtbl.find_opt t.statuses name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Group.status: unknown member %d" name)

let member t name =
  match Hashtbl.find_opt t.members name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Group: unknown member %d" name)

(* A participant takes part in sessions, fences and convergence: it has
   not departed or been retired, and is not crashed. Draining and
   joining members still participate — they must, to finish. *)
let is_participant t (m : member) =
  m.alive
  && match status t ~name:m.name with
     | Joining | Active | Draining -> true
     | Departed | Retiring | Retired -> false

let participant_names t =
  Array.to_list t.roster
  |> List.filter (fun name -> is_participant t (member t name))

let sorted_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.members [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?policy ?mode ?(shards = 1) ~n () =
  if n < 2 then invalid_arg "Group.create: need at least two members";
  let t =
    {
      events = [];
      n_events = 0;
      members = Hashtbl.create 16;
      next_name = n;
      roster = Array.init n Fun.id;
      statuses = Hashtbl.create 16;
      shards;
      policy;
      mode;
    }
  in
  for name = 0 to n - 1 do
    let node = Node.create ?policy ?mode ~shards ~id:name ~n () in
    Hashtbl.replace t.statuses name Active;
    Hashtbl.replace t.members name
      {
        name;
        node;
        epoch = 0;
        alive = true;
        roster = Array.init n Fun.id;
        fences = Hashtbl.create 4;
        watermark = None;
      }
  done;
  t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let epoch t = t.n_events

let shards t = t.shards

let events t = t.events

let roster t = Array.copy t.roster

let member_epoch t ~name = (member t name).epoch

let node t ~name = (member t name).node

let alive t ~name = (member t name).alive

let watermark t ~name = Option.map Array.copy (member t name).watermark

let live_count t = List.length (participant_names t)

let mean_vector_components t =
  match participant_names t with
  | [] -> 0.0
  | names ->
    let total =
      List.fold_left
        (fun acc name -> acc + Node.dimension (member t name).node)
        0 names
    in
    float_of_int total /. float_of_int (List.length names)

let counters_total t =
  let acc = Counters.create () in
  Hashtbl.iter (fun _ m -> Counters.add_into acc (Node.counters m.node)) t.members;
  acc

let conflict_count t =
  Hashtbl.fold (fun _ m acc -> acc + List.length (Node.conflicts m.node)) t.members 0

(* ------------------------------------------------------------------ *)
(* Crash / recover                                                     *)
(* ------------------------------------------------------------------ *)

let crash t ~name =
  let m = member t name in
  m.alive <- false

let recover t ~name =
  let m = member t name in
  match status t ~name with
  | Retiring | Retired ->
    Error (Printf.sprintf "member %d is being retired and can never be recovered" name)
  | Departed -> Error (Printf.sprintf "member %d departed" name)
  | Joining | Active | Draining ->
    m.alive <- true;
    (* Recovery re-judges every fence from the recovered DBVVs rather
       than trusting anything recorded before the crash — the same
       discipline the durable journal applies to propagation replay. *)
    rejudge_all_fences m;
    Ok ()

(* ------------------------------------------------------------------ *)
(* User operations                                                     *)
(* ------------------------------------------------------------------ *)

let update t ~name ~item op =
  let m = member t name in
  match status t ~name with
  | Active when m.alive ->
    Node.update m.node item op;
    Ok ()
  | Active -> Error (Printf.sprintf "member %d is crashed" name)
  | s ->
    Error
      (Printf.sprintf "member %d does not accept user updates (%s)" name
         (status_to_string s))

let read t ~name ~item =
  let m = member t name in
  match status t ~name with
  | Joining ->
    Error (Printf.sprintf "member %d is still joining and serves no reads" name)
  | (Active | Draining) when m.alive -> Ok (Node.read m.node item)
  | (Active | Draining) -> Error (Printf.sprintf "member %d is crashed" name)
  | s -> Error (Printf.sprintf "member %d serves no reads (%s)" name (status_to_string s))

(* ------------------------------------------------------------------ *)
(* Join / leave / retire requests                                      *)
(* ------------------------------------------------------------------ *)

let join t ~donor =
  match Hashtbl.find_opt t.members donor with
  | None -> Error (Printf.sprintf "unknown donor %d" donor)
  | Some d ->
    if not (d.alive && status t ~name:donor = Active) then
      Error (Printf.sprintf "donor %d is not a live active member" donor)
    else begin
      let name = t.next_name in
      t.next_name <- name + 1;
      (* The donor first replays any controller events it is missing —
         metadata only — then extends itself for the newcomer, so the
         snapshot it donates is already in the post-join geometry. *)
      catch_up t d;
      let (_ : event) = append t (Join { name; donor }) in
      catch_up t d;
      (* Snapshot transfer: the wire-format blob round-trips through
         the real codec, then the joiner takes the vacated last slot. *)
      let blob = Snapshot.encode d.node in
      match Snapshot.decode ?policy:t.policy ?mode:t.mode blob with
      | Error msg -> Error (Printf.sprintf "snapshot transfer failed: %s" msg)
      | Ok decoded ->
        let state = Node.export_state decoded in
        let slot = Array.length d.roster - 1 in
        let node = Node.import_state ?policy:t.policy ?mode:t.mode { state with Node.State.id = slot } in
        let joiner =
          {
            name;
            node;
            epoch = t.n_events;
            alive = true;
            roster = Array.copy d.roster;
            fences = Hashtbl.create 4;
            watermark = Some (Vv.to_array (Node.dbvv_view d.node));
          }
        in
        (* The joiner inherits the donor's fence knowledge: it is a
           required acker for any fence already standing, and its
           transferred DBVV dominates everything the donor had acked. *)
        Hashtbl.iter
          (fun victim (f : fence) ->
            let g =
              { victim; target = Array.copy f.target; acks = Hashtbl.copy f.acks }
            in
            Hashtbl.replace joiner.fences victim g;
            rejudge_fence joiner g)
          d.fences;
        Hashtbl.replace t.members name joiner;
        Ok name
    end

let leave t ~name =
  match Hashtbl.find_opt t.members name with
  | None -> Error (Printf.sprintf "unknown member %d" name)
  | Some m ->
    if status t ~name <> Active then
      Error
        (Printf.sprintf "member %d cannot drain from state %s" name
           (status_to_string (status t ~name)))
    else if not m.alive then Error (Printf.sprintf "member %d is crashed" name)
    else begin
      let (_ : event) = append t (Drain { name }) in
      Ok ()
    end

let retire t ~name =
  match Hashtbl.find_opt t.members name with
  | None -> Error (Printf.sprintf "unknown member %d" name)
  | Some m -> (
    match status t ~name with
    | Departed ->
      let (_ : event) = append t (Retire_start { name }) in
      Ok ()
    | Joining | Active | Draining when not m.alive ->
      (* A dead member that will never come back: retirement is the
         only way to reclaim its vector component. From this point on
         recovery is refused. *)
      let (_ : event) = append t (Retire_start { name }) in
      Ok ()
    | s ->
      Error
        (Printf.sprintf
           "member %d is %s — only departed or permanently crashed members can \
            be retired"
           name (status_to_string s)))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* Record what a completed session proved about the other end, exactly
   as [Cluster.pull] does for the fixed-membership cluster. Entries are
   keyed by slot; leave and retirement drop them again (apply_event /
   the cold post-reshape cache). *)
let note_session_knowledge ~owner ~peer_slot peer_node =
  let cache = Node.peer_cache owner in
  Peer_cache.note_proven cache ~peer:peer_slot (Node.dbvv_view peer_node);
  let shards = Node.shards peer_node in
  if shards > 1 then
    for s = 0 to shards - 1 do
      Peer_cache.note_proven_shard cache ~peer:peer_slot ~shard:s
        (Node.shard_dbvv_view peer_node s)
    done

let merge_fences (a : member) (b : member) =
  Hashtbl.iter
    (fun victim (fa : fence) ->
      match Hashtbl.find_opt b.fences victim with
      | None -> ()
      | Some fb ->
        let shards = Array.length fa.target in
        let merged =
          Array.init shards (fun s -> max fa.target.(s) fb.target.(s))
        in
        let union = Hashtbl.create 8 in
        let collect (f : fence) =
          Hashtbl.iter
            (fun who acked -> if acked = merged then Hashtbl.replace union who acked)
            f.acks
        in
        collect fa;
        collect fb;
        fa.target <- Array.copy merged;
        fb.target <- Array.copy merged;
        Hashtbl.reset fa.acks;
        Hashtbl.reset fb.acks;
        Hashtbl.iter
          (fun who acked ->
            Hashtbl.replace fa.acks who (Array.copy acked);
            Hashtbl.replace fb.acks who (Array.copy acked))
          union)
    a.fences

let sync t ~a ~b =
  if a = b then Error "a member cannot sync with itself"
  else
    let ma = member t a and mb = member t b in
    if not (is_participant t ma) then
      Error (Printf.sprintf "member %d cannot take part in a session" a)
    else if not (is_participant t mb) then
      Error (Printf.sprintf "member %d cannot take part in a session" b)
    else begin
      (* Membership reconcile first: both ends replay any controller
         events they are missing, so dimensions and slots agree and the
         unmodified fixed-dimension session below is well-formed. *)
      catch_up t ma;
      catch_up t mb;
      Node.sync_pair ma.node mb.node;
      note_session_knowledge ~owner:ma.node ~peer_slot:(Node.id mb.node) mb.node;
      note_session_knowledge ~owner:mb.node ~peer_slot:(Node.id ma.node) ma.node;
      (* Fence gossip rides on the session: targets merge max-wise,
         acks survive only against the merged target, and both ends
         re-judge from their post-session DBVVs. *)
      merge_fences ma mb;
      rejudge_all_fences ma;
      rejudge_all_fences mb;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Controller observation                                              *)
(* ------------------------------------------------------------------ *)

(* Names whose acks a fence needs: everyone in the controller roster
   except the victim itself, departed members, and the victims of other
   standing retirements (dead by precondition — they will never ack,
   and their own components are reclaimed by their own fences). *)
let required_ackers t ~victim =
  Array.to_list t.roster
  |> List.filter (fun name ->
         name <> victim
         &&
         match status t ~name with
         | Departed | Retiring | Retired -> false
         | Joining | Active | Draining -> true)

let fence_complete t (f : fence) =
  List.for_all
    (fun name ->
      match Hashtbl.find_opt f.acks name with
      | Some acked -> acked = f.target
      | None -> false)
    (required_ackers t ~victim:f.victim)

(* One controller pass: replay missing events on every live member,
   then append whatever events the observed states now justify —
   activations (joiner caught up to its watermark), departures (drained
   member fully subsumed by a live peer), and retirement completions
   (some member's local fence view shows every required ack against the
   final target). Deterministic: members are scanned in ascending name
   order and each condition is a pure function of observed state. *)
let observe t =
  let appended = ref [] in
  let emit e = appended := append t e :: !appended in
  List.iter
    (fun name ->
      let m = member t name in
      if is_participant t m then catch_up t m)
    (sorted_names t);
  (* Activations. *)
  List.iter
    (fun name ->
      let m = member t name in
      if is_participant t m && status t ~name = Joining then
        match m.watermark with
        | None -> ()
        | Some w ->
          if Vv.dominates_or_equal (Node.dbvv_view m.node) (Vv.of_array w) then begin
            emit (Activate { name });
            catch_up t m;
            (Node.counters m.node).Counters.joins_completed <-
              (Node.counters m.node).Counters.joins_completed + 1
          end)
    (sorted_names t);
  (* Departures. *)
  List.iter
    (fun name ->
      let m = member t name in
      if is_participant t m && status t ~name = Draining && m.epoch = t.n_events
      then begin
        let dominated_by_peer =
          List.exists
            (fun peer ->
              peer <> name
              &&
              let p = member t peer in
              p.epoch = m.epoch
              && Vv.dominates_or_equal (Node.dbvv_view p.node)
                   (Node.dbvv_view m.node))
            (participant_names t)
        in
        if dominated_by_peer && Node.aux_count m.node = 0 then emit (Depart { name })
      end)
    (sorted_names t);
  (* Retirement completions, judged from each live member's local fence
     view (sound: an ack only exists against the final target if the
     acker's DBVV met it — see DESIGN.md §11). *)
  List.iter
    (fun name ->
      let m = member t name in
      if is_participant t m then
        Hashtbl.iter
          (fun victim (f : fence) ->
            if status t ~name:victim = Retiring && fence_complete t f then
              emit (Retire_done { name = victim }))
          m.fences)
    (sorted_names t);
  List.rev !appended

(* ------------------------------------------------------------------ *)
(* Convergence and checking                                            *)
(* ------------------------------------------------------------------ *)

let pending_fences t =
  Hashtbl.fold
    (fun name _ acc -> if status t ~name = Retiring then name :: acc else acc)
    t.statuses []
  |> List.sort compare

let item_matches_missing (it : Edb_store.Item.t) =
  String.equal it.value "" && Vv.sum it.ivv = 0

let converged t =
  match participant_names t with
  | [] -> true
  | ref_name :: rest ->
    let reference = (member t ref_name).node in
    List.for_all (fun n -> (member t n).epoch = t.n_events) (ref_name :: rest)
    && List.for_all (fun n -> Node.aux_count (member t n).node = 0) (ref_name :: rest)
    && List.for_all
         (fun n ->
           Vv.equal (Node.dbvv_view (member t n).node) (Node.dbvv_view reference))
         rest
    && begin
      let names = Hashtbl.create 64 in
      List.iter
        (fun n ->
          Node.iter_items
            (fun item -> Hashtbl.replace names item.Edb_store.Item.name ())
            (member t n).node)
        (ref_name :: rest);
      Hashtbl.fold
        (fun item_name () acc ->
          acc
          &&
          let ref_item = Node.find_item reference item_name in
          List.for_all
            (fun n ->
              let it = Node.find_item (member t n).node item_name in
              match (ref_item, it) with
              | None, None -> true
              | Some x, Some y ->
                String.equal x.Edb_store.Item.value y.Edb_store.Item.value
                && Vv.equal x.ivv y.ivv
              | Some x, None -> item_matches_missing x
              | None, Some y -> item_matches_missing y)
            rest)
        names true
    end

let check t =
  let ( let* ) = Result.bind in
  let check_member name =
    let m = member t name in
    let* () =
      if m.epoch <> t.n_events then Ok ()  (* lagging members checked at their own epoch *)
      else if Node.dimension m.node <> Array.length t.roster then
        Error
          (Printf.sprintf
             "member %d: dimension %d but the roster has %d sites — a retired \
              component survived or a join was missed"
             name (Node.dimension m.node) (Array.length t.roster))
      else if m.roster <> t.roster then
        Error (Printf.sprintf "member %d: roster disagrees with controller" name)
      else Ok ()
    in
    let* () =
      match slot_of m.roster m.name with
      | Some slot when Node.id m.node = slot -> Ok ()
      | Some slot ->
        Error
          (Printf.sprintf "member %d: node id %d but roster slot %d" name
             (Node.id m.node) slot)
      | None -> Error (Printf.sprintf "member %d: not in its own roster" name)
    in
    let* () =
      if Node.dimension m.node <> Array.length m.roster then
        Error
          (Printf.sprintf "member %d: dimension %d but local roster has %d sites"
             name (Node.dimension m.node) (Array.length m.roster))
      else Ok ()
    in
    Node.check_invariants m.node
    |> Result.map_error (fun msg -> Printf.sprintf "member %d: %s" name msg)
  in
  let rec go = function
    | [] -> Ok ()
    | name :: rest ->
      let* () = check_member name in
      go rest
  in
  go (participant_names t)
