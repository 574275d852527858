(** Dynamic membership: join, graceful leave, and dead-node retirement
    with version-vector garbage collection.

    The paper's protocol assumes a fixed replica set; every DBVV, IVV
    and log vector has one component per site, forever. This module
    lifts that closed-world assumption with a controller-ordered log of
    membership events. Every member applies a prefix of the same log;
    the prefix length is its {e membership epoch}, and its vector
    dimension, id-to-site mapping (the {e roster}) and retirement-fence
    knowledge are all pure functions of the applied prefix. Members at
    equal epochs agree on dimensions and slots, so the unmodified
    fixed-dimension protocol runs between them; a session between
    members at different epochs first replays the missing events on the
    laggard (metadata only), then runs the paper's session unchanged.

    Three membership operations:

    - {b join} — a fresh site bootstraps from a snapshot transfer of
      a live donor, then catches up by ordinary anti-entropy. It serves
      no reads until its summary DBVV dominates the donor's transfer
      watermark, at which point it activates ([joins_completed]).
    - {b graceful leave} — a drain: the member refuses further user
      updates, keeps running anti-entropy, and departs once some live
      peer's DBVV dominates its own and its auxiliary set is empty.
    - {b retirement} — a dead origin's vector component is garbage
      collected once a {e retirement fence} proves every live replica
      holds the identical value in that component. The fence target
      (per-shard maximum of the victim's component over live members)
      and acknowledgements propagate epidemically on sessions; crashes
      and partitions stall the fence rather than corrupt vectors. Once
      complete, every member drops the component uniformly
      ([Node.retire_component]), which preserves all comparisons.
      See DESIGN.md §11 for the state machine and the safety argument. *)

type status =
  | Joining  (** Bootstrapped, catching up; serves no reads. *)
  | Active  (** Full member. *)
  | Draining  (** Graceful leave under way: refuses user updates. *)
  | Departed  (** Left; excluded from sessions and fence ack sets. *)
  | Retiring  (** Retirement fence standing; never recoverable. *)
  | Retired  (** Component garbage-collected cluster-wide. *)

val status_to_string : status -> string

type event =
  | Join of { name : int; donor : int }
  | Activate of { name : int }
  | Drain of { name : int }
  | Depart of { name : int }
  | Retire_start of { name : int }
  | Retire_done of { name : int }

val event_to_string : event -> string

type t

val create :
  ?policy:Edb_core.Node.resolution_policy ->
  ?mode:Edb_core.Node.propagation_mode ->
  ?shards:int ->
  n:int ->
  unit ->
  t
(** [create ~n ()] is a group of [n] active members with stable names
    [0 .. n-1] (also their initial slots). Names are never reused;
    joiners get fresh names. *)

(** {1 Introspection} *)

val epoch : t -> int
(** Number of controller events appended so far. *)

val shards : t -> int

val events : t -> event list
(** The controller log, oldest first. *)

val roster : t -> int array
(** Stable names in slot order, after applying the full log. A member
    at full epoch has exactly one vector component per roster entry. *)

val status : t -> name:int -> status

val member_epoch : t -> name:int -> int

val node : t -> name:int -> Edb_core.Node.t

val alive : t -> name:int -> bool

val watermark : t -> name:int -> int array option
(** The join watermark a still-joining member must dominate, reshaped
    alongside every membership change; [None] once activated. *)

val live_count : t -> int
(** Participants: alive members that are neither departed nor being
    retired. *)

val mean_vector_components : t -> float
(** Mean vector dimension over participants — the per-tick vector
    hygiene statistic the churn scenario samples. *)

val counters_total : t -> Edb_metrics.Counters.t

val conflict_count : t -> int

val pending_fences : t -> int list
(** Victims whose retirement fence has not completed, ascending. *)

(** {1 Fault injection} *)

val crash : t -> name:int -> unit

val recover : t -> name:int -> (unit, string) result
(** Refused for retirement victims — once [Retire_start] is issued the
    victim is dead forever (the fence's soundness depends on it).
    Recovery re-judges every standing fence from the recovered DBVVs
    instead of trusting pre-crash acknowledgements. *)

(** {1 User operations} *)

val update :
  t -> name:int -> item:string -> Edb_store.Operation.t -> (unit, string) result
(** Refused unless the member is active and alive (draining members no
    longer accept user updates; joining members not yet). *)

val read : t -> name:int -> item:string -> (string option, string) result
(** Refused while joining (the catch-up window serves no reads). *)

(** {1 Membership operations} *)

val join : t -> donor:int -> (int, string) result
(** [join t ~donor] bootstraps a fresh member from a snapshot
    transfer of [donor] (which must be live and active) and returns its
    stable name. The newcomer enters the roster immediately — every
    member extends its vectors on reconcile — but stays [Joining] until
    {!observe} sees its summary DBVV dominate the transfer watermark. *)

val leave : t -> name:int -> (unit, string) result
(** Begin a graceful drain. The member refuses user updates from now
    on; {!observe} appends its departure once a live peer dominates it
    and its auxiliary set is empty. *)

val retire : t -> name:int -> (unit, string) result
(** Start the retirement fence for a departed or permanently crashed
    member. Completion — and the cluster-wide component drop — happens
    via {!observe} once every required member acknowledged the final
    fence target. *)

(** {1 Sessions and the controller} *)

val sync : t -> a:int -> b:int -> (unit, string) result
(** One bidirectional anti-entropy session: membership reconcile first
    (the laggard replays missing events, so dimensions agree), then the
    paper's session in both directions, then fence gossip (targets
    merge max-wise, stale acks die, both ends re-judge). Refused if
    either end is not a participant. *)

val observe : t -> event list
(** One controller pass: catch every live member up on the log, then
    append whatever the observed states justify — activations,
    departures, retirement completions. Returns the events appended.
    Deterministic (ascending name order). *)

(** {1 Convergence and checking} *)

val converged : t -> bool
(** All participants at full epoch with equal DBVVs, no auxiliary
    copies, and identical stores. *)

val check : t -> (unit, string) result
(** Structural invariants over every participant: node invariants
    ({!Edb_core.Node.check_invariants}), and — at full epoch — vector
    dimension equal to the roster size (no retired component survives,
    no join was missed), roster agreement with the controller, and node
    id equal to the member's roster slot. *)
