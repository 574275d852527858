(** Durable node checkpoints.

    Serializes a protocol node's entire durable state — items and IVVs,
    DBVV, log vector, auxiliary copies and auxiliary log — to a single
    checksummed binary blob, and restores it. Restoring yields a node
    whose behaviour is indistinguishable from the original: a crashed
    server that recovers from its last checkpoint simply looks, to the
    epidemic, like a server that has been disconnected since then, and
    ordinary anti-entropy brings it back up to date (this is exactly
    the failure model the paper's §8.2 relies on).

    Writes are atomic: the snapshot is written to a temporary file in
    the same directory and renamed over the target, so a crash during
    checkpointing never destroys the previous checkpoint. *)

val encode : Edb_core.Node.t -> string
(** [encode node] is the binary snapshot blob:
    [encode_state (Node.export_state node)]. *)

val encode_state : Edb_core.Node.State.t -> string
(** [encode_state state] is the blob {!decode} rebuilds [state] from. It
    checks nothing, so a test can seal an inconsistent state behind
    valid checksums. *)

val decode :
  ?policy:Edb_core.Node.resolution_policy ->
  ?conflict_handler:(Edb_core.Conflict.t -> unit) ->
  ?mode:Edb_core.Node.propagation_mode ->
  string ->
  (Edb_core.Node.t, string) result
(** [decode blob] reconstructs the node through
    {!Edb_core.Node.import_state}, or explains why the blob is unusable
    (checksum mismatch, truncation, version skew, structural
    inconsistency). Never raises. Blobs in the retired version 2 (flat)
    and 3 (sharded) layouts are refused by name. *)

val save : Edb_core.Node.t -> path:string -> unit
(** [save node ~path] writes {!encode}'s output atomically. *)

val load :
  ?policy:Edb_core.Node.resolution_policy ->
  ?conflict_handler:(Edb_core.Conflict.t -> unit) ->
  ?mode:Edb_core.Node.propagation_mode ->
  path:string ->
  unit ->
  (Edb_core.Node.t, string) result
(** [load ~path ()] reads and {!decode}s a snapshot file. *)
