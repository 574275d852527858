(** One log component [L_i[j]]: updates originated at node [j], as known
    to node [i] (paper §4.2, Figure 1).

    Records are kept in origin order in a doubly-linked list. The key
    invariant — {e at most one record per data item} — is maintained by
    {!add}: adding [(x, m)] unlinks the previous record for [x] in O(1)
    through the per-item pointer map (the paper's [P(x)] array, realized
    as a hash map from item name to list node) and appends the new
    record at the tail. Consequently the component never holds more than
    one record per item, bounding the whole log vector at [n · N]
    records (§4.2).

    {!tail_after} extracts the records the recipient of a propagation is
    missing, walking backwards from the tail, in time linear in the
    number of records selected — not in the log length. This is what
    makes [SendPropagation] O(m) (§6). *)

type t

val create : unit -> t

val add : t -> item:string -> seq:int -> unit
(** [add t ~item ~seq] is the paper's [AddLogRecord]: append [(item,
    seq)] and unlink any older record for [item]. O(1). Sequence numbers
    must be added in strictly increasing order; violating this is a
    protocol bug and raises [Invalid_argument]. *)

val of_array : Log_record.t array -> t
(** [of_array records] is the component holding [records], oldest first,
    with its pointer map sized once from their count — the bulk path of
    a checkpoint load. It checks what a run of {!add} would keep true:
    sequence numbers strictly increase, and no item has two records
    (where {!add} would unlink the older one, a checkpoint holding both
    is inconsistent). Raises [Invalid_argument] otherwise. *)

val tail_after : t -> seq:int -> Log_record.t list
(** [tail_after t ~seq] is the records with sequence number strictly
    greater than [seq], oldest first. Time linear in the result
    length. *)

val latest_seq : t -> int
(** [latest_seq t] is the sequence number of the newest record, or [0]
    when empty. *)

val find_record : t -> string -> Log_record.t option
(** [find_record t item] is the (unique) retained record for [item], if
    any. O(1). *)

val length : t -> int
(** [length t] is the number of retained records — hence also the number
    of distinct items with a retained record. *)

val to_list : t -> Log_record.t list
(** [to_list t] is all retained records, oldest first. *)

val check_invariants : t -> (unit, string) result
(** [check_invariants t] verifies: strictly increasing sequence order;
    at most one record per item; pointer map consistent with the list.
    For tests. *)
