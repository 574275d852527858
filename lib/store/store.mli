(** The per-node collection of data item replicas.

    A database replica is "a collection of data items" (paper §2) kept
    whole on each server. The store provides O(1) access by item name;
    items are created on first reference with a zero IVV, which models
    the paper's fixed universe of data items where a never-updated item
    is indistinguishable from an absent one. *)

type t

val create : n:int -> t
(** [create ~n] is an empty store whose items carry IVVs of dimension
    [n] (the replication factor). *)

val of_sorted : n:int -> Item.t array -> t
(** [of_sorted ~n items] is the store holding exactly [items], which
    must be in strictly ascending name order (so no name repeats); the
    store keeps the array itself as its ascending-order view, so the
    caller must not touch it afterwards. The items' IVVs must have
    dimension [n]; the caller checks. Raises [Invalid_argument] on an
    out-of-order or repeated name. *)

val dimension : t -> int
(** [dimension t] is the IVV dimension [n] passed at creation. *)

val find_opt : t -> string -> Item.t option
(** [find_opt t name] is the item replica named [name], if present. *)

val find_or_create : t -> string -> Item.t
(** [find_or_create t name] returns the existing item or creates a
    fresh zero-IVV one. *)

val mem : t -> string -> bool

val size : t -> int
(** [size t] is the number of materialized items. *)

val iter : (Item.t -> unit) -> t -> unit
(** [iter f t] visits every item in ascending name order, so anything
    derived from a store traversal (snapshots, shipped tails, copied
    lists) is deterministic by construction. *)

val fold : ('acc -> Item.t -> 'acc) -> 'acc -> t -> 'acc
(** Folds in ascending name order; see {!iter}. *)

val sorted_items : t -> Item.t array
(** Every item in ascending name order: the store's own cached array,
    not a copy, so read-only. Rebuilt after an insertion. *)

val names : t -> string list
(** [names t] is the materialized item names, in ascending order. *)

val total_value_bytes : t -> int
(** [total_value_bytes t] is the sum of value sizes, for the cost
    model. *)
