type t = {
  items : (string, Item.t) Hashtbl.t;
  n : int;
  mutable sorted : Item.t array;
      (* Items in ascending name order, rebuilt lazily. Items are
         add-only (there is no delete), so a single dirty bit set on
         insertion keeps the cache coherent. *)
  mutable dirty : bool;
}

let create ~n =
  if n <= 0 then invalid_arg "Store.create: dimension must be positive";
  { items = Hashtbl.create 64; n; sorted = [||]; dirty = false }

(* The bulk path for a checkpoint load: the caller's array becomes the
   sorted cache as is, and the table is sized once from its length. *)
let of_sorted ~n items =
  if n <= 0 then invalid_arg "Store.of_sorted: dimension must be positive";
  let table = Hashtbl.create (Array.length items) in
  Array.iteri
    (fun k (item : Item.t) ->
      if k > 0 && String.compare items.(k - 1).Item.name item.name >= 0 then
        invalid_arg "Store.of_sorted: names not strictly ascending";
      Hashtbl.add table item.name item)
    items;
  { items = table; n; sorted = items; dirty = false }

let dimension t = t.n

let find_opt t name = Hashtbl.find_opt t.items name

let find_or_create t name =
  match Hashtbl.find_opt t.items name with
  | Some item -> item
  | None ->
    let item = Item.create ~name ~n:t.n in
    Hashtbl.add t.items name item;
    t.dirty <- true;
    item

let mem t name = Hashtbl.mem t.items name

let size t = Hashtbl.length t.items

let sorted_items t =
  if t.dirty then begin
    let acc = ref [] in
    Hashtbl.iter (fun _ item -> acc := item :: !acc) t.items;
    let arr = Array.of_list !acc in
    (* Names are unique, so a stable sort gives the same order; OCaml's
       merge sort beats its heap sort by about a quarter at 100k. *)
    Array.stable_sort (fun a b -> String.compare a.Item.name b.Item.name) arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

let iter f t = Array.iter f (sorted_items t)

let fold f init t = Array.fold_left f init (sorted_items t)

let names t = Array.to_list (Array.map (fun item -> item.Item.name) (sorted_items t))

let total_value_bytes t = fold (fun acc item -> acc + Item.value_size item) 0 t
