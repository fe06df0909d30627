module View = Algebra.View
module Select_item = Algebra.Select_item
module Aggregate = Algebra.Aggregate
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VM = Map.Make (Value)

type contrib =
  | C_count of int
  | C_sum of { amount : Value.t; n : int }
  | C_value of Value.t

(* One aggregate's internal components within a group. *)
type agg_state =
  | S_count of int
  | S_sum of { sum : Value.t; n : int }
  | S_extremum of Value.t option
  | S_distinct of int VM.t  (** argument value -> base rows carrying it *)

type group = { mutable cnt0 : int; accs : agg_state array }

(* First-touch before-image of one group under an open transaction. *)
type saved_group =
  | Absent
  | Present of { cnt0 : int; accs : agg_state array }

type txn = { saved : saved_group TH.t; dirty0 : unit TH.t }

(* One hash-shard of the view state: groups, the dirty set and the undo
   journal all live per shard so parallel appliers owning disjoint shards
   never share a hash table. Group keys entering a shard's tables are
   copied on retention, because callers may pass reused scratch buffers. *)
type shard = {
  groups : group TH.t;
  dirty : unit TH.t;
  mutable txn : txn option;
}

type t = {
  view : View.t;
  determined : bool;
  items : Select_item.t array;
  mask : int;  (** shard count - 1 *)
  shards : shard array;
}

let create ?(shards = 1) view ~determined =
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "View_boxed.create: shard count is not a power of two";
  {
    view;
    determined;
    items = Array.of_list view.View.select;
    mask = shards - 1;
    shards =
      Array.init shards (fun _ ->
          { groups = TH.create 256; dirty = TH.create 16; txn = None });
  }

let shard_count t = Array.length t.shards
let shard_of_key t key = if t.mask = 0 then 0 else Tuple.hash key land t.mask
let shard_for t key = t.shards.(shard_of_key t key)
let find_group t key = TH.find_opt (shard_for t key).groups key

let copy t =
  let copy_shard sh =
    let groups = TH.create (max 16 (TH.length sh.groups)) in
    TH.iter
      (fun key (g : group) ->
        TH.add groups key { cnt0 = g.cnt0; accs = Array.copy g.accs })
      sh.groups;
    { groups; dirty = TH.copy sh.dirty; txn = None }
  in
  { t with shards = Array.map copy_shard t.shards }

(* --- transactions ------------------------------------------------------- *)

let in_txn t = t.shards.(0).txn <> None

let begin_txn t =
  if in_txn t then
    invalid_arg "View_boxed.begin_txn: transaction already open";
  (* the dirty set is saved whole: it is bounded by the groups pending
     recompute, a handful at any moment, not by the resident state *)
  Array.iter
    (fun sh -> sh.txn <- Some { saved = TH.create 64; dirty0 = TH.copy sh.dirty })
    t.shards

(* [key] may alias a caller's scratch buffer; copied if retained. *)
let note sh key =
  match sh.txn with
  | None -> ()
  | Some { saved; _ } ->
    if not (TH.mem saved key) then
      TH.add saved (Array.copy key)
        (match TH.find_opt sh.groups key with
        | None -> Absent
        | Some g -> Present { cnt0 = g.cnt0; accs = Array.copy g.accs })

let commit t =
  if t.shards.(0).txn = None then
    invalid_arg "View_boxed.commit: no open transaction";
  Array.iter (fun sh -> sh.txn <- None) t.shards

let rollback t =
  if t.shards.(0).txn = None then
    invalid_arg "View_boxed.rollback: no open transaction";
  Array.iter
    (fun sh ->
      match sh.txn with
      | None -> ()
      | Some { saved; dirty0 } ->
        TH.iter
          (fun key before ->
            match before, TH.find_opt sh.groups key with
            | Absent, None -> ()
            | Absent, Some _ -> TH.remove sh.groups key
            | Present p, Some g ->
              g.cnt0 <- p.cnt0;
              Array.blit p.accs 0 g.accs 0 (Array.length p.accs)
            | Present p, None ->
              TH.add sh.groups key { cnt0 = p.cnt0; accs = p.accs })
          saved;
        TH.reset sh.dirty;
        TH.iter (fun key () -> TH.add sh.dirty key ()) dirty0;
        sh.txn <- None)
    t.shards

let view t = t.view

let group_count t =
  Array.fold_left (fun acc sh -> acc + TH.length sh.groups) 0 t.shards

let initial_state (item : Select_item.t) =
  match item with
  | Select_item.Group _ -> S_count 0 (* placeholder, never consulted *)
  | Select_item.Agg agg -> (
    if agg.Aggregate.distinct then S_distinct VM.empty
    else
      match agg.Aggregate.func with
      | Aggregate.Count | Aggregate.Count_star -> S_count 0
      | Aggregate.Sum | Aggregate.Avg -> S_sum { sum = Value.Int 0; n = 0 }
      | Aggregate.Min | Aggregate.Max -> S_extremum None)

let mark_dirty sh key =
  if not (TH.mem sh.dirty key) then TH.add sh.dirty (Array.copy key) ()

let combine_extremum (agg : Aggregate.t) cur v =
  match cur with
  | None -> Some v
  | Some m ->
    let better =
      match agg.Aggregate.func with
      | Aggregate.Min -> Value.compare v m < 0
      | Aggregate.Max -> Value.compare v m > 0
      | _ -> assert false
    in
    Some (if better then v else m)

(* The value of a DISTINCT aggregate: over the distinct values, i.e. the
   multiset's support. *)
let finalize_distinct (agg : Aggregate.t) m =
  let values = List.map fst (VM.bindings m) in
  match values with
  | [] -> invalid_arg "View_boxed.render: empty DISTINCT multiset"
  | v0 :: _ -> (
    let sum () = List.fold_left Value.add (Value.zero_like v0) values in
    let n = Value.Int (List.length values) in
    match agg.Aggregate.func with
    | Aggregate.Count -> n
    | Aggregate.Sum -> sum ()
    | Aggregate.Avg -> Value.div_as_float (sum ()) n
    | Aggregate.Min -> v0
    | Aggregate.Max -> List.nth values (List.length values - 1)
    | Aggregate.Count_star -> assert false)

let apply_contrib t sh key ~sign ~cnt g i (item : Select_item.t) contrib =
  let agg =
    match item with
    | Select_item.Agg a -> a
    | Select_item.Group _ -> assert false (* group items carry no contrib *)
  in
  match g.accs.(i), contrib with
  | S_count n, C_count d -> g.accs.(i) <- S_count (n + (sign * d))
  | S_sum { sum; n }, C_sum { amount; n = dn } ->
    let sum =
      if sign > 0 then Value.add sum amount else Value.sub sum amount
    in
    g.accs.(i) <- S_sum { sum; n = n + (sign * dn) }
  | S_extremum cur, C_value v ->
    if sign > 0 then
      g.accs.(i) <- S_extremum (combine_extremum agg cur v)
    else if not t.determined then begin
      (* deletion of the current extremum invalidates the component *)
      match cur with
      | Some m when Value.equal m v -> mark_dirty sh key
      | Some _ | None -> ()
    end
  | S_distinct m, C_value v ->
    (* the multiset counts base rows per value: exact under deletion *)
    let c = (sign * cnt) + Option.value (VM.find_opt v m) ~default:0 in
    if c < 0 then invalid_arg "View_boxed: DISTINCT multiset underflow";
    g.accs.(i) <- S_distinct (if c = 0 then VM.remove v m else VM.add v c m)
  | (S_count _ | S_sum _ | S_extremum _ | S_distinct _), _ ->
    invalid_arg "View_state: contribution does not match aggregate state"

let feed t ~key ~cnt contribs =
  let sh = shard_for t key in
  note sh key;
  let g =
    match TH.find_opt sh.groups key with
    | Some g -> g
    | None ->
      let g = { cnt0 = 0; accs = Array.map initial_state t.items } in
      TH.add sh.groups (Array.copy key) g;
      g
  in
  g.cnt0 <- g.cnt0 + cnt;
  Array.iteri
    (fun i c ->
      match c with
      | Some contrib ->
        apply_contrib t sh key ~sign:1 ~cnt g i t.items.(i) contrib
      | None -> ())
    contribs

let unfeed t ~key ~cnt contribs =
  let sh = shard_for t key in
  match TH.find_opt sh.groups key with
  | None ->
    invalid_arg
      (Printf.sprintf "View_boxed.unfeed: group %s absent"
         (Tuple.to_string key))
  | Some g ->
    if g.cnt0 < cnt then invalid_arg "View_boxed.unfeed: count underflow";
    note sh key;
    g.cnt0 <- g.cnt0 - cnt;
    if g.cnt0 = 0 then begin
      TH.remove sh.groups key;
      TH.remove sh.dirty key
    end
    else
      Array.iteri
        (fun i c ->
          match c with
          | Some contrib ->
            apply_contrib t sh key ~sign:(-1) ~cnt g i t.items.(i) contrib
          | None -> ())
        contribs

let take_dirty t =
  Array.fold_left
    (fun acc sh ->
      let keys = TH.fold (fun k () acc -> k :: acc) sh.dirty acc in
      TH.reset sh.dirty;
      keys)
    [] t.shards

let is_dirty_pending t =
  Array.exists (fun sh -> TH.length sh.dirty > 0) t.shards

let set_value t ~key ~item v =
  let sh = shard_for t key in
  match TH.find_opt sh.groups key with
  | None -> ()
  | Some g -> (
    note sh key;
    match g.accs.(item) with
    | S_extremum _ -> g.accs.(item) <- S_extremum (Some v)
    | S_count _ | S_sum _ | S_distinct _ ->
      invalid_arg "View_boxed.set_value: item is maintained exactly")

type component_update = Shift_sum of Value.t | Set_current of Value.t

let adjust_group t ~key ~new_key updates =
  let sh = shard_for t key in
  match TH.find_opt sh.groups key with
  | None ->
    invalid_arg
      (Printf.sprintf "View_boxed.adjust_group: group %s absent"
         (Tuple.to_string key))
  | Some g ->
    let moving = not (Tuple.equal key new_key) in
    let sh' = if moving then shard_for t new_key else sh in
    note sh key;
    if moving then note sh' new_key;
    List.iter
      (fun (i, upd) ->
        match g.accs.(i), upd with
        | S_sum { sum; n }, Shift_sum delta ->
          g.accs.(i) <- S_sum { sum = Value.add sum (Value.scale delta n); n }
        | S_extremum _, Set_current v -> g.accs.(i) <- S_extremum (Some v)
        | S_distinct _, Set_current v ->
          (* determined argument: every base row of the group carries [v] *)
          g.accs.(i) <- S_distinct (VM.singleton v g.cnt0)
        | (S_count _ | S_sum _ | S_extremum _ | S_distinct _), _ ->
          invalid_arg "View_boxed.adjust_group: update does not match state")
      updates;
    if moving then begin
      if TH.mem sh'.groups new_key then
        invalid_arg "View_boxed.adjust_group: new key collides";
      TH.remove sh.groups key;
      TH.add sh'.groups (Array.copy new_key) g;
      if TH.mem sh.dirty key then begin
        TH.remove sh.dirty key;
        TH.add sh'.dirty (Array.copy new_key) ()
      end
    end

let fold_groups t f acc =
  Array.fold_left
    (fun acc sh -> TH.fold (fun k g acc -> f k g.cnt0 acc) sh.groups acc)
    acc t.shards

let agg_state_equal a b =
  match a, b with
  | S_count n, S_count m -> n = m
  | S_sum { sum; n }, S_sum { sum = sum'; n = m } ->
    Value.equal sum sum' && n = m
  | S_extremum x, S_extremum y -> Option.equal Value.equal x y
  | S_distinct m, S_distinct m' -> VM.equal Int.equal m m'
  | (S_count _ | S_sum _ | S_extremum _ | S_distinct _), _ -> false

let group_equal (g : group) (g' : group) =
  g.cnt0 = g'.cnt0
  && Array.length g.accs = Array.length g'.accs
  && Array.for_all2 agg_state_equal g.accs g'.accs

let dirty_count t =
  Array.fold_left (fun acc sh -> acc + TH.length sh.dirty) 0 t.shards

(* Structural equality of the resident view state: groups (base counts and
   every aggregate component) and the pending-recompute (dirty) set.
   Deliberately shard-layout-independent; open transactions are ignored. *)
let equal a b =
  group_count a = group_count b
  && Array.for_all
       (fun sh ->
         TH.fold
           (fun key g acc ->
             acc
             &&
             match find_group b key with
             | Some g' -> group_equal g g'
             | None -> false)
           sh.groups true)
       a.shards
  && dirty_count a = dirty_count b
  && Array.for_all
       (fun sh ->
         TH.fold
           (fun key () acc -> acc && TH.mem (shard_for b key).dirty key)
           sh.dirty true)
       a.shards

let render t =
  let result = Relation.create ~size_hint:(group_count t) () in
  Array.iter
    (fun sh ->
      TH.iter
        (fun key g ->
          let gi = ref 0 in
          let row =
            Array.mapi
              (fun i item ->
                match item with
                | Select_item.Group _ ->
                  let v = key.(!gi) in
                  incr gi;
                  v
                | Select_item.Agg agg -> (
                  match g.accs.(i) with
                  | S_count n -> Value.Int n
                  | S_sum { sum; n } -> (
                    match agg.Aggregate.func with
                    | Aggregate.Sum -> sum
                    | Aggregate.Avg -> Value.div_as_float sum (Value.Int n)
                    | _ -> assert false)
                  | S_extremum (Some v) -> v
                  | S_distinct m -> finalize_distinct agg m
                  | S_extremum None ->
                    invalid_arg
                      "View_boxed.render: non-CSMAS component pending recompute"))
              t.items
          in
          Relation.insert result row)
        sh.groups)
    t.shards;
  (* restrictions on groups (HAVING) are applied at read time: the full group
     state is what gets maintained *)
  View.filter_having t.view result
