module Database = Relational.Database
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Delta = Relational.Delta
module View = Algebra.View
module Derive = Mindetail.Derive

type t =
  | Incremental of { name : string; engine : Engine.t }
  | Recompute of {
      replica : Database.t;
      view : View.t;
      (* undo journal: deltas applied since begin_txn, newest first *)
      mutable txn : Delta.t list option;
    }
  | Split of Partitioned.t

let name = function
  | Incremental { name; _ } -> name
  | Recompute _ -> "recompute"
  | Split _ -> "partitioned"

let minimal db view =
  Incremental { name = "minimal"; engine = Engine.init db (Derive.derive db view) }

let psj db view =
  Incremental { name = "psj"; engine = Engine.init db (Mindetail.Psj.derive db view) }

let with_options ~name options db view =
  Incremental { name; engine = Engine.init db (Derive.derive_with options db view) }

let append_only db view =
  with_options ~name:"append-only" Derive.append_only_options db view

let partitioned db view ~is_old = Split (Partitioned.init db view ~is_old)

let as_partitioned = function
  | Split p -> Some p
  | Incremental _ | Recompute _ -> None

let recompute db view =
  View.validate db view;
  Recompute { replica = Database.copy db; view; txn = None }

let copy = function
  | Incremental { name; engine } -> Incremental { name; engine = Engine.copy engine }
  | Recompute { replica; view; txn = _ } ->
    Recompute { replica = Database.copy replica; view; txn = None }
  | Split p -> Split (Partitioned.copy p)

let db_equal a b =
  let ta = List.sort String.compare (Database.table_names a) in
  ta = List.sort String.compare (Database.table_names b)
  && List.for_all
       (fun tbl ->
         let ki = Schema.key_index (Database.schema_of a tbl) in
         Database.row_count a tbl = Database.row_count b tbl
         && Database.fold a tbl
              (fun tup acc ->
                acc
                &&
                match Database.find_by_key b tbl tup.(ki) with
                | Some tup' -> Tuple.equal tup tup'
                | None -> false)
              true)
       ta

let equal_state a b =
  match a, b with
  | Incremental { engine; _ }, Incremental { engine = engine'; _ } ->
    Engine.equal_state engine engine'
  | Recompute { replica; _ }, Recompute { replica = replica'; _ } ->
    db_equal replica replica'
  | Split p, Split p' -> Partitioned.equal_state p p'
  | (Incremental _ | Recompute _ | Split _), _ -> false

let in_txn = function
  | Incremental { engine; _ } -> Engine.in_txn engine
  | Recompute r -> r.txn <> None
  | Split p -> Partitioned.in_txn p

let begin_txn = function
  | Incremental { engine; _ } -> Engine.begin_txn engine
  | Recompute r ->
    if r.txn <> None then invalid_arg "Engines.begin_txn: transaction open";
    r.txn <- Some []
  | Split p -> Partitioned.begin_txn p

let commit = function
  | Incremental { engine; _ } -> Engine.commit engine
  | Recompute r ->
    if r.txn = None then invalid_arg "Engines.commit: no open transaction";
    r.txn <- None
  | Split p -> Partitioned.commit p

let rollback = function
  | Incremental { engine; _ } -> Engine.rollback engine
  | Recompute r -> (
    match r.txn with
    | None -> invalid_arg "Engines.rollback: no open transaction"
    | Some journal ->
      (* newest-first journal: applying the inverses in list order replays
         the applied prefix backwards *)
      List.iter (fun d -> Database.apply r.replica (Delta.invert d)) journal;
      r.txn <- None)
  | Split p -> Partitioned.rollback p

let apply_batch ?parallel t deltas =
  match t with
  | Incremental { engine; _ } -> Engine.apply_batch ?parallel engine deltas
  | Recompute r -> (
    match r.txn with
    | None -> Database.apply_all r.replica deltas
    | Some _ ->
      List.iter
        (fun d ->
          Database.apply r.replica d;
          match r.txn with
          | Some journal -> r.txn <- Some (d :: journal)
          | None -> assert false)
        deltas)
  | Split p -> Partitioned.apply_batch ?parallel p deltas

let view_contents = function
  | Incremental { engine; _ } -> Engine.view_contents engine
  | Recompute { replica; view; _ } -> Algebra.Eval.eval replica view
  | Split p -> Partitioned.view_contents p

(* A full render behind a guard. Every rendering path builds a fresh
   relation (new rows, never aliasing engine internals), so the result is
   immutable-by-construction and safe to hand to concurrent readers — but
   only if the engine is quiescent: rendering mid-transaction would freeze
   uncommitted group state. *)
let capture t =
  if in_txn t then
    invalid_arg "Engines.capture: transaction open (capture only at commit)";
  view_contents t

(* --- epoch rows ------------------------------------------------------------ *)

module Rows = Map.Make (Tuple)

(* A view's published contents: output rows in a persistent map, so an
   epoch built from the previous one shares every untouched row with it.
   Incremental engines key the rows by group key and record the view-state
   stamp they reflect; full-capture engines key each row by itself.
   [ordered]: the map's key order is the rows' [Tuple.compare] order. *)
type frozen = {
  rows : Tuple.t Rows.t;
  stamp : (int * int) option;
  ordered : bool;
}

(* Whether the group-by items open the select list, in group-key order:
   then distinct group keys order the rows as the rows themselves do. *)
let keys_lead_rows (view : View.t) =
  let rec leads = function
    | Algebra.Select_item.Group _ :: rest -> leads rest
    | rest ->
      List.for_all
        (function
          | Algebra.Select_item.Group _ -> false
          | Algebra.Select_item.Agg _ -> true)
        rest
  in
  leads view.View.select

let of_relation rel =
  let rows =
    Relation.fold
      (fun row n acc ->
        (* view outputs are sets: every output row carries its group key *)
        if n <> 1 then invalid_arg "Engines.freeze: duplicate output row";
        Rows.add row row acc)
      rel Rows.empty
  in
  ({ rows; stamp = None; ordered = true }, Rows.cardinal rows)

let freeze_state engine =
  let vs = Engine.view_state engine in
  let stamp = View_state.stamp vs in
  let rows = View_state.fold_rows vs Rows.add Rows.empty in
  ( { rows; stamp = Some stamp; ordered = keys_lead_rows (View_state.view vs) },
    Rows.cardinal rows )

let freeze ?prev t =
  if in_txn t then
    invalid_arg "Engines.freeze: transaction open (freeze only at commit)";
  match t, prev with
  | Incremental { engine; _ }, Some ({ stamp = Some stamp; _ } as prev) -> (
    let vs = Engine.view_state engine in
    match View_state.changes_since vs stamp with
    | `Same -> (prev, 0)
    | `Keys keys ->
      let rows =
        List.fold_left
          (fun rows key ->
            match View_state.row_of_key vs key with
            | Some row -> Rows.add key row rows
            | None -> Rows.remove key rows)
          prev.rows keys
      in
      ( { prev with rows; stamp = Some (View_state.stamp vs) },
        List.length keys )
    | `All -> freeze_state engine)
  | Incremental { engine; _ }, _ -> freeze_state engine
  | (Recompute _ | Split _), _ -> of_relation (view_contents t)

let frozen_relation f =
  let rel = Relation.create ~size_hint:(Rows.cardinal f.rows) () in
  Rows.iter (fun _ row -> Relation.insert rel row) f.rows;
  rel

let frozen_sorted f =
  let rows = Rows.fold (fun _ row acc -> (row, 1) :: acc) f.rows [] in
  if f.ordered then List.rev rows
  else List.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows

let detail_profile = function
  | Incremental { engine; _ } ->
    (* drop the view itself: only detail data counts *)
    (match Engine.storage_profile engine with
    | _view :: aux -> aux
    | [] -> [])
  | Split p -> Partitioned.detail_profile p
  | Recompute { replica; view; _ } ->
    List.map
      (fun tbl ->
        ( tbl,
          Database.row_count replica tbl,
          Schema.arity (Database.schema_of replica tbl) ))
      view.View.tables

(* Measured bytes only exist for columnar state; the recompute baseline
   stores a boxed replica, so it keeps the estimate-only path. *)
let measured_bytes = function
  | Incremental { engine; _ } -> Some (Engine.measured_bytes engine)
  | Split p -> Some (Partitioned.measured_bytes p)
  | Recompute _ -> None

(* Off-heap bytes exist only where columnar state does; the boxed-replica
   baseline contributes zero. *)
let offheap_bytes = function
  | Incremental { engine; _ } -> Engine.offheap_bytes engine
  | Split p -> Partitioned.offheap_bytes p
  | Recompute _ -> 0

let derivation = function
  | Incremental { engine; _ } -> Some (Engine.derivation engine)
  | Recompute _ | Split _ -> None

let last_flow = function
  | Incremental { engine; _ } -> Engine.last_flow engine
  | Recompute _ | Split _ -> None

let self_audit ~sample = function
  | Incremental { engine; _ } -> Engine.audit ~sample engine
  | Recompute _ | Split _ -> None
