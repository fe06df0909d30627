(* Workload definitions and their seeded input generators.

   Every input is derived from the run's seed: the initial retail store
   ([Workload.Retail.load]) and the delta batches that follow it. The
   generators keep their own model of the live fact rows and product
   brands, so every delta they emit is legal against the warehouse state
   that the preceding batches produce: no key is touched twice in one
   batch, deletes and updates only hit live rows. *)

module Retail = Workload.Retail
module Prng = Workload.Prng
module Value = Relational.Value
module Delta = Relational.Delta
module Database = Relational.Database

type kind = Bulk_ingest | Churn_large_state

type spec = {
  kind : kind;
  name : string;
  params : Retail.params;  (** [seed] is replaced by the run's seed *)
  views : Algebra.View.t list;
  writer_batches : int;  (** closed-loop writer batches per round *)
  read_view : string;  (** the view the serve phase queries *)
  serve_seconds : float;  (** length of the serve phase of a round *)
  tick_period : float;  (** seconds between server-side ingest ticks *)
}

let bulk =
  {
    kind = Bulk_ingest;
    name = "bulk_ingest";
    params =
      {
        Retail.days = 60;
        stores = 8;
        products = 400;
        sold_per_store_day = 40;
        tx_per_product = 4;
        brands = 40;
        seed = 0;
      };
    views = [ Retail.product_sales; Retail.sales_by_time ];
    writer_batches = 100;
    read_view = "sales_by_time";
    serve_seconds = 2.0;
    tick_period = 0.05;
  }

(* The view churn_large_state's reads query: one group per product among
   the first 1,000, so a read renders about 1,000 rows, and a tick's 100
   sale inserts move a few of them. *)
let hot_products =
  let a = Algebra.Attr.make in
  {
    Algebra.View.name = "hot_products";
    having = [];
    select =
      [
        Algebra.Select_item.group (a "sale" "productid");
        Algebra.Select_item.Agg
          (Algebra.Aggregate.make ~alias:"Revenue" Algebra.Aggregate.Sum
             (Some (a "sale" "price")));
        Algebra.Select_item.Agg
          (Algebra.Aggregate.make ~alias:"Sales" Algebra.Aggregate.Count_star None);
      ];
    tables = [ "sale" ];
    locals =
      [
        { Algebra.Predicate.left = a "sale" "productid"; op = Algebra.Cmp.Le;
          right = Algebra.Predicate.Const (Value.Int 1_000) };
      ];
    joins = [];
  }

(* [tx_per_product = 1] spreads the 100k facts over ~29k of the 30k
   products, so [product_sales_max] holds ~29k groups. A tick commits 100
   sales, and every commit re-renders that view's epoch (~90 ms), so ticks
   come every 250 ms. *)
let churn =
  {
    kind = Churn_large_state;
    name = "churn_large_state";
    params =
      {
        Retail.days = 20;
        stores = 10;
        products = 30_000;
        sold_per_store_day = 500;
        tx_per_product = 1;
        brands = 200;
        seed = 0;
      };
    views = [ Retail.product_sales_max; Retail.product_sales; hot_products ];
    writer_batches = 15;
    read_view = "hot_products";
    serve_seconds = 2.0;
    tick_period = 0.25;
  }

let all = [ bulk; churn ]
let find name = List.find_opt (fun s -> String.equal s.name name) all

(* --- the generator ------------------------------------------------------- *)

type t = {
  spec : spec;
  rng : Prng.t;
  mutable next_id : int;
  mutable live : Relational.Tuple.t array;
      (** live fact rows in [live.(0 .. n_live - 1)] (churn only: the other
          workloads never delete) *)
  mutable n_live : int;
  brands : string array;  (** current brand of product [i + 1] *)
}

let ints = Array.init 1_024 (fun i -> Value.Int i)
let int n = if n >= 0 && n < Array.length ints then ints.(n) else Value.Int n

let create spec ~seed db =
  let live =
    if spec.kind <> Churn_large_state then [||]
    else begin
      (* hashtable fold order is an accident of insertion history: sort it
         away so the stream depends on the seed alone *)
      let a = Array.of_list (Database.fold db "sale" List.cons []) in
      Array.sort Relational.Tuple.compare a;
      a
    end
  in
  let brands =
    Array.init spec.params.products (fun i ->
        match Database.find_by_key db "product" (Value.Int (i + 1)) with
        | Some tup -> Value.to_string tup.(1)
        | None -> "")
  in
  {
    spec;
    rng = Prng.create (seed * 7919 + 17);
    next_id = Retail.fact_rows spec.params + 1;
    live;
    n_live = Array.length live;
    brands;
  }

let fresh_sale g =
  let p = g.spec.params in
  let id = g.next_id in
  g.next_id <- id + 1;
  [| Value.Int id;
     int (Prng.int g.rng p.days + 1);
     int (Prng.int g.rng p.products + 1);
     int (Prng.int g.rng p.stores + 1);
     int (Prng.int g.rng 100 + 1) |]

let inserts g n = List.init n (fun _ -> Delta.insert "sale" (fresh_sale g))

let add_live g tup =
  if g.n_live = Array.length g.live then begin
    let bigger = Array.make (max 16 (2 * g.n_live)) tup in
    Array.blit g.live 0 bigger 0 g.n_live;
    g.live <- bigger
  end;
  g.live.(g.n_live) <- tup;
  g.n_live <- g.n_live + 1

(* Remove and return a uniformly chosen live row (swap-remove). *)
let take_live g =
  let i = Prng.int g.rng g.n_live in
  let tup = g.live.(i) in
  g.n_live <- g.n_live - 1;
  g.live.(i) <- g.live.(g.n_live);
  tup

let new_price old =
  match old with
  | Value.Int p -> int ((p mod 100) + 1)
  | v -> v

(* One churn batch: 100 sale deltas, a third each fresh inserts, deletes of
   live rows and price updates, interleaved; then 2 product brand updates.
   Taken rows leave the live set until the batch is built, so no key is
   touched twice. *)
let churn_batch g =
  let ins = List.init 33 (fun _ -> fresh_sale g) in
  let dels = List.init 33 (fun _ -> take_live g) in
  let upds =
    List.init 34 (fun _ ->
        let before = take_live g in
        let after = Array.copy before in
        after.(4) <- new_price before.(4);
        (before, after))
  in
  List.iter (add_live g) ins;
  List.iter (fun (_, after) -> add_live g after) upds;
  let rec interleave a b c =
    match (a, b, c) with
    | [], [], [] -> []
    | _ ->
      let hd l = match l with x :: _ -> [ x ] | [] -> [] in
      let tl l = match l with _ :: r -> r | [] -> [] in
      hd a @ hd b @ hd c @ interleave (tl a) (tl b) (tl c)
  in
  let sales =
    interleave
      (List.map (Delta.insert "sale") ins)
      (List.map (Delta.delete "sale") dels)
      (List.map (fun (before, after) -> Delta.update "sale" ~before ~after) upds)
  in
  let products = g.spec.params.products and brands = g.spec.params.brands in
  let first = Prng.int g.rng products in
  let dims =
    List.map
      (fun i ->
        let old = g.brands.(i) in
        let fresh = Printf.sprintf "brand%d" (Prng.int g.rng brands) in
        let fresh = if String.equal fresh old then old ^ "x" else fresh in
        g.brands.(i) <- fresh;
        let category = Printf.sprintf "cat%d" (i mod 10) in
        let row b = [| Value.Int (i + 1); Value.String b; Value.String category |] in
        Delta.update "product" ~before:(row old) ~after:(row fresh))
      [ first; (first + 1 + Prng.int g.rng (products - 1)) mod products ]
  in
  sales @ dims

(* The closed-loop writer's batch (and the fixture's). *)
let writer_batch g =
  match g.spec.kind with
  | Bulk_ingest -> inserts g 2_000
  | Churn_large_state -> churn_batch g

(* The batch one server-side ingest tick commits: 100 fresh sale inserts,
   which stay valid whatever else the generator emitted before them. They
   change the read view of both workloads. *)
let tick_batch g = inserts g 100
