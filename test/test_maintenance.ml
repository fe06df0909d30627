(* Tests for the self-maintenance machinery: auxiliary-view state, view-group
   state, and the engine's handling of every change kind — including the
   scenarios Section 3.2 singles out (non-CSMAS recomputation, duplicate
   compression arithmetic) and the elimination mode of Section 3.3. *)

open Helpers
module Aux_state = Maintenance.Aux_state
module View_state = Maintenance.View_state
module Engine = Maintenance.Engine
module Engines = Maintenance.Engines
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview

let test case fn = Alcotest.test_case case `Quick fn

(* --- Aux_state --------------------------------------------------------- *)

let sale_schema db = Database.schema_of db "sale"

let sale_spec db =
  Option.get
    (Derive.spec_for (Derive.derive db Workload.Retail.product_sales) "sale")

let time_spec db =
  Option.get
    (Derive.spec_for (Derive.derive db Workload.Retail.product_sales) "time")

let aux_state_tests =
  [
    test "insert groups and accumulates" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        (* base tuples: id timeid productid storeid price *)
        Aux_state.insert_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Aux_state.insert_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Aux_state.insert_base st (row [ i 3; i 2; i 1; i 1; i 7 ]);
        Alcotest.(check int) "rows" 2 (Aux_state.row_count st);
        Alcotest.(check int) "base" 3 (Aux_state.base_count st);
        let r = Aux_state.to_relation st in
        Alcotest.check relation "contents"
          (rel [ [ i 1; i 1; i 25; i 2 ]; [ i 2; i 1; i 7; i 1 ] ])
          r);
    test "delete reverses insert exactly" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        Aux_state.insert_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Aux_state.insert_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Aux_state.delete_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Alcotest.check relation "one left"
          (rel [ [ i 1; i 1; i 10; i 1 ] ])
          (Aux_state.to_relation st);
        Aux_state.delete_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Alcotest.(check int) "empty" 0 (Aux_state.row_count st));
    test "delete of absent group raises" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        match Aux_state.delete_base st (row [ i 1; i 1; i 1; i 1; i 10 ]) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "keyed view supports lookups" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (time_spec db) (Database.schema_of db "time") in
        Aux_state.insert_base st (row [ i 1; i 1; i 3; i 1997 ]);
        Alcotest.(check bool) "mem" true (Aux_state.mem_key st (i 1));
        (match Aux_state.find_by_key st (i 1) with
        | Some r ->
          Alcotest.check value "month" (i 3) (Aux_state.plain_of st r "month")
        | None -> Alcotest.fail "row missing");
        Aux_state.delete_base st (row [ i 1; i 1; i 3; i 1997 ]);
        Alcotest.(check bool) "gone" false (Aux_state.mem_key st (i 1)));
    test "compressed view rejects key lookups" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        match Aux_state.find_by_key st (i 1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "composite index agrees with a scan under churn and rollback"
      (fun () ->
        let db = Workload.Retail.empty () in
        let st =
          Aux_state.create ~shards:4 ~indexed_columns:[ "productid" ]
            ~indexed_keys:[ [ "timeid"; "productid" ] ]
            (sale_spec db) (sale_schema db)
        in
        let rng = Workload.Prng.create 11 in
        let live = ref [] and next = ref 0 in
        let churn n =
          for _ = 1 to n do
            match !live with
            | tup :: rest when Workload.Prng.int rng 3 = 0 ->
              Aux_state.delete_base st tup;
              live := rest
            | _ ->
              incr next;
              let tup =
                row
                  [ i !next; i (1 + Workload.Prng.int rng 4);
                    i (1 + Workload.Prng.int rng 5); i 1;
                    i (1 + Workload.Prng.int rng 9) ]
              in
              Aux_state.insert_base st tup;
              live := tup :: !live
          done
        in
        (* every probe must find exactly the groups a scan of the contents
           holds *)
        let agree what =
          let contents = Aux_state.to_relation st in
          for t = 1 to 4 do
            for p = 1 to 5 do
              let expected =
                Relation.fold
                  (fun r _ acc ->
                    if Value.equal r.(0) (i t) && Value.equal r.(1) (i p) then
                      acc + 1
                    else acc)
                  contents 0
              in
              let found = ref 0 in
              Aux_state.iter_where st ~columns:[ "timeid"; "productid" ]
                [| i t; i p |] (fun _ -> incr found);
              Alcotest.(check int)
                (Printf.sprintf "%s: groups at (%d, %d)" what t p)
                expected !found
            done
          done;
          (* and the single-column index, whose chains hold several groups *)
          for p = 1 to 5 do
            let expected =
              Relation.fold
                (fun r _ acc -> if Value.equal r.(1) (i p) then acc + 1 else acc)
                contents 0
            in
            Alcotest.(check int)
              (Printf.sprintf "%s: groups of product %d" what p)
              expected
              (List.length (Aux_state.rows_with st ~column:"productid" (i p)))
          done
        in
        churn 200;
        agree "after churn";
        let snap = Aux_state.copy st in
        let saved = !live in
        Aux_state.begin_txn st;
        churn 60;
        Aux_state.rollback st;
        live := saved;
        Alcotest.(check bool) "rollback restores the indexes" true
          (Aux_state.equal st snap);
        agree "after rollback";
        churn 200;
        agree "after more churn");
    test "group_key_of_base projects the plains" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        Alcotest.check tuple "key" (row [ i 7; i 8 ])
          (Aux_state.group_key_of_base st (row [ i 1; i 7; i 8; i 1; i 10 ])));
  ]

(* --- engine: per-change-kind scenarios ---------------------------------- *)

let eng db view = Engines.minimal db view

let check_sync ?(msg = "view") engine db view =
  Alcotest.check relation msg
    (Algebra.Eval.eval db view)
    (Engines.view_contents engine)

let apply engine db deltas =
  Database.apply_all db deltas;
  Engines.apply_batch engine deltas

let engine_tests =
  [
    test "fact insert creates and grows groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db [ Delta.insert "sale" (row [ i 100; i 3; i 1; i 1; i 11 ]) ];
        check_sync e db Workload.Retail.product_sales;
        apply e db [ Delta.insert "sale" (row [ i 101; i 3; i 1; i 1; i 12 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "fact delete shrinks and removes empty groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* month 2 has exactly one sale: deleting it must drop the group *)
        apply e db [ Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.product_sales;
        let got = Engines.view_contents e in
        Alcotest.(check int) "one group left" 1 (Relation.cardinality got));
    test "group death and rebirth resets non-CSMAS state" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        (* product 2 is fed by sales 3 and 7; delete both (killing the
           group), then re-insert with a smaller max *)
        apply e db
          [ Delta.delete "sale" (row [ i 3; i 1; i 2; i 1; i 10 ]);
            Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.product_sales_max;
        apply e db [ Delta.insert "sale" (row [ i 200; i 1; i 2; i 1; i 3 ]) ];
        check_sync e db Workload.Retail.product_sales_max);
    test "deleting the MAX forces recomputation from aux views" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        (* product 1's max price is the single 20 *)
        apply e db [ Delta.delete "sale" (row [ i 6; i 2; i 1; i 1; i 20 ]) ];
        check_sync e db Workload.Retail.product_sales_max;
        (* the new max must be 15, not a stale 20 *)
        let got = Engines.view_contents e in
        Alcotest.(check bool) "max 15" true
          (Relation.fold
             (fun tup _ acc -> acc || (tup.(0) = i 1 && tup.(1) = i 15))
             got false));
    test "deleting a non-extremal value is maintained in place" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        apply e db [ Delta.delete "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]) ];
        check_sync e db Workload.Retail.product_sales_max);
    test "COUNT(DISTINCT) tracks brand departures" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* month 1 joins brands acme and apex; remove the only apex sale in
           month 1 (sale 3) *)
        apply e db [ Delta.delete "sale" (row [ i 3; i 1; i 2; i 1; i 10 ]) ];
        check_sync e db Workload.Retail.product_sales;
        let got = Engines.view_contents e in
        Alcotest.(check bool) "brands=1 in month 1" true
          (Relation.fold (fun tup _ acc -> acc || (tup.(0) = i 1 && tup.(3) = i 1))
             got false));
    test "fact update splits into delete+insert across groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.update "sale" ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
              ~after:(row [ i 1; i 1; i 1; i 1; i 99 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim inserts/deletes touch only detail data" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        let before = Engines.view_contents e in
        apply e db [ Delta.insert "time" (row [ i 50; i 9; i 9; i 1997 ]) ];
        apply e db [ Delta.insert "product" (row [ i 50; s "new"; s "x" ]) ];
        Alcotest.check relation "unchanged" before (Engines.view_contents e);
        apply e db [ Delta.delete "product" (row [ i 50; s "new"; s "x" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "new dim tuple then fact referencing it" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.insert "time" (row [ i 50; i 9; i 9; i 1997 ]);
            Delta.insert "sale" (row [ i 300; i 50; i 1; i 1; i 4 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim tuple failing locals contributes nothing" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.insert "time" (row [ i 60; i 9; i 9; i 1995 ]);
            Delta.insert "sale" (row [ i 301; i 60; i 1; i 1; i 4 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim update of a group-by attribute moves contributions" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* time.month is declared updatable and feeds GROUP BY *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1997 ])
              ~after:(row [ i 1; i 1; i 7; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim update merging two groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* move timeid 3 (month 2) into month 1: groups merge *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 3; i 3; i 2; i 1997 ])
              ~after:(row [ i 3; i 3; i 1; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales;
        Alcotest.(check int) "single group" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "dim update of a DISTINCT argument" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.update "product" ~before:(row [ i 2; s "apex"; s "drink" ])
              ~after:(row [ i 2; s "acme"; s "drink" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "exposed dim update pulls facts into the view" (fun () ->
        let db = Workload.Retail.empty ~exposed_time:true () in
        List.iter (Database.apply db)
          [ Delta.insert "time" (row [ i 1; i 1; i 1; i 1996 ]);
            Delta.insert "product" (row [ i 1; s "acme"; s "f" ]);
            Delta.insert "store" (row [ i 1; s "a"; s "b"; s "c"; s "d" ]);
            Delta.insert "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]) ];
        let e = eng db Workload.Retail.product_sales in
        Alcotest.(check int) "initially empty" 0
          (Relation.cardinality (Engines.view_contents e));
        (* year 1996 -> 1997: the fact now qualifies *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1996 ])
              ~after:(row [ i 1; i 1; i 1; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales;
        (* and back out again *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1997 ])
              ~after:(row [ i 1; i 1; i 1; i 1996 ]) ];
        check_sync e db Workload.Retail.product_sales;
        Alcotest.(check int) "empty again" 0
          (Relation.cardinality (Engines.view_contents e)));
    test "irrelevant dim update is a no-op" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* product.category is not referenced by the view *)
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; s "acme"; s "food" ])
              ~after:(row [ i 1; s "acme"; s "tools" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "deltas on unreferenced tables are ignored" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db [ Delta.insert "store" (row [ i 9; s "x"; s "y"; s "z"; s "m" ]) ];
        check_sync e db Workload.Retail.product_sales);
  ]

(* --- exposed foreign keys: updates that re-parent a dimension ------------- *)

(* a schema where the dim-to-dim foreign key itself is updatable: product can
   be moved to a different brand, an exposed update on a join column *)
let reparenting_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"brand" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "name"; col_type = Datatype.TString } ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"product" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "brandid"; col_type = Datatype.TInt } ])
    ~updatable:[ "brandid" ];
  Database.add_table db
    (Schema.make ~name:"sale" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "productid"; col_type = Datatype.TInt };
         { Schema.col_name = "price"; col_type = Datatype.TInt } ])
    ~updatable:[ "price" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "product"; src_col = "brandid";
      dst_table = "brand" };
  Database.add_reference db
    { Relational.Integrity.src_table = "sale"; src_col = "productid";
      dst_table = "product" };
  List.iter (Database.apply db)
    [ Delta.insert "brand" (row [ i 1; s "acme" ]);
      Delta.insert "brand" (row [ i 2; s "apex" ]);
      Delta.insert "product" (row [ i 1; i 1 ]);
      Delta.insert "product" (row [ i 2; i 2 ]);
      Delta.insert "sale" (row [ i 1; i 1; i 10 ]);
      Delta.insert "sale" (row [ i 2; i 1; i 20 ]);
      Delta.insert "sale" (row [ i 3; i 2; i 5 ]) ];
  db

let brand_revenue =
  {
    View.name = "brand_revenue";
    having = [];
    select =
      [ group ~alias:"brand" (a "brand" "name");
        sum ~alias:"Revenue" (a "sale" "price");
        count_star ~alias:"Sales" () ];
    tables = [ "sale"; "product"; "brand" ];
    locals = [];
    joins =
      [ join (a "sale" "productid") (a "product" "id");
        join (a "product" "brandid") (a "brand" "id") ];
  }

let reparenting_tests =
  [
    test "exposed fk blocks the semijoin on the moving dim" (fun () ->
        let db = reparenting_db () in
        let d = Derive.derive db brand_revenue in
        (* product has exposed updates (brandid is a join column), so its
           auxiliary view is not semijoin-reduced against brandDTL *)
        Alcotest.(check (list string)) "exposed" [ "product" ]
          d.Derive.exposed;
        let sale_spec = Option.get (Derive.spec_for d "sale") in
        Alcotest.(check int) "sale has no semijoin" 0
          (List.length sale_spec.Auxview.semijoins));
    test "re-parenting a product moves its revenue between brands" (fun () ->
        let db = reparenting_db () in
        let e = eng db brand_revenue in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 1 ])
              ~after:(row [ i 1; i 2 ]) ];
        check_sync e db brand_revenue;
        (* acme lost both sales: the group must be gone *)
        Alcotest.(check int) "one group" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "re-parenting back restores the original view" (fun () ->
        let db = reparenting_db () in
        let before = Algebra.Eval.eval db brand_revenue in
        let e = eng db brand_revenue in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 1 ])
              ~after:(row [ i 1; i 2 ]) ];
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 2 ])
              ~after:(row [ i 1; i 1 ]) ];
        check_sync e db brand_revenue;
        Alcotest.check relation "restored" before (Engines.view_contents e));
    test "random streams over the re-parenting schema" (fun () ->
        let db = reparenting_db () in
        let e = eng db brand_revenue in
        let rng = Workload.Prng.create 123 in
        for round = 1 to 8 do
          let deltas = Workload.Delta_gen.stream rng db ~n:25 in
          Engines.apply_batch e deltas;
          Alcotest.check relation
            (Printf.sprintf "round %d" round)
            (Algebra.Eval.eval db brand_revenue)
            (Engines.view_contents e)
        done);
  ]

(* --- elimination mode (root auxiliary view omitted) ---------------------- *)

let elimination_tests =
  [
    test "fact stream with no fact detail table" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        Alcotest.(check (list string)) "no saleDTL"
          [ "timeDTL" ]
          (List.map (fun (n, _, _) -> n) (Engines.detail_profile e));
        apply e db
          [ Delta.insert "sale" (row [ i 400; i 1; i 1; i 1; i 8 ]);
            Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]);
            Delta.update "sale" ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
              ~after:(row [ i 1; i 1; i 1; i 1; i 13 ]) ];
        check_sync e db Workload.Retail.sales_by_time);
    test "group dies when its last fact goes" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        apply e db [ Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.sales_by_time;
        Alcotest.(check bool) "timeid 3 gone" true
          (Relation.fold
             (fun tup _ acc -> acc && not (tup.(0) = i 3))
             (Engines.view_contents e)
             true));
    test "single-table view maintains itself with zero detail" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.months in
        Alcotest.(check int) "no detail" 0
          (List.length (Engines.detail_profile e));
        apply e db
          [ Delta.insert "time" (row [ i 70; i 1; i 12; i 1998 ]);
            Delta.insert "time" (row [ i 71; i 2; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months;
        (* deleting one of two witnesses keeps the group; both kills it *)
        apply e db [ Delta.delete "time" (row [ i 70; i 1; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months;
        apply e db [ Delta.delete "time" (row [ i 71; i 2; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months);
    test "keyed dim update rewrites groups without fact detail" (fun () ->
        (* snowflake: product is the keyed anchor; brand.name feeds a
           determined DISTINCT *)
        let db = Workload.Snowflake.load Workload.Snowflake.small_params in
        let view = Workload.Snowflake.product_brand_profile in
        let e = eng db view in
        apply e db
          [ Delta.update "brand" ~before:(row [ i 1; i 2; s "brand1" ])
              ~after:(row [ i 1; i 2; s "rebranded" ]) ];
        check_sync e db view);
    test "keyed dim group attribute update with eliminated root" (fun () ->
        (* group by product.id and product.category: product is k-annotated,
           sale is eliminated; updating category must rewrite group keys *)
        let db = paper_example_db () in
        let v =
          {
            View.name = "per_product";
            having = [];
            select =
              [ group (a "product" "id"); group (a "product" "category");
                sum ~alias:"Revenue" (a "sale" "price");
                count_star ~alias:"Sales" () ];
            tables = [ "sale"; "product" ];
            locals = [];
            joins = [ join (a "sale" "productid") (a "product" "id") ];
          }
        in
        let d = Derive.derive db v in
        Alcotest.(check (list string)) "sale omitted" [ "sale" ]
          (Derive.omitted_tables d);
        let e = eng db v in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; s "acme"; s "food" ])
              ~after:(row [ i 1; s "acme"; s "drinks" ]) ];
        check_sync e db v);
    test "price updates with elimination" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        apply e db
          [ Delta.update "sale" ~before:(row [ i 4; i 2; i 1; i 1; i 15 ])
              ~after:(row [ i 4; i 2; i 1; i 1; i 150 ]) ];
        check_sync e db Workload.Retail.sales_by_time);
  ]

(* --- engines facade -------------------------------------------------------- *)

(* The engine trusts the source to validate the stream (the store rejects
   illegal changes before they reach the warehouse); when that contract is
   broken the engine fails loudly instead of corrupting state. *)
let contract_tests =
  [
    test "deleting a fact from an absent detail group fails loudly" (fun () ->
        (* detection is best-effort: a phantom delete is caught as soon as it
           touches auxiliary state that does not exist. (A phantom landing in
           an existing group is indistinguishable from a legal delete — which
           is why the store validates the stream upfront, see below.) *)
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* no (timeid 3, productid 1) sale exists *)
        let phantom = row [ i 999; i 3; i 1; i 1; i 123 ] in
        match Engines.apply_batch e [ Delta.delete "sale" phantom ] with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected a loud failure");
    test "dim update with a wrong before-image fails loudly" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* the before image disagrees with the stored timeDTL row *)
        match
          Engines.apply_batch e
            [ Delta.update "time" ~before:(row [ i 1; i 1; i 9; i 1997 ])
                ~after:(row [ i 1; i 1; i 8; i 1997 ]) ]
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected a loud failure");
    test "source store rejects the same illegal changes upfront" (fun () ->
        let db = paper_example_db () in
        let phantom = row [ i 999; i 1; i 1; i 1; i 123 ] in
        match Database.apply db (Delta.delete "sale" phantom) with
        | exception Database.Violation _ -> ()
        | () -> Alcotest.fail "expected Violation");
  ]

let engines_tests =
  [
    test "all three engines agree under a random stream" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let engines =
          [ Engines.minimal db view; Engines.psj db view; Engines.recompute db view ]
        in
        let rng = Workload.Prng.create 99 in
        for _ = 1 to 5 do
          let deltas = Workload.Delta_gen.stream rng db ~n:40 in
          List.iter (fun e -> Engines.apply_batch e deltas) engines;
          let expected = Algebra.Eval.eval db view in
          List.iter
            (fun e ->
              Alcotest.check relation (Engines.name e) expected
                (Engines.view_contents e))
            engines
        done);
    test "names" (fun () ->
        let db = paper_example_db () in
        Alcotest.(check string) "minimal" "minimal"
          (Engines.name (Engines.minimal db Workload.Retail.months));
        Alcotest.(check string) "recompute" "recompute"
          (Engines.name (Engines.recompute db Workload.Retail.months)));
    test "detail profiles: minimal <= psj <= replicate (rows)" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let rows e =
          List.fold_left (fun acc (_, r, _) -> acc + r) 0 (Engines.detail_profile e)
        in
        let m = rows (Engines.minimal db view) in
        let p = rows (Engines.psj db view) in
        let r = rows (Engines.recompute db view) in
        Alcotest.(check bool) "m<=p" true (m <= p);
        Alcotest.(check bool) "p<=r" true (p <= r));
    test "engine aux state matches materialized auxiliary views" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let engine = Engine.init db d in
        let rng = Workload.Prng.create 123 in
        let deltas = Workload.Delta_gen.stream rng db ~n:150 in
        Engine.apply_batch engine deltas;
        (* the auxiliary views recomputed from the evolved base tables must
           coincide with the incrementally maintained state *)
        let expected = Mindetail.Materialize.all db d in
        let got = Engine.aux_contents engine in
        List.iter
          (fun (tbl, exp) ->
            Alcotest.check relation tbl exp (List.assoc tbl got))
          expected);
    test "engine reconstruction from maintained aux state" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let engine = Engine.init db d in
        let rng = Workload.Prng.create 321 in
        Engine.apply_batch engine (Workload.Delta_gen.stream rng db ~n:150);
        let contents = Engine.aux_contents engine in
        let reconstructed =
          Mindetail.Reconstruct.view d (fun tbl -> List.assoc tbl contents)
        in
        Alcotest.check relation "reconstruct == eval"
          (Algebra.Eval.eval db view)
          reconstructed);
    test "storage_profile lists the view first" (fun () ->
        let db = paper_example_db () in
        let engine =
          Engine.init db (Derive.derive db Workload.Retail.product_sales)
        in
        match Engine.storage_profile engine with
        | (name, _, fields) :: aux ->
          Alcotest.(check string) "view" "product_sales" name;
          Alcotest.(check int) "view width" 4 fields;
          Alcotest.(check int) "aux count" 3 (List.length aux)
        | [] -> Alcotest.fail "empty profile");
  ]

let index_tests =
  [
    test "fk-indexed and scan-based engines agree" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let indexed = Engine.init db d in
        let scanning = Engine.init ~fk_index:false db d in
        let rng = Workload.Prng.create 202 in
        for round = 1 to 6 do
          (* dimension-update heavy mix *)
          let deltas =
            Workload.Delta_gen.stream
              ~mix:{ Workload.Delta_gen.insert = 1; delete = 1; update = 6 }
              rng db ~n:50
          in
          Engine.apply_batch indexed deltas;
          Engine.apply_batch scanning deltas;
          let expected = Algebra.Eval.eval db view in
          Alcotest.check relation
            (Printf.sprintf "indexed round %d" round)
            expected (Engine.view_contents indexed);
          Alcotest.check relation
            (Printf.sprintf "scanning round %d" round)
            expected (Engine.view_contents scanning)
        done);
    test "snowflake chains resolve through the indexes" (fun () ->
        let db = Workload.Snowflake.load Workload.Snowflake.small_params in
        let view = Workload.Snowflake.category_revenue in
        let e = Engines.minimal db view in
        (* category.name feeds the group-by through a 3-hop chain *)
        let before = Option.get (Database.find_by_key db "category" (i 1)) in
        let after = Array.copy before in
        after.(1) <- s "renamed";
        Database.apply db (Delta.update "category" ~before ~after);
        Engines.apply_batch e [ Delta.update "category" ~before ~after ];
        Alcotest.check relation "renamed group"
          (Algebra.Eval.eval db view)
          (Engines.view_contents e));
  ]

let () =
  Alcotest.run "maintenance"
    [
      ("aux_state", aux_state_tests);
      ("engine", engine_tests);
      ("reparenting", reparenting_tests);
      ("contract", contract_tests);
      ("fk-index", index_tests);
      ("elimination", elimination_tests);
      ("engines", engines_tests);
    ]
