(* Direct unit tests for the view-group state: component maintenance,
   DISTINCT multisets, dirty-group tracking, group rewriting, rendering,
   change tracking for epoch publication. *)

open Helpers
module VS = Maintenance.View_state

let test case fn = Alcotest.test_case case `Quick fn

(* a small view: group g, SUM(v), COUNT( * ), AVG(v), MAX(v), COUNT(DISTINCT s) *)
let view =
  {
    View.name = "v";
    having = [];
    select =
      [
        group (a "t" "g");
        sum ~alias:"s" (a "t" "v");
        count_star ~alias:"c" ();
        avg ~alias:"av" (a "t" "v");
        max_ ~alias:"mx" (a "t" "v");
        count_distinct ~alias:"cd" (a "t" "lbl");
      ];
    tables = [ "t" ];
    locals = [];
    joins = [];
  }

let contribs ~v ~lbl =
  [|
    None;
    Some (VS.C_sum { amount = i v; n = 1 });
    Some (VS.C_count 1);
    Some (VS.C_sum { amount = i v; n = 1 });
    Some (VS.C_value (i v));
    Some (VS.C_value (s lbl));
  |]

let feed st key ~v ~lbl = VS.feed st ~key ~cnt:1 (contribs ~v ~lbl)
let unfeed st key ~v ~lbl = VS.unfeed st ~key ~cnt:1 (contribs ~v ~lbl)

let fresh () = VS.create view ~determined:false

let rows st = Relation.to_sorted_list (VS.render st)

(* DISTINCT is exact: nothing is ever pending for it *)
let no_dirt st = Alcotest.(check bool) "nothing dirty" false (VS.is_dirty_pending st)

let tests =
  [
    test "feed creates and accumulates CSMAS components" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"b";
        no_dirt st;
        Alcotest.(check int) "one group" 1 (VS.group_count st);
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "g" (i 1) r.(0);
          Alcotest.check value "sum" (i 30) r.(1);
          Alcotest.check value "count" (i 2) r.(2);
          Alcotest.check value "avg" (f 15.) r.(3);
          Alcotest.check value "max" (i 20) r.(4);
          Alcotest.check value "distinct" (i 2) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "unfeed reverses CSMAS components exactly" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        (* the deleted 20 was the MAX: group goes dirty *)
        Alcotest.(check bool) "dirty" true (VS.is_dirty_pending st);
        List.iter (fun k -> VS.set_value st ~key:k ~item:4 (i 10)) (VS.take_dirty st);
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "sum" (i 10) r.(1);
          Alcotest.check value "count" (i 1) r.(2);
          Alcotest.check value "max" (i 10) r.(4)
        | _ -> Alcotest.fail "expected one row");
    test "deleting a non-extremal value leaves the group clean" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        (* MAX unaffected, DISTINCT exact: nothing to recompute *)
        no_dirt st;
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "max intact" (i 20) r.(4);
          Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "DISTINCT counts base rows per value under deletion" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:1 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:2 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:3 ~lbl:"b";
        let distinct () =
          match rows st with
          | [ (r, 1) ] -> r.(5)
          | _ -> Alcotest.fail "expected one row"
        in
        Alcotest.check value "two labels" (i 2) (distinct ());
        (* one of the two "a" rows goes: "a" is still present *)
        unfeed st (row [ i 1 ]) ~v:1 ~lbl:"a";
        Alcotest.check value "still two" (i 2) (distinct ());
        VS.begin_txn st;
        unfeed st (row [ i 1 ]) ~v:2 ~lbl:"a";
        Alcotest.check value "a gone" (i 1) (distinct ());
        VS.rollback st;
        Alcotest.check value "rollback restores the multiset" (i 2) (distinct ());
        no_dirt st);
    test "set_value refuses an exactly maintained item" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:1 ~lbl:"a";
        match VS.set_value st ~key:(row [ i 1 ]) ~item:5 (i 9) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    test "changes_since names the keys of the last commit" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:1 ~lbl:"a";
        let s0 = VS.stamp st in
        Alcotest.(check bool) "same" true (VS.changes_since st s0 = `Same);
        VS.begin_txn st;
        feed st (row [ i 2 ]) ~v:1 ~lbl:"a";
        unfeed st (row [ i 1 ]) ~v:1 ~lbl:"a";
        VS.commit st;
        (match VS.changes_since st s0 with
        | `Keys ks ->
          Alcotest.(check (list tuple)) "both groups"
            [ row [ i 1 ]; row [ i 2 ] ]
            (List.sort Tuple.compare ks)
        | `Same | `All -> Alcotest.fail "expected the journal keys");
        Alcotest.(check bool) "visible row" true
          (VS.row_of_key st (row [ i 2 ]) <> None);
        Alcotest.(check bool) "vanished row" true
          (VS.row_of_key st (row [ i 1 ]) = None);
        let s1 = VS.stamp st in
        (* a rolled-back batch changes nothing; an untracked mutation
           makes the keys unknown; another state's stamp never matches *)
        VS.begin_txn st;
        feed st (row [ i 3 ]) ~v:1 ~lbl:"a";
        VS.rollback st;
        Alcotest.(check bool) "rollback" true (VS.changes_since st s1 = `Same);
        feed st (row [ i 3 ]) ~v:1 ~lbl:"a";
        Alcotest.(check bool) "untracked" true (VS.changes_since st s1 = `All);
        Alcotest.(check bool) "two versions back" true
          (VS.changes_since st s0 = `All);
        Alcotest.(check bool) "copy" true
          (VS.changes_since (VS.copy st) (VS.stamp st) = `All));
    test "group disappears at zero and forgets its dirt" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        Alcotest.(check int) "gone" 0 (VS.group_count st);
        Alcotest.(check (list (pair tuple int))) "no rows" [] (rows st);
        Alcotest.(check bool) "no dirt" false (VS.is_dirty_pending st));
    test "unfeed of missing group raises" (fun () ->
        let st = fresh () in
        match unfeed st (row [ i 9 ]) ~v:1 ~lbl:"a" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "unfeed underflow raises" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        match VS.unfeed st ~key:(row [ i 1 ]) ~cnt:5 (contribs ~v:10 ~lbl:"a") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "determined mode fixes DISTINCT at creation" (fun () ->
        let st = VS.create view ~determined:true in
        VS.feed st ~key:(row [ i 1 ]) ~cnt:1 (contribs ~v:10 ~lbl:"a");
        VS.feed st ~key:(row [ i 1 ]) ~cnt:1 (contribs ~v:20 ~lbl:"a");
        Alcotest.(check bool) "never dirty" false (VS.is_dirty_pending st);
        match rows st with
        | [ (r, 1) ] -> Alcotest.check value "distinct count" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "adjust_group shifts sums and moves keys" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        (* pretend a determined attribute moved from 10/20-base to +5 each:
           Shift_sum adds delta x n *)
        VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 2 ])
          [ (1, VS.Shift_sum (i 5)); (3, VS.Shift_sum (i 5)) ];
        (match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "new key" (i 2) r.(0);
          Alcotest.check value "sum shifted by 2x5" (i 40) r.(1)
        | _ -> Alcotest.fail "expected one row"));
    test "adjust_group rejects key collisions" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 2 ]) ~v:20 ~lbl:"a";
        ignore (VS.take_dirty st);
        match VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 2 ]) [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "set_value on a vanished group is a no-op" (fun () ->
        let st = fresh () in
        VS.set_value st ~key:(row [ i 7 ]) ~item:4 (i 0);
        Alcotest.(check int) "still empty" 0 (VS.group_count st));
    test "a re-created group renders its fresh components" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:5 ~lbl:"b";
        no_dirt st;
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "max" (i 5) r.(4);
          Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "fold_groups exposes base-row counts" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 2 ]) ~v:10 ~lbl:"a";
        let total = VS.fold_groups st (fun _ cnt acc -> acc + cnt) 0 in
        Alcotest.(check int) "total" 3 total);
  ]

let () = Alcotest.run "view_state" [ ("view_state", tests) ]
