(* [--all] and [--selfcheck]: run this executable once per workload and
   mode, one run at a time, and read back the JSON line each run prints
   last. *)

module Json = Telemetry.Json

let run_self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Serve_phase.read_all r in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> Result.to_option (Json.parse l)
    | [] -> None
  in
  (status = Unix.WEXITED 0, last)

let metrics j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        match (Option.bind (Json.member "value" v) Json.to_float,
               Option.bind (Json.member "unit" v) Json.to_string) with
        | Some x, Some u -> Some (k, (x, u))
        | _ -> None)
      kvs
  | _ -> []

let run_workload (spec : Gen.spec) ~seed ~seconds ~trace =
  run_self
    [ "--workload"; spec.name; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") ]

(* One table per mode: a row per metric, a column per workload. *)
let table title results =
  Printf.printf "\n%s\n%-34s" title "metric";
  List.iter (fun ((s : Gen.spec), _) -> Printf.printf " %18s" s.name) results;
  print_newline ();
  let names =
    List.concat_map (fun (_, ms) -> List.map fst ms) results
    |> List.sort_uniq compare
  in
  List.iter
    (fun n ->
      let unit = ref "" in
      Printf.printf "%-34s" n;
      List.iter
        (fun (_, ms) ->
          match List.assoc_opt n ms with
          | Some (v, u) ->
            unit := u;
            Printf.printf " %18.4f" v
          | None -> Printf.printf " %18s" "-")
        results;
      Printf.printf "  %s\n" !unit)
    names

let all ~seed ~seconds =
  let ok = ref true in
  let go trace =
    List.map
      (fun spec ->
        let fine, j = run_workload spec ~seed ~seconds ~trace in
        if not fine then ok := false;
        (spec, Option.fold ~none:[] ~some:metrics j))
      Gen.all
  in
  let e2e = go false in
  let traced = go true in
  table "end-to-end (trace 0)" e2e;
  table "per-layer (trace 1)" traced;
  if not !ok then begin
    print_endline "FAILED: a run failed its correctness gate or did not finish";
    exit 1
  end

(* The count metrics must repeat exactly across two runs with one seed;
   a difference means the workload is not deterministic. *)
let selfcheck ~seed ~seconds =
  let counts = [
    (false, "stored_bytes_per_fact_row");
    (true, "warehouse.alloc_bytes_per_batch");
    (true, "wal.bytes_per_delta");
  ] in
  let bad = ref 0 in
  List.iter
    (fun (spec : Gen.spec) ->
      List.iter
        (fun trace ->
          let pick () =
            match run_workload spec ~seed ~seconds ~trace with
            | true, Some j -> metrics j
            | _ -> []
          in
          let a = pick () and b = pick () in
          List.iter
            (fun (t, name) ->
              if t = trace then
                match (List.assoc_opt name a, List.assoc_opt name b) with
                | Some (x, _), Some (y, _) when x = y ->
                  Printf.printf "%-18s %-34s repeats: %.17g\n" spec.name name x
                | Some (x, _), Some (y, _) ->
                  incr bad;
                  Printf.printf "%-18s %-34s DIFFERS: %.17g vs %.17g\n" spec.name name x y
                | _ ->
                  incr bad;
                  Printf.printf "%-18s %-34s MISSING\n" spec.name name)
            counts)
        [ false; true ])
    Gen.all;
  exit (if !bad = 0 then 0 else 1)
