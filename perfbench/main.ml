(* End-to-end and per-layer benchmark of the minview warehouse.

   Usage (from the repository root, through perfbench/run.sh):
     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --all --seed N --seconds S        every workload, two tables
     perfbench --selfcheck --seed N --seconds S  do the count metrics repeat?

   A run sets the workload's warehouse up, ingests a few batches and copies
   the state directory as the recovery fixture: a snapshot plus a fixed WAL
   tail. Then it measures in rounds until [--seconds] have passed. Each
   round recovers fresh copies of the fixture (recovery samples), takes
   checkpoints (checkpoint samples), runs the closed-loop writer over the
   workload's pre-generated batches, and serves reads from a server process
   that commits one pre-generated batch per tick. Every round starts from
   the same state with the same inputs, so the samples of all rounds are
   alike and spread over the whole run; every round after the first also
   times one more set-up. All inputs are generated from the seed before
   the rounds begin. Correctness is checked outside the timed calls.

   The last line of standard output is one JSON object: the end-to-end
   metrics ([--trace 0]), or the per-layer metrics of a run that wraps
   each layer call in a span ([--trace 1]). *)

module Relation = Relational.Relation
module Validator = Relational.Validator
module Engines = Maintenance.Engines
module Metrics = Telemetry.Metrics

let work_root = ".perfbench"
let max_setups = 6
let fixture_batches = 3

(* A round recovers until [recover_seconds] are spent, and then
   checkpoints until [checkpoint_seconds] are (at most [max_calls] calls
   each); every call is a sample. A 150 ms checkpoint gets as many samples
   as fit where a 1 s recovery gets three. *)
let recover_seconds = 2.5
let checkpoint_seconds = 1.5
let max_calls = 8

(* the first batches of a traced run, over which the count metrics are
   taken so that they repeat exactly for one seed *)
let count_prefix = 4

let now = Unix.gettimeofday

(* --- files --------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Sys.mkdir p 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65_536 in
  let rec go () =
    match input ic buf 0 65_536 with
    | 0 -> ()
    | n ->
      output oc buf 0 n;
      go ()
  in
  go ();
  close_in ic;
  close_out oc

(* --- telemetry readings -------------------------------------------------- *)

(* The registry figures the traced run reads around layer calls, from one
   snapshot: (view-update seconds, WAL fsync seconds, WAL bytes written). *)
let readings () =
  let snap = Telemetry.snapshot () in
  let find name labels =
    List.find_map
      (fun (s : Metrics.snap) ->
        if String.equal s.s_name name && s.s_labels = labels then Some s.s_value
        else None)
      snap
  in
  let sum name labels =
    match find name labels with Some (Metrics.Histogram_v h) -> h.h_sum | _ -> 0.
  in
  ( sum "minview_engine_phase_seconds" [ ("phase", "view-update") ],
    sum "minview_wal_fsync_seconds" [],
    match find "minview_wal_bytes_written_total" [] with
    | Some (Metrics.Counter_v v) -> v
    | _ -> 0 )

(* --- accounting ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail n what =
  failed := !failed + n;
  failures := what :: !failures

let check what ok =
  incr attempted;
  if not ok then fail 1 what

let note_report (r : Warehouse.report) ~submitted =
  attempted := !attempted + submitted;
  match List.length r.rejected with
  | 0 -> ()
  | n -> fail n (Printf.sprintf "%d deltas rejected" n)

(* --- the traced pipeline ------------------------------------------------- *)

(* The traced run puts each batch through the public calls that
   [Warehouse.ingest] makes, on a shadow validator and shadow engines built
   from the same state, each call inside a span; then through
   [Warehouse.ingest] itself, whose time is the traced ingest time. WAL
   figures come from the warehouse's own [minview_wal_*] metrics. *)
type shadow = {
  validator : Validator.t;
  engines : Engines.t list;
  mutable prev : Relation.t list;  (** the previous capture, per view *)
}

let shadow_of views wh =
  let source = Warehouse.believed_source wh in
  let engines = List.map (Engines.minimal source) views in
  {
    validator = Validator.of_database source;
    engines;
    prev = List.map Engines.capture engines;
  }

(* Rows of the epoch [next] that the epoch [prev] did not hold: a group
   whose aggregates moved is a new row. *)
let changed_rows ~prev next =
  Relation.fold
    (fun t m acc -> if Relation.multiplicity prev t = m then acc else acc + 1)
    next 0

let traced_batch sh wh ~id batch : Report.layer =
  Spans.batch := id;
  let (layer, caps), _ =
    Spans.with_span "batch" (fun () ->
        let (accepted, rejected), admit_s =
          Spans.with_span "validator.admit" (fun () ->
              Validator.begin_txn sh.validator;
              let ok, bad =
                List.partition_map
                  (fun d ->
                    match Validator.admit sh.validator d with
                    | Ok d -> Left d
                    | Error r -> Right r)
                  batch
              in
              Validator.commit sh.validator;
              (ok, List.length bad))
        in
        let vu0, _, _ = readings () in
        let apply_s =
          Spans.time "engines.apply" (fun () ->
              List.iter Engines.begin_txn sh.engines;
              List.iter (fun e -> Engines.apply_batch e accepted) sh.engines;
              List.iter Engines.commit sh.engines)
        in
        let vu1, fsync0, bytes0 = readings () in
        let caps, capture_s =
          Spans.with_span "engines.capture" (fun () ->
              List.map Engines.capture sh.engines)
        in
        let alloc0 = Gc.allocated_bytes () in
        let report, ingest_s =
          Spans.with_span "warehouse.ingest" (fun () ->
              Warehouse.ingest_report wh batch)
        in
        let alloc = Gc.allocated_bytes () -. alloc0 in
        let _, fsync1, bytes1 = readings () in
        note_report report ~submitted:(List.length batch);
        let deltas_in, applied_ops =
          List.fold_left
            (fun (i, a) e ->
              match Engines.last_flow e with
              | Some f -> (i + f.Telemetry.Lineage.deltas_in, a + f.applied)
              | None -> (i, a))
            (0, 0) sh.engines
        in
        ( {
            Report.admit_s;
            rejected;
            apply_s;
            view_update_s = vu1 -. vu0;
            deltas_in;
            applied_ops;
            capture_s;
            capture_rows = 0;
            changed_rows = 0;
            ingest_s;
            fsync_s = fsync1 -. fsync0;
            wal_bytes = bytes1 - bytes0;
            deltas = List.length batch;
            alloc;
          },
          caps ))
  in
  Spans.batch := -1;
  (* the useful share of the capture is counted outside the spans *)
  let changed =
    List.fold_left2 (fun a prev next -> a + changed_rows ~prev next) 0 sh.prev caps
  in
  sh.prev <- caps;
  {
    layer with
    capture_rows = List.fold_left (fun a r -> a + Relation.distinct_cardinality r) 0 caps;
    changed_rows = changed;
  }

(* [shard.parallel_speedup]: serial [Engines.apply_batch] time over
   2-domain [?parallel] time on one batch, each inside a transaction that
   is rolled back. Measured in a forked process, with every CPU: the
   pool's resident domains would forbid this process's later forks. *)
let shard_speedup sh batch =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (* the run is pinned to one CPU: give the pool every CPU back *)
    let cpus =
      try In_channel.with_open_text "/sys/devices/system/cpu/online" input_line
      with Sys_error _ | End_of_file -> "0-1"
    in
    (try
       let pid =
         Unix.create_process "taskset"
           [| "taskset"; "-pc"; cpus; string_of_int (Unix.getpid ()) |]
           Unix.stdin Unix.stderr Unix.stderr
       in
       ignore (Unix.waitpid [] pid)
     with Unix.Unix_error _ -> ());
    let pool = Maintenance.Shard.create ~domains:2 in
    let timed parallel =
      List.iter Engines.begin_txn sh.engines;
      let t0 = now () in
      List.iter (fun e -> Engines.apply_batch ?parallel e batch) sh.engines;
      let dt = now () -. t0 in
      List.iter Engines.rollback sh.engines;
      dt
    in
    let serial = ref [] and par = ref [] in
    for _ = 1 to 5 do
      serial := timed None :: !serial;
      par := timed (Some pool) :: !par
    done;
    let s = Printf.sprintf "%.9f" (Stats.median !serial /. Stats.median !par) in
    ignore (Unix.write_substring w s 0 (String.length s));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let out = Serve_phase.read_all r in
    Unix.close r;
    ignore (Unix.waitpid [] pid);
    Option.value (float_of_string_opt out) ~default:Float.nan

(* A durability call, timed from a settled heap, so that it does not pay
   for collecting the call before it (the collection untimed). A pass of
   the reference task before it ([ref_before]: the pass after the call
   before) and one after it give the host's memory speed of the moment.
   Returns the call's result, its seconds, its time over the mean of the
   two passes, and the pass after it. *)
let against_reference ref_before f =
  Gc.full_major ();
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let ref_after = Reference.time () in
  (x, dt, dt /. ((ref_before +. ref_after) /. 2.), ref_after)

(* --- set-up ---------------------------------------------------------------- *)

(* Load the retail store, register the workload's views, attach the state
   directory (which takes the initial checkpoint), read every view once and
   settle the heap. *)
let setup (spec : Gen.spec) ~seed ~dir =
  let t0 = now () in
  let db = Workload.Retail.load { spec.params with seed } in
  let wh = Warehouse.create db in
  List.iter (Warehouse.add_view wh) spec.views;
  Warehouse.attach wh ~dir;
  List.iter (fun v -> ignore (Warehouse.query wh v.Algebra.View.name)) spec.views;
  Gc.full_major ();
  (db, wh, now () -. t0)

let views_sorted wh =
  List.map (fun n -> (n, Warehouse.query_sorted wh n)) (Warehouse.view_names wh)

(* (view state bytes, auxiliary view bytes), summed over views *)
let stored_bytes wh =
  List.fold_left
    (fun (view_b, aux_b) (_, objects) ->
      match objects with
      | (_, v) :: aux -> (view_b + v, List.fold_left (fun a (_, b) -> a + b) aux_b aux)
      | [] -> (view_b, aux_b))
    (0, 0) (Warehouse.measured_bytes wh)

let fixture_files = [ "snapshot.bin"; "wal.bin"; "workload_profile.json" ]

let copy_state ~src ~dst =
  mkdir_p dst;
  List.iter
    (fun f ->
      let s = Filename.concat src f in
      if Sys.file_exists s then copy_file s (Filename.concat dst f))
    fixture_files

(* The serve phase of a round. The rows of every response must be those of
   the server's epoch at the sequence number the response names: their
   digest must equal the one the server took of that epoch. Returns the
   server's result. *)
let serve_round (spec : Gen.spec) (s : Report.samples) ~dir ~ticks_file ~ingest
    ~ingest_applied ~trace =
  let out =
    Serve_phase.run ~dir ~ticks_file ~view:spec.read_view ~period:spec.tick_period
      ~seconds:spec.serve_seconds ~metrics:trace
  in
  let sv = out.server in
  s.rounds <-
    {
      Report.ingest;
      ingest_applied;
      ticks = sv.tick_seconds;
      reads = out.latencies;
      read_busy = out.busy_s;
      server_rss_kb = sv.rss_kb;
    }
    :: s.rounds;
  s.read_bytes <- out.bytes @ s.read_bytes;
  s.request_s <- s.request_s +. out.request_s;
  attempted := !attempted + List.length out.latencies;
  if out.errors > 0 then fail out.errors (Printf.sprintf "%d failed reads" out.errors);
  if sv.tick_rejected > 0 then
    fail sv.tick_rejected (Printf.sprintf "%d tick deltas rejected" sv.tick_rejected);
  let wrong =
    out.mismatched
    + List.length
        (List.filter
           (fun (seq, body) ->
             List.assoc_opt seq sv.epochs <> Some (Digest.to_hex (Digest.string body)))
           out.responses)
  in
  if wrong > 0 then fail wrong (Printf.sprintf "%d responses disagree with their epoch" wrong);
  sv

(* The final gate, on the last round's warehouse (detached from the state
   directory the server used): replay the ticks the server committed; the
   read view must match the server's final epoch, and every view's epoch
   must equal [Algebra.Eval] over the believed source. *)
let final_gate (spec : Gen.spec) wh ~ticks (sv : Serve_phase.server_result) =
  List.iteri
    (fun i b -> if i < sv.ticks then note_report (Warehouse.ingest_report wh b) ~submitted:0)
    ticks;
  check "the server's final epoch matches a replay of its ticks"
    (match sv.epochs with
    | (_, digest) :: _ -> String.equal digest (Serve_phase.view_digest wh spec.read_view)
    | [] -> false);
  let source = Warehouse.believed_source wh in
  List.iter
    (fun v ->
      check
        ("epoch = Eval over the believed source: " ^ v.Algebra.View.name)
        (Relation.equal (Algebra.Eval.eval source v)
           (snd (Warehouse.query wh v.Algebra.View.name))))
    spec.views

(* --- one run ------------------------------------------------------------- *)

let run (spec : Gen.spec) ~seed ~seconds ~trace =
  let work = Printf.sprintf "%s/%s-%d" work_root spec.name (Unix.getpid ()) in
  rm_rf work;
  mkdir_p work;
  let dir name = Filename.concat work name in
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let s = Report.samples () in
  let db, wh, dt = setup spec ~seed ~dir:(dir "state") in
  s.setup <- [ dt ];
  (* every input of the run, generated before anything is timed *)
  let gen = Gen.create spec ~seed db in
  let fixture_input = List.init fixture_batches (fun _ -> Gen.writer_batch gen) in
  let writer_input = List.init spec.writer_batches (fun _ -> Gen.writer_batch gen) in
  (* the shard probe's batch, valid after the writer's *)
  let spare = Gen.writer_batch gen in
  let ticks =
    List.init
      (int_of_float (spec.serve_seconds /. spec.tick_period *. 1.3) + 5)
      (fun _ -> Gen.tick_batch gen)
  in
  let ticks_file = dir "ticks.bin" in
  Out_channel.with_open_bin ticks_file (fun oc -> Marshal.to_channel oc ticks []);
  (* the recovery fixture *)
  List.iter
    (fun b -> note_report (Warehouse.ingest_report wh b) ~submitted:(List.length b))
    fixture_input;
  let fixture = dir "fixture" in
  copy_state ~src:(dir "state") ~dst:fixture;
  let fixture_views = views_sorted wh in
  let view_b, aux_b = stored_bytes wh in
  let facts = Relational.Database.row_count (Warehouse.believed_source wh) "sale" in
  Warehouse.close wh;
  let t_end = now () +. seconds in
  let round = ref 0 and last = ref false and shadow = ref None in
  while not !last do
    let r = !round and t_round = now () in
    incr round;
    if r > 0 && List.length s.setup < max_setups then begin
      let d = dir "setup" in
      let _, wh, dt = setup spec ~seed ~dir:d in
      s.setup <- dt :: s.setup;
      Warehouse.close wh;
      rm_rf d
    end;
    let d = dir (Printf.sprintf "round%d" r) in
    if trace then begin
      copy_state ~src:fixture ~dst:d;
      Gc.full_major ();
      let t0 = now () in
      ignore (Sys.opaque_identity (Warehouse.load (Filename.concat d "snapshot.bin")));
      s.load <- (now () -. t0) :: s.load
    end;
    (* Recovery samples: fresh copies of the fixture (copied untimed); the
       last recovery is the round's warehouse. *)
    let rec recover_calls spent n ref_before =
      rm_rf d;
      copy_state ~src:fixture ~dst:d;
      let wh, dt, rel, ref_after =
        against_reference ref_before (fun () -> Warehouse.recover ~dir:d)
      in
      s.recover <- dt :: s.recover;
      s.recover_rel <- rel :: s.recover_rel;
      check "recovery reproduces the fixture's views" (views_sorted wh = fixture_views);
      if n < max_calls && spent +. dt < recover_seconds then begin
        Warehouse.close wh;
        recover_calls (spent +. dt) (n + 1) ref_after
      end
      else (wh, ref_after)
    in
    let wh, ref_after = recover_calls 0. 1 (Reference.time ()) in
    let rec checkpoint_calls spent n ref_before =
      let (), dt, rel, ref_after =
        against_reference ref_before (fun () -> Warehouse.checkpoint wh)
      in
      s.checkpoint <- dt :: s.checkpoint;
      s.checkpoint_rel <- rel :: s.checkpoint_rel;
      if n < max_calls && spent +. dt < checkpoint_seconds then
        checkpoint_calls (spent +. dt) (n + 1) ref_after
    in
    checkpoint_calls 0. 1 ref_after;
    s.snapshot_bytes <- (Unix.stat (Filename.concat d "snapshot.bin")).Unix.st_size;
    Gc.full_major ();
    (* The closed-loop writer. A traced run traces the writer of every
       other round only; the rounds between give the untraced ingest time
       that the tracing overhead is measured against. *)
    let ingest = ref [] and ingest_applied = ref 0 in
    if trace && r mod 2 = 0 then begin
      let sh = shadow_of spec.views wh in
      shadow := Some sh;
      List.iteri
        (fun i b -> s.layers <- traced_batch sh wh ~id:((r * 1000) + i) b :: s.layers)
        writer_input;
      (* a read_view call takes about a microsecond, the clock's
         resolution: a sample is the mean of as many calls as fill 5 ms *)
      let per_call name f =
        let n = ref 0 in
        let dt =
          Spans.time name (fun () ->
              let t0 = now () in
              while now () -. t0 < 0.005 do
                f ();
                incr n
              done)
        in
        dt /. float_of_int !n
      in
      let rows = snd (Warehouse.read_view wh spec.read_view) in
      for _ = 1 to 20 do
        s.read_view <-
          per_call "warehouse.read_view" (fun () ->
              ignore (Warehouse.read_view wh spec.read_view))
          :: s.read_view;
        s.sort <-
          per_call "relation.sort" (fun () -> ignore (Relation.to_sorted_list rows))
          :: s.sort
      done
    end
    else
      List.iter
        (fun b ->
          let t0 = now () in
          let rep = Warehouse.ingest_report wh b in
          ingest := (now () -. t0) :: !ingest;
          ingest_applied := !ingest_applied + rep.applied;
          note_report rep ~submitted:(List.length b))
        writer_input;
    (* hand the state directory over to the server: the writer's batches
       go into a snapshot, so the server's recovery is a plain load *)
    Warehouse.checkpoint wh;
    Warehouse.close wh;
    let sv =
      serve_round spec s ~dir:d ~ticks_file ~ingest:(List.rev !ingest)
        ~ingest_applied:!ingest_applied ~trace
    in
    (* Stop where another round would end more than half a round past the
       deadline. A run has at least two rounds: a traced run traces one and
       measures the other untraced. *)
    last := r >= 1 && now () +. (0.5 *. (now () -. t_round)) >= t_end;
    if !last then final_gate spec wh ~ticks sv;
    rm_rf d
  done;
  let shard =
    match !shadow with Some sh -> shard_speedup sh spare | None -> Float.nan
  in
  let metrics =
    if trace then Report.per_layer s ~view_b ~aux_b ~shard ~fixture_batches ~count_prefix
    else
      Report.end_to_end s
        ~bytes_per_fact:(float_of_int (view_b + aux_b) /. float_of_int facts)
  in
  if trace then begin
    let path = Printf.sprintf "%s/trace-%s-seed%d.jsonl" work_root spec.name seed in
    Spans.write path;
    Printf.printf "spans: %s (%d spans)\n" path (List.length !Spans.spans)
  end;
  metrics

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --all|--selfcheck --seed N --seconds S";
  exit 2

let () =
  (* a server that dies mid-response must fail a read, not this process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse acc = function
    | (("--all" | "--selfcheck") as k) :: rest -> parse ((k, "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k opts in
  let int k default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int "--seed" 1 in
  let seconds () =
    let n = int "--seconds" 10 in
    if n < 1 then usage () else n
  in
  let float k = Option.bind (get k) float_of_string_opt in
  match (get "--serve", get "--workload", get "--all", get "--selfcheck") with
  | Some dir, None, None, None -> (
    match (get "--ticks", get "--view", float "--period", float "--seconds") with
    | Some ticks_file, Some view, Some period, Some seconds ->
      Serve_phase.serve_main ~dir ~ticks_file ~view ~period ~seconds
    | _ -> usage ())
  | None, Some name, None, None -> (
    let trace =
      match get "--trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage ()
    in
    match Gen.find name with
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ name);
      exit 2
    | Some spec ->
      let metrics = run spec ~seed ~seconds:(float_of_int (seconds ())) ~trace in
      Report.print metrics ~attempted:!attempted ~failed:!failed
        ~failures:(List.rev !failures);
      exit (if !failed = 0 then 0 else 1))
  | None, None, Some _, None -> Suite.all ~seed ~seconds:(seconds ())
  | None, None, None, Some _ -> Suite.selfcheck ~seed ~seconds:(seconds ())
  | _ -> usage ()
