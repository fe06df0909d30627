(* The serve phase: a server process runs [Serve.run] over the round's
   warehouse and commits one pre-generated batch per tick, while this
   process is a single client in a closed loop: [PIN], then [QUERY] of one
   view, each request sent only after the previous response arrived in
   full. The server lives in its own process so that its collections never
   stop the client (OCaml 5 minor collections stop every domain of a
   process at once). *)

(* --- the client ---------------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable bytes_in : int;
}

exception Protocol of string

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a wedged server must fail the run, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  { fd; buf = Bytes.create 65_536; pos = 0; len = 0; bytes_in = 0 }

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let read_line c =
  let line = Buffer.create 80 in
  let rec go () =
    if c.pos = c.len then begin
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then raise (Protocol "server closed the connection");
      c.pos <- 0;
      c.len <- n;
      c.bytes_in <- c.bytes_in + n
    end;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
      Buffer.add_subbytes line c.buf c.pos (i - c.pos);
      c.pos <- i + 1
    | _ ->
      Buffer.add_subbytes line c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      go ()
  in
  go ();
  Buffer.contents line

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* Lines of a counted body ("+HEAD k", k lines, "."). *)
let read_body c =
  let head = read_line c in
  match words head with
  | [ _; k ] -> (
    match int_of_string_opt k with
    | Some k ->
      let lines = List.init k (fun _ -> read_line c) in
      if read_line c <> "." then raise (Protocol "body without terminator");
      lines
    | None -> raise (Protocol ("bad body head " ^ head)))
  | _ -> raise (Protocol ("bad body head " ^ head))

type read = { seq : int; bytes : int; body : string }

(* One closed-loop read: PIN + QUERY. The rows received must number what
   the [+ROWS] head declares; [body] holds them as received, one per line,
   for the digest the run compares with the server's epoch. *)
let read_once c view =
  let before = c.bytes_in - (c.len - c.pos) in
  send c "PIN\n";
  (match words (read_line c) with
  | "+EPOCH" :: _ -> ()
  | _ -> raise (Protocol "PIN: no +EPOCH"));
  send c ("QUERY " ^ view ^ "\n");
  let head = read_line c in
  match words head with
  | [ "+ROWS"; n; _epoch; seq ] ->
    let n = int_of_string n and seq = int_of_string seq in
    ignore (read_line c);
    let body = Buffer.create 4096 in
    let rec count k =
      let l = read_line c in
      if String.equal l "." then k
      else begin
        Buffer.add_string body l;
        Buffer.add_char body '\n';
        count (k + 1)
      end
    in
    let got = count 0 in
    if got <> n then
      raise (Protocol (Printf.sprintf "+ROWS %d but %d rows received" n got));
    {
      seq;
      bytes = c.bytes_in - (c.len - c.pos) - before;
      body = Buffer.contents body;
    }
  | _ -> raise (Protocol head)

(* Seconds the server spent in requests, from the METRICS verb. *)
let server_request_seconds c =
  send c "METRICS\n";
  List.fold_left
    (fun acc line ->
      match Telemetry.Json.parse line with
      | Ok j
        when Telemetry.Json.(member "name" j |> Option.map to_string)
             = Some (Some "minview_serve_request_seconds") ->
        Option.bind (Telemetry.Json.member "sum" j) Telemetry.Json.to_float
        |> Option.value ~default:acc
      | _ -> acc)
    0. (read_body c)

(* --- the server process -------------------------------------------------- *)

type server_result = {
  tick_seconds : float list;  (** per committed tick, oldest first *)
  tick_rejected : int;
  ticks : int;  (** batches taken off the queue *)
  epochs : (int * string) list;
      (** (sequence number, digest of the read view) of every epoch
          served, newest first *)
  rss_kb : int;
      (** the server's peak resident set (VmHWM) once it has recovered the
          warehouse, before it serves *)
}

(* This process's peak resident set (VmHWM), in KiB. *)
let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d" Fun.id
        | Some _ -> scan ()
        | None -> 0
      in
      scan ())

(* A digest of rows as a [QUERY] response carries them: sorted, one line
   each, multiplicity first, tab-separated. *)
let rows_digest rows =
  let b = Buffer.create 4096 in
  List.iter
    (fun (tup, m) ->
      Buffer.add_string b
        (String.concat "\t"
           (string_of_int m :: List.map Relational.Value.to_string (Array.to_list tup)));
      Buffer.add_char b '\n')
    (Relational.Relation.to_sorted_list rows);
  Digest.to_hex (Digest.string (Buffer.contents b))

let view_digest ?snapshot wh view =
  rows_digest (snd (Warehouse.read_view ?snapshot wh view))

(* The server process: a fresh process of this executable, started with
   [--serve], that recovers the round's state directory, writes its port on
   standard output, commits one batch from [ticks_file] per tick while it
   serves, and on [SHUTDOWN] writes its result and exits. A fresh process
   rather than a fork: a fork would inherit the writer's heap, and its
   collector would copy those pages on write. It digests the read view of
   every epoch it publishes, after the tick's timed ingest. *)
let serve_main ~dir ~ticks_file ~view ~period ~seconds =
  let parent = Unix.getppid () in
  let batches : Relational.Delta.t list list =
    In_channel.with_open_bin ticks_file Marshal.from_channel
  in
  let wh = Warehouse.recover ~dir in
  Gc.full_major ();
  let rss_kb = vm_hwm_kb () in
  let srv = Serve.create ~port:0 wh in
  let deadline = Unix.gettimeofday () +. seconds +. 60. in
  let queue = ref batches and ticks = ref 0 in
  let seconds = ref [] and rejected = ref 0 in
  let digest () =
    let snapshot = Warehouse.current_snapshot wh in
    (Warehouse.snapshot_seq snapshot, view_digest ~snapshot wh view)
  in
  let epochs = ref [ digest () ] in
  let tick () =
    if Unix.getppid () <> parent || Unix.gettimeofday () > deadline then
      Serve.request_stop srv
    else
      match !queue with
      | b :: rest ->
        queue := rest;
        incr ticks;
        let t0 = Unix.gettimeofday () in
        let r = Warehouse.ingest_report wh b in
        seconds := (Unix.gettimeofday () -. t0) :: !seconds;
        rejected := !rejected + List.length r.Warehouse.rejected;
        epochs := digest () :: !epochs
      | [] -> ()
  in
  Printf.printf "%d\n%!" (Serve.port srv);
  Serve.run ~tick ~tick_period:period srv;
  Printf.printf "%d %d %d\n%s\n%s\n%!" !ticks !rejected rss_kb
    (String.concat " " (List.rev_map (Printf.sprintf "%.9f") !seconds))
    (String.concat " " (List.map (fun (s, d) -> Printf.sprintf "%d:%s" s d) !epochs))

let parse_result s =
  match String.split_on_char '\n' s with
  | head :: times :: epochs :: _ -> (
    match List.map int_of_string_opt (words head) with
    | [ Some ticks; Some tick_rejected; Some rss_kb ] ->
      Some
        {
          ticks;
          tick_rejected;
          rss_kb;
          tick_seconds = List.map float_of_string (words times);
          epochs =
            List.map
              (fun e -> Scanf.sscanf e "%d:%s" (fun s d -> (s, d)))
              (words epochs);
        }
    | _ -> None)
  | _ -> None

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

(* The first line the server writes, within [timeout] seconds. *)
let read_port fd ~timeout =
  let b = Buffer.create 16 and c = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [ _ ], _, _ -> (
        match Unix.read fd c 0 1 with
        | 0 -> None
        | _ when Bytes.get c 0 = '\n' -> int_of_string_opt (Buffer.contents b)
        | _ ->
          Buffer.add_bytes b c;
          go ())
      | _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type outcome = {
  latencies : float list;  (** seconds per read *)
  bytes : int list;  (** response bytes per read *)
  responses : (int * string) list;
      (** (sequence number, rows) of each run of reads of one epoch *)
  mismatched : int;  (** reads whose rows differ from the previous read of their epoch *)
  errors : int;
  busy_s : float;  (** client loop wall time *)
  server : server_result;
  request_s : float;  (** server time in requests; 0 unless [metrics] *)
}

(* [run] starts the server over the state directory [dir] and reads
   [view] for [seconds]. [metrics] asks the server for its request
   histogram at the end. Consecutive reads of one epoch must carry the
   same rows; one copy of each epoch's rows is kept, for the caller to
   compare with the server's digest of that epoch. *)
let run ~dir ~ticks_file ~view ~period ~seconds ~metrics =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| Sys.executable_name; "--serve"; dir; "--ticks"; ticks_file; "--view"; view;
       "--period"; Printf.sprintf "%.17g" period;
       "--seconds"; Printf.sprintf "%.17g" seconds |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out_r;
      if not !finished then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let c =
        match read_port out_r ~timeout:120. with
        | Some port -> connect port
        | None -> failwith "the server process did not start"
      in
      let latencies = ref [] and bytes = ref [] and errors = ref 0 in
      let responses = ref [] and mismatched = ref 0 in
      let t_start = Unix.gettimeofday () in
      let t_end = t_start +. seconds in
      let now = ref t_start in
      while !now < t_end do
        let t0 = !now in
        (match read_once c view with
        | r -> (
          bytes := r.bytes :: !bytes;
          match !responses with
          | (seq, body) :: _ when seq = r.seq ->
            if not (String.equal body r.body) then incr mismatched
          | _ -> responses := (r.seq, r.body) :: !responses)
        | exception (Protocol _ | Failure _) -> incr errors);
        now := Unix.gettimeofday ();
        latencies := (!now -. t0) :: !latencies
      done;
      let busy_s = !now -. t_start in
      let request_s = if metrics then server_request_seconds c else 0. in
      send c "SHUTDOWN\n";
      ignore (read_line c);
      Unix.close c.fd;
      let result = read_all out_r in
      let _, status = Unix.waitpid [] pid in
      finished := true;
      let server =
        match (status, parse_result result) with
        | Unix.WEXITED 0, Some r -> r
        | _ -> failwith "the server process failed"
      in
      {
        latencies = List.rev !latencies;
        bytes = !bytes;
        responses = !responses;
        mismatched = !mismatched;
        errors = !errors;
        busy_s;
        server;
        request_s;
      })
