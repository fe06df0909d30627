(* Spans recorded by the traced run, from the benchmark's own code around
   each call into a layer. Kept in memory and written out as JSONL when the
   run ends, so recording costs two clock reads and one small allocation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  batch : int;  (** the batch the span belongs to; -1 outside batches *)
  start_s : float;
  stop_s : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let batch = ref (-1)

(* [with_span name f] runs [f] inside a span; returns [f]'s result and the
   span's duration in seconds. *)
let with_span name f =
  incr next_id;
  let id = !next_id and parent = !current in
  current := id;
  let start_s = Unix.gettimeofday () in
  let finish () =
    let stop_s = Unix.gettimeofday () in
    current := parent;
    spans := { id; name; parent; batch = !batch; start_s; stop_s } :: !spans;
    stop_s -. start_s
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let time name f = snd (with_span name f)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"batch\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.parent s.batch s.start_s s.stop_s)
    (List.rev !spans);
  close_out oc
