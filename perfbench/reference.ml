(* A fixed reference task, timed beside each checkpoint and recovery.

   On the 2-vCPU VM this was tuned on, recovery and checkpoint times
   drifted by up to 1.6x between runs, in phases that could last a whole
   run, while a pure CPU loop stayed within 10%: what drifts is the host's
   memory speed. Checkpoint (marshal the state) and recovery (unmarshal a
   snapshot, rebuild hash tables and columns) are memory-bound, and so is
   this task: it unmarshals a fixed table of 100,000 entries and rehashes
   it into another. It calls nothing of the warehouse, so a change to the
   program cannot move it. Over five runs of churn_large_state, the median
   recovery time spread 0.23 (IQR over median), and the mean of its ratio
   to the mean time of this task run just before and just after it 0.02. *)

let entries = 100_000

let blob =
  lazy
    (let h = Hashtbl.create entries in
     for i = 0 to entries - 1 do
       Hashtbl.replace h i (string_of_int i, float_of_int i)
     done;
     Marshal.to_string h [])

(* Seconds one pass takes, from a settled heap. *)
let time () =
  let blob = Lazy.force blob in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let h : (int, string * float) Hashtbl.t = Marshal.from_string blob 0 in
  let h2 = Hashtbl.create 16 in
  Hashtbl.iter (fun k (s, f) -> Hashtbl.replace h2 (s ^ "x") (k, f)) h;
  ignore (Sys.opaque_identity h2);
  Unix.gettimeofday () -. t0
