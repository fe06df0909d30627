(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, as Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* The tail: the highest percentile that still has at least [beyond]
   samples above it, i.e. the sample at rank [n - beyond - 1] (0-based)
   of the sorted list. Returns (value, percentile, sample count); with
   fewer than [2 * beyond] samples there is no tail beyond the median and
   the median stands in for it. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 * beyond then (quantile a 0.5, 50., n)
  else
    let rank = n - beyond - 1 in
    (a.(rank), 100. *. float_of_int (rank + 1) /. float_of_int n, n)

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
