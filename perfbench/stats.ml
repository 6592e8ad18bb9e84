(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile (sorted xs) 50.

let above a v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

(* A percentile is reported only when at least [min_above] samples lie
   strictly above it, so that it is set by more than a few outliers. *)
let min_above = 10

let enough a p = Array.length a > 0 && above a (percentile a p) >= min_above
