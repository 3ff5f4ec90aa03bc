(* Order statistics over latency samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [p]% of the samples at or below it. The slack
   keeps 99.9% of 10000 at rank 9990 despite rounding. *)
let rank n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

let percentile s p =
  let n = Array.length s in
  if n = 0 then Float.nan else s.(min n (rank n p) - 1)

let median a = percentile (sorted a) 50.0

let ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99; 99.999 ]

(* The highest percentile of [ladder] that still has at least ten
   samples beyond it, with its value; [None] below twenty samples. A
   p99 over 300 samples is decided by three of them, so it is not
   reported as if it were a p99. *)
let tail s =
  let n = Array.length s in
  List.fold_left
    (fun best p ->
       if n - rank n p >= 10 then Some (p, percentile s p) else best)
    None ladder
