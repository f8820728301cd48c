(* Order statistics for repeated host-clock samples.  Every summary
   carries its sample count, so a reader can tell a median of three
   from a median of thirty. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), integer arithmetic included, so the
   spread reported here is the spread a Python reader recomputes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

type tail = {
  pct : float; (* the percentile reported, e.g. 90. *)
  value : float;
  n : int; (* samples the percentile was taken over *)
}

(* The highest percentile with at least 10 samples above it: the sample
   of rank [n - 10].  [None] when there are not more than 10 samples — a
   tail needs something beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None
  else
    let k = n - 10 in
    Some
      { pct = 100. *. float_of_int k /. float_of_int n; value = a.(k - 1); n }
