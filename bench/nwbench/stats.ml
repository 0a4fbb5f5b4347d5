(* Sample statistics shared by every workload.

   Quartiles follow Python's statistics.quantiles(data, n=4) (the
   default "exclusive" method), so a spread printed here is the same
   number an external script computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* statistics.quantiles(n=4, method="exclusive") on a sorted array of
   at least two values *)
let quartiles_sorted a =
  let n = Array.length a in
  let m = n + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0)
    [ 1; 2; 3 ]

let median xs =
  match sorted xs with
  | [||] -> nan
  | [| x |] -> x
  | a -> List.nth (quartiles_sorted a) 1

(* (Q3 - Q1) / median: the run-to-run spread a bound is checked
   against. Zero for fewer than two values. *)
let spread xs =
  match sorted xs with
  | [||] | [| _ |] -> 0.0
  | a -> (
      match quartiles_sorted a with
      | [ q1; q2; q3 ] when q2 <> 0.0 -> (q3 -. q1) /. Float.abs q2
      | _ -> 0.0)

(* The highest percentile with at least ten samples beyond it, with the
   percentile it sits at. With fewer than eleven samples no percentile
   qualifies and the maximum is reported (at percentile 100). *)
let tail xs =
  match sorted xs with
  | [||] -> (nan, 0.0)
  | a ->
      let n = Array.length a in
      if n < 11 then (a.(n - 1), 100.0)
      else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* nearest-rank value at percentile [q] (0..100) *)
let at_level xs q =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Split a time-ordered sample stream into [k] consecutive segments, so
   a statistic's spread can be estimated from one run. *)
let segments k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < k then [ xs ]
  else
    List.init k (fun i ->
        Array.to_list (Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k))))
