(* Order statistics for benchmark samples.

   [quantiles] reproduces Python's [statistics.quantiles(data, n=n)] with
   its default "exclusive" method, so the spread the benchmark reports
   and the spread an external checker computes from the same values
   agree to the last digit. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let quantiles ?(n = 4) xs =
  let d = sorted xs in
  let ld = Array.length d in
  if n < 1 then invalid_arg "Stats.quantiles: n must be at least 1";
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n)

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | [ x ] -> x
  | _ ->
      let d = sorted xs in
      let l = Array.length d in
      if l mod 2 = 1 then d.(l / 2) else (d.((l / 2) - 1) +. d.(l / 2)) /. 2.0

(* The 90th percentile is reported only when at least ten samples lie
   beyond it, i.e. from 100 samples on. *)
let p90 xs =
  if List.length xs < 100 then None
  else Some (List.nth (quantiles ~n:10 xs) 8)
