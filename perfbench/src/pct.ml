let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> invalid_arg "Pct.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Percentiles in tenths of a percent, so ranks are exact integers. *)
let rank ~n p10 = ((p10 * n) + 999) / 1000

let nearest_rank xs p10 =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  a.(max 0 (min (n - 1) (rank ~n p10 - 1)))

let ladder = [ 999; 990; 950; 900; 750 ]

let beyond ~n p10 = n - rank ~n p10

let tail_percentile ~n = List.find_opt (fun p10 -> beyond ~n p10 >= 10) ladder

let tail xs =
  match tail_percentile ~n:(List.length xs) with
  | Some p10 -> (float_of_int p10 /. 10., nearest_rank xs p10)
  | None -> (50., median xs)
