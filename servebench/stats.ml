(* Order statistics over float samples. *)

(* Nearest-rank percentile, [p] in (0, 1]; 0.0 on no samples. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* [num /. den], 0.0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let mean xs = if xs = [||] then 0.0 else sum xs /. float_of_int (Array.length xs)

(* The mean of the middle half (a quarter dropped at each end, rounded
   down); 0.0 on no samples. *)
let mid_mean xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let d = n / 4 in
  mean (Array.sub s d (n - (2 * d)))
