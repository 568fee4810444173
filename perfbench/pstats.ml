(* Summary statistics over raw samples.  Every quantile the benchmark
   reports comes from here, computed from the samples themselves (never
   from histogram bucket bounds), and is reported with its sample count. *)

(* Linear interpolation between closest ranks (Hyndman-Fan type 7, the
   default of R and NumPy): q = 0 is the minimum, q = 1 the maximum. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let h = Float.max 0. (Float.min 1. q) *. float_of_int (n - 1) in
      let i = int_of_float h in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
