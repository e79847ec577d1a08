type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t n =
  assert (n > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let float t x =
  (* 53 random mantissa bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let split t = { state = bits64 t }

(* [float t 1.0] is exactly [b /. 2^53] with [b] the top 53 bits of
   [bits64] — both the division by a power of two and the multiplication
   by 1.0 are exact — so [bernoulli t p  ≡  b < p·2^53] over the reals.
   With [b] an integer, [b < p·2^53  ≡  b < ceil (p·2^53)], an integer
   comparison. [p·2^53] itself is exact (scaling a float by a power of
   two only moves its exponent), hence so is its ceiling. *)
let bernoulli_threshold p =
  let t = Float.ceil (p *. 9007199254740992.0) in
  if t <= 0.0 then 0
  else if t >= float_of_int max_int then max_int
  else int_of_float t

let fill_bernoulli_lanes t ~thresholds ~lanes ~into =
  if lanes < 1 || lanes > 63 then invalid_arg "Rng.fill_bernoulli_lanes: lanes not in 1..63";
  let n = Array.length thresholds in
  if Array.length into < n then invalid_arg "Rng.fill_bernoulli_lanes: into too short";
  Array.fill into 0 n 0;
  (* The stream is a pure function of the starting state: draw [j]
     (1-based) mixes [s0 + j·γ]. Keeping the per-draw state as a
     let-bound chain (instead of threading [t.state] through the loop)
     lets the compiler keep every intermediate int64 unboxed, which is
     what makes this the fast path of the bit-parallel simulator. *)
  let s0 = t.state in
  let j = ref 0 in
  for lane = 0 to lanes - 1 do
    let bit = 1 lsl lane in
    for k = 0 to n - 1 do
      incr j;
      let z = Int64.add s0 (Int64.mul (Int64.of_int !j) golden_gamma) in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
      let z = Int64.logxor z (Int64.shift_right_logical z 31) in
      let b = Int64.to_int (Int64.shift_right_logical z 11) in
      if b < Array.unsafe_get thresholds k then
        Array.unsafe_set into k (Array.unsafe_get into k lor bit)
    done
  done;
  t.state <- Int64.add s0 (Int64.mul (Int64.of_int !j) golden_gamma)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
