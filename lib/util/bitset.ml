type t = {
  words : Bytes.t; (* packed little-endian 64-bit words *)
  n : int;
}

let bits_per_word = 64

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n =
  assert (n >= 0);
  { words = Bytes.make (8 * max (word_count n) 1) '\000'; n }

let universe_size t = t.n

let copy t = { words = Bytes.copy t.words; n = t.n }

let get_word t i = Bytes.get_int64_le t.words (8 * i)

let set_word t i v = Bytes.set_int64_le t.words (8 * i) v

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: %d outside universe [0,%d)" i t.n)

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  set_word t w (Int64.logor (get_word t w) (Int64.shift_left 1L b))

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  set_word t w (Int64.logand (get_word t w) (Int64.lognot (Int64.shift_left 1L b)))

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  Int64.logand (Int64.shift_right_logical (get_word t w) b) 1L = 1L

(* SWAR popcount of a 32-bit value held in a native int *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
  ((x * 0x0101_0101) lsr 24) land 0xff

(* A word's two 32-bit halves as native ints, so counting never boxes
   an [Int64] and allocates nothing. *)
let[@inline] low w = Int64.to_int w land 0xffff_ffff

let[@inline] high w = Int64.to_int (Int64.shift_right_logical w 32)

let[@inline] popcount64 w = if w = 0L then 0 else popcount32 (low w) + popcount32 (high w)

let cardinal t =
  let c = ref 0 in
  for i = 0 to word_count t.n - 1 do
    c := !c + popcount64 (get_word t i)
  done;
  !c

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

let union_into dst src =
  same_universe dst src;
  for i = 0 to word_count dst.n - 1 do
    set_word dst i (Int64.logor (get_word dst i) (get_word src i))
  done

let inter_cardinal a b =
  same_universe a b;
  let c = ref 0 in
  for i = 0 to word_count a.n - 1 do
    c := !c + popcount64 (Int64.logand (get_word a i) (get_word b i))
  done;
  !c

(* Members of one 32-bit half, lowest set bit first. *)
let rec iter_half f bits base =
  if bits <> 0 then begin
    let lowest = bits land -bits in
    f (base + popcount32 (lowest - 1));
    iter_half f (bits lxor lowest) base
  end

(* Word by word, skipping empty words; bits past [n] are never set. *)
let iter f t =
  for i = 0 to word_count t.n - 1 do
    let w = get_word t i in
    if w <> 0L then begin
      iter_half f (low w) (64 * i);
      iter_half f (high w) ((64 * i) + 32)
    end
  done

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let equal a b = a.n = b.n && Bytes.equal a.words b.words
