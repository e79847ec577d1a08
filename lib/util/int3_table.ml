(* Keys are int triples, stored inline: each slot is four consecutive ints
   [k1; k2; k3; value] in one backing array, so one probe = one cache line
   and zero allocation (no boxed tuple, no polymorphic hash, and the probe
   loops are top-level functions, so no closure either). Capacity is a
   power of two; linear probing. Deletion writes a tombstone (k1 = -2,
   distinct from the k1 = -1 empty marker) so probe chains through the
   deleted slot stay intact; tombstones are reused by later inserts and
   dropped wholesale on the next rehash. *)

type t = {
  mutable data : int array; (* stride 4; k1 = -1 empty, k1 = -2 tombstone *)
  mutable mask : int; (* capacity - 1, in slots *)
  mutable size : int; (* live entries *)
  mutable tombs : int; (* tombstone slots awaiting reuse or rehash *)
  mutable probes : int;
  mutable hits : int;
  mutable resizes : int;
}

let not_found = -1

let empty_mark = -1

let tomb_mark = -2

let round_pow2 n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 16

let create ?(capacity = 1024) () =
  let cap = round_pow2 capacity in
  {
    data = Array.make (4 * cap) empty_mark;
    mask = cap - 1;
    size = 0;
    tombs = 0;
    probes = 0;
    hits = 0;
    resizes = 0;
  }

let length t = t.size

(* xxhash-style avalanche over the three components (odd multipliers that
   fit OCaml's 63-bit int). *)
let hash a b c =
  let h = a * 0x2545F4914F6CDD1D in
  let h = (h lxor b) * 0x27D4EB2F165667C5 in
  let h = (h lxor c) * 0x165667B19E3779F9 in
  (h lxor (h lsr 29)) land max_int

(* First slot from [i] on whose k1 is negative: rehashing meets no
   tombstones and no duplicate keys. *)
let rec free_slot data mask i =
  if Array.unsafe_get data (4 * i) < 0 then i else free_slot data mask ((i + 1) land mask)

let insert_raw data mask a b c v =
  let base = 4 * free_slot data mask (hash a b c land mask) in
  Array.unsafe_set data base a;
  Array.unsafe_set data (base + 1) b;
  Array.unsafe_set data (base + 2) c;
  Array.unsafe_set data (base + 3) v

(* Drops every tombstone without allocating. Each live entry is lifted
   and re-seated at the first free slot from its home, scanning
   circularly from a slot that was empty before the purge: no probe chain
   crosses such a slot, so every slot of an entry's chain ahead of it is
   already settled when the entry moves, and no later move opens a hole
   behind it. *)
let rec empty_from data i = if Array.unsafe_get data (4 * i) = empty_mark then i else empty_from data (i + 1)

let purge t =
  let data = t.data and mask = t.mask in
  let start = empty_from data 0 in
  for i = 0 to mask do
    if Array.unsafe_get data (4 * i) = tomb_mark then Array.unsafe_set data (4 * i) empty_mark
  done;
  for k = 1 to mask do
    let base = 4 * ((start + k) land mask) in
    let a = Array.unsafe_get data base in
    if a >= 0 then begin
      Array.unsafe_set data base empty_mark;
      insert_raw data mask a
        (Array.unsafe_get data (base + 1))
        (Array.unsafe_get data (base + 2))
        (Array.unsafe_get data (base + 3))
    end
  done

(* Runs when live entries plus tombstones reach half the capacity. The
   capacity doubles when genuinely half full of live entries; when the
   pressure was tombstone churn (a delete-heavy phase, e.g. sifting) the
   tombstones are purged in place instead, so churn allocates nothing. *)
let grow t =
  let old_cap = t.mask + 1 in
  if 2 * (t.size + 1) > old_cap then begin
    let cap = old_cap * 2 in
    let data = Array.make (4 * cap) empty_mark in
    let mask = cap - 1 in
    let old = t.data in
    for i = 0 to t.mask do
      let base = 4 * i in
      let a = Array.unsafe_get old base in
      if a >= 0 then
        insert_raw data mask a
          (Array.unsafe_get old (base + 1))
          (Array.unsafe_get old (base + 2))
          (Array.unsafe_get old (base + 3))
    done;
    t.data <- data;
    t.mask <- mask
  end
  else purge t;
  t.tombs <- 0;
  t.resizes <- t.resizes + 1

let check_key a = if a < 0 then invalid_arg "Int3_table: keys must be non-negative"

(* The slot holding [(a,b,c)], or else the first {e reusable} slot of its
   chain: [reuse], the earliest tombstone passed (-1 while none), or the
   terminating empty slot. Callers tell the two cases apart by the slot's
   k1. *)
let rec probe data mask a b c i reuse =
  let base = 4 * i in
  let k1 = Array.unsafe_get data base in
  if k1 = empty_mark then if reuse >= 0 then reuse else i
  else if
    k1 = a && Array.unsafe_get data (base + 1) = b && Array.unsafe_get data (base + 2) = c
  then i
  else probe data mask a b c ((i + 1) land mask) (if k1 = tomb_mark && reuse < 0 then i else reuse)

let slot_of t a b c =
  t.probes <- t.probes + 1;
  probe t.data t.mask a b c (hash a b c land t.mask) (-1)

let find t a b c =
  check_key a;
  let base = 4 * slot_of t a b c in
  if Array.unsafe_get t.data base >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.data (base + 3)
  end
  else not_found

(* Tombstones count against the load factor: a chain can only terminate at
   a genuinely empty slot, so reusable-but-occupied slots still lengthen
   probes. *)
let ensure_room t = if 2 * (t.size + t.tombs + 1) > t.mask + 1 then grow t

let store t base a b c v =
  let k1 = Array.unsafe_get t.data base in
  if k1 < 0 then begin
    t.size <- t.size + 1;
    if k1 = tomb_mark then t.tombs <- t.tombs - 1
  end;
  Array.unsafe_set t.data base a;
  Array.unsafe_set t.data (base + 1) b;
  Array.unsafe_set t.data (base + 2) c;
  Array.unsafe_set t.data (base + 3) v

let replace t a b c v =
  check_key a;
  ensure_room t;
  store t (4 * slot_of t a b c) a b c v

(* A miss returns [-2 - slot]: always below -1, so no non-negative value
   and not even {!not_found} can be mistaken for it. *)
let find_or_reserve t a b c =
  check_key a;
  ensure_room t;
  let i = slot_of t a b c in
  let base = 4 * i in
  if Array.unsafe_get t.data base >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.data (base + 3)
  end
  else -2 - i

let insert_reserved t r a b c v = store t (4 * (-2 - r)) a b c v

let remove t a b c =
  check_key a;
  let base = 4 * slot_of t a b c in
  if Array.unsafe_get t.data base >= 0 then begin
    Array.unsafe_set t.data base tomb_mark;
    t.size <- t.size - 1;
    t.tombs <- t.tombs + 1
  end

let clear t =
  Array.fill t.data 0 (Array.length t.data) empty_mark;
  t.size <- 0;
  t.tombs <- 0

let probes t = t.probes

let hits t = t.hits

let resizes t = t.resizes
