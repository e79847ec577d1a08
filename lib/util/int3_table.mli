(** Open-addressing hash table from triples of non-negative ints to ints.

    Purpose-built for the ROBDD unique table (level, low, high → node id),
    where the generic [((int * int * int), int) Hashtbl.t] pays a boxed
    tuple allocation and a polymorphic hash on every probe. Here the three
    key components and the value are packed inline into one int array (a
    probe reads a single cache line and allocates nothing), capacity is a
    power of two, and collisions resolve by linear probing at no more than
    50% load (live entries plus tombstones). {!remove} writes a tombstone
    rather than emptying the slot (probe chains stay intact); tombstones
    are reused by later inserts and dropped at the next rehash, which
    happens in place when the live entries still fit, so delete-heavy
    phases (the sifting reorderer retiring dead BDD nodes) neither strand
    capacity nor allocate. The first key component must be non-negative
    (negative values mark empty and tombstoned slots); values are
    arbitrary ints except [-1] ({!not_found}), and non-negative wherever
    {!find_or_reserve} is used. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (slot count) is rounded up to a power of two, minimum 16. *)

val length : t -> int

val not_found : int
(** [-1]; returned by {!find} when the key is absent. *)

val find : t -> int -> int -> int -> int
(** [find t a b c] is the value bound to [(a,b,c)], or {!not_found}.
    Raises [Invalid_argument] if [a] is negative. *)

val replace : t -> int -> int -> int -> int -> unit
(** Insert or overwrite. *)

val find_or_reserve : t -> int -> int -> int -> int
(** Single-probe lookup-or-intern, with no closure: [find_or_reserve t a b
    c] makes room for one insert, then probes once. On a hit it returns
    the bound value, which must be non-negative; on a miss it returns a
    {e reservation}, a negative token naming the slot the key belongs in,
    for {!insert_reserved}. The reservation stays valid until [t] is next
    modified, so the caller may compute the value in between as long as
    that does not touch [t]. *)

val insert_reserved : t -> int -> int -> int -> int -> int -> unit
(** [insert_reserved t r a b c v] binds [(a,b,c) → v] in the slot that
    reservation [r] (from {!find_or_reserve} on the same key) names. *)

val remove : t -> int -> int -> int -> unit
(** Deletes the binding of [(a,b,c)] if present (no-op otherwise) by
    tombstoning its slot. {!length} drops immediately; the slot is reused
    by the next insert whose probe chain passes it, or reclaimed wholesale
    at the next rehash. *)

val clear : t -> unit
(** Empties the table (tombstones included); capacity and stats counters
    are retained. *)

(** {2 Instrumentation} *)

val probes : t -> int
(** Lookups performed (each counts once however long its probe chain). *)

val hits : t -> int

val resizes : t -> int
