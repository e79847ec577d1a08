(** Output phases.

    A primary output is in {e positive} phase when no inverter appears at
    the output boundary and in {e negative} phase when one static inverter
    does (the domino block then computes the complement internally; the
    logical value of the output is always preserved — paper §3). *)

type t = Positive | Negative

type assignment = t array
(** Indexed by primary-output position (declaration order). *)

val flip : t -> t

val all_positive : int -> assignment

val flip_at : assignment -> int -> assignment
(** Fresh assignment with one position flipped. *)

val of_int : num_outputs:int -> int -> assignment
(** Bit [k] of the integer chooses the phase of output [k]
    (1 = [Negative]); the enumeration order of exhaustive search. *)

val to_int : assignment -> int

val enumerate : num_outputs:int -> assignment Seq.t
(** All [2^n] assignments. Raises [Invalid_argument] beyond 24 outputs. *)

val random : Dpa_util.Rng.t -> num_outputs:int -> assignment

val count_negative : assignment -> int

val to_string : assignment -> string
(** E.g. ["+-+"]. *)

val of_string : num_outputs:int -> string -> (assignment, string) result
(** Inverse of {!to_string}: one ['+'] or ['-'] per output. [Error]
    carries a one-line message for a string of the wrong length or one
    with any other character. *)

val equal : assignment -> assignment -> bool

val pp : Format.formatter -> t -> unit
