(** Virtual time for the discrete-event simulation.

    Time is an integer number of microseconds since the start of the
    simulation.  Integer time keeps the simulation fully deterministic:
    there is no floating-point accumulation drift and event timestamps
    compare exactly. *)

type t = private int
(** A point in virtual time, in microseconds. Totally ordered. *)

val zero : t

val of_us : int -> t
(** [of_us n] is the time [n] microseconds after the origin.
    Raises [Invalid_argument] if [n] is negative. *)

val of_ms : float -> t
(** [of_ms x] converts milliseconds to a time point (rounded to µs). *)

val of_sec : float -> t
(** [of_sec x] converts seconds to a time point (rounded to µs). *)

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

val add : t -> span:t -> t
(** [add t ~span] is [t + span]. *)

val diff : t -> t -> t
(** [diff a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t

val scale : t -> float -> t
(** [scale t f] multiplies a span by a non-negative factor. *)

val pp : Format.formatter -> t -> unit
(** Prints as seconds with millisecond precision, e.g. ["1.250s"]. *)
