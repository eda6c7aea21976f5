(** Deterministic pseudo-random number generation.

    A SplitMix64 generator.  Each stream is an independent mutable state;
    [split] derives a statistically independent child stream, so every
    simulated component can own its own generator and the global event
    order never depends on which component draws first. *)

type t

val create : int64 -> t
(** [create seed] makes a new stream from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split t] draws from [t] to seed an independent child stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound >= 0]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: it draws the same bits and gives
    the same answer, without allocating. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution. *)

val uniform_span : t -> Time.t -> Time.t
(** [uniform_span t max] is a uniform time span in [\[0, max\]]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a list -> 'a list
(** A uniformly random permutation. *)
