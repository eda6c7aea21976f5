(** Online statistics used by the measurement harness. *)

(** A streaming summary of a scalar sample (latencies, sizes, ...). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100]; exact (retains samples).
      Returns [nan] on an empty summary. *)

  val pp : Format.formatter -> t -> unit
end

(** Fixed-bucket histogram over time, for throughput timelines. *)
module Timeline : sig
  type t

  val create : bucket:Time.t -> t
  val record : t -> at:Time.t -> unit

  val buckets : t -> (Time.t * int) list
  (** Bucket start times with event counts, in time order. *)

  val rates : t -> (float * float) list
  (** (bucket start in seconds, events/second) pairs. *)
end
