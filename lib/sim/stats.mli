(** Online statistics used by the measurement harness. *)

(** A streaming summary of a scalar sample (latencies, sizes, ...). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float

  val count_at_most : t -> float -> int
  (** Samples no greater than the bound (e.g. completions within a
      deadline). *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100]; exact (retains samples).
      Returns [nan] on an empty summary. *)
end

(** Fixed-bucket histogram over time, for throughput timelines. *)
module Timeline : sig
  type t

  val create : bucket:Time.t -> t
  val record : t -> at:Time.t -> unit

  val rates : t -> (float * float) list
  (** (bucket start in seconds, events/second) pairs. *)
end
