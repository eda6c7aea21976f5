(** Deterministic stored procedures for active transactions (paper §6).

    A procedure computes its updates from the current database state and
    its arguments only, so every replica invoking it at the same point in
    the global order produces the same transition.  Procedures are looked
    up by name at execution (ordering) time, never at creation time.

    The registry is instance-scoped: each engine owns one, created with
    it and threaded through execution.  Nothing here is process-wide —
    two replicas (or two whole engines) in one process cannot observe
    each other's registrations.  Determinism across replicas therefore
    rests on configuring every replica with the same procedures, which
    is the same contract as configuring them with the same code. *)

type result = {
  updates : Op.t list;  (** applied atomically after the call *)
  output : Value.t;  (** returned to the client *)
}

type body = Database.t -> Value.t list -> result

type key_pattern =
  | Kconst of string  (** a literal key *)
  | Kparam of int  (** the i-th argument, rendered as a key *)
  | Kconcat of key_pattern list  (** concatenation of parts *)
  | Kany  (** matches every key (no static bound) *)

type footprint = { reads : key_pattern list; writes : key_pattern list }
(** A declared key-space footprint: every key the body may look up is
    matched by some [reads] or [writes] pattern, and every key its
    updates write by some [writes] pattern.  Declarations are checked
    two ways: statically, the footprint lint diffs them against the
    inferred sets (a disagreement is a spec-drift finding); at run time,
    [Check.Procguard] asserts the actual touched keys are covered. *)

type registry
(** A mutable name → entry table owned by one engine instance. *)

val create : unit -> registry
(** An empty registry. *)

val builtins : unit -> registry
(** A fresh registry preloaded with the built-in procedures:
    - ["transfer"] [\[Text from; Text to_; Int amount\]]: moves funds iff
      the source balance suffices; returns [Int 1] on success, [Int 0] on
      refusal.
    - ["restock"] [\[Text item; Int n\]]: commutative stock increment;
      returns the (locally visible) new level.
    - ["cas"] [\[Text key; expected; desired\]]: compare-and-set; returns
      [Int 1] iff the stored value equalled [expected]. *)

val register : ?footprint:footprint -> registry -> string -> body -> unit
(** Registers (or replaces) a procedure under a name, in this registry
    only.  [?footprint] optionally declares the key-space footprint; the
    builtins all declare theirs. *)

val find : registry -> string -> body option

val declared_footprint : registry -> string -> footprint option
(** The footprint declared at registration, if any. *)

val known : registry -> string list
(** Registered names, sorted. *)

val covers : Value.t list -> key_pattern list -> string -> bool
(** Whether any pattern in the list matches the key. *)
