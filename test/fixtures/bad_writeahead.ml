(* Seeds: write-ahead-ordering.  [announce_before_force] multicasts an
   action whose log record has been appended but not yet forced — the
   exact crash window the paper's vulnerable-record discipline closes
   (§4): the node can send, crash before the force, and recover with no
   trace of an action the rest of the group ordered.  The analysis must
   flag the send in [announce_before_force] and accept
   [announce_after_force], where the send runs in the continuation of
   the stable-storage sync. *)

open Repro_storage

type net = { send : size:int -> int -> unit }

let announce_before_force (log : int array Wlog.t) (wire : net) seq =
  Wlog.append log [| seq |];
  wire.send ~size:8 seq;
  Wlog.sync log (fun () -> ())

let announce_after_force (log : int array Wlog.t) (wire : net) seq =
  Wlog.append log [| seq |];
  Wlog.sync log (fun () -> wire.send ~size:8 seq)

(* Frame-aware variant: one multi-record frame appended by
   [Wlog.append] needs exactly one covering force before any of
   its records may be announced — sending between the batched append
   and the force reopens the same crash window for the whole frame. *)
let announce_batch_before_force (log : int array Wlog.t) (wire : net) seqs =
  Wlog.append log (Array.of_list seqs);
  List.iter (fun seq -> wire.send ~size:8 seq) seqs;
  Wlog.sync log (fun () -> ())

let announce_batch_after_force (log : int array Wlog.t) (wire : net) seqs =
  Wlog.append log (Array.of_list seqs);
  Wlog.sync log (fun () -> List.iter (fun seq -> wire.send ~size:8 seq) seqs)

(* Join: the append happens on one arm of the [if] only, and the send
   after it is reached with the record un-forced along that arm.  The
   arms rejoin with OR (some path is pending), so the send is flagged;
   an AND join would let it through. *)
let announce_after_branch (log : int array Wlog.t) (wire : net) seq urgent =
  if urgent then Wlog.append log [| seq |];
  wire.send ~size:8 seq;
  Wlog.sync log (fun () -> ())
