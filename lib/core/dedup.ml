open Repro_db

(* Per-client exactly-once bookkeeping, living in replicated state.

   Correctness rests on the client contract: a client issues request
   sequence numbers 1, 2, 3, ... in FIFO order with at most one number
   outstanding, and only moves to [seq+1] after receiving a response
   for [seq].  A retried request therefore satisfies
   [seq <= highest applied] exactly when some copy of it already
   executed — contiguity is NOT assumed, because a stale copy created
   before a partition can reach the green order after later sequence
   numbers from the same client (the engine orders every created copy;
   only the first one in green order executes).

   Every mutation happens on the green apply path, so the table is a
   pure function of the green prefix and is identical on every replica
   at the same green position — which is what lets it ride checkpoints
   and state-transfer snapshots. *)

(* The cached responses of one client live in a ring, oldest first.
   [record] is reached only for [Fresh] requests ([seq > e_hi]), so it
   always appends a sequence number above every cached one: the ring is
   sorted ascending, and both bounds of the cache (the ack low-water and
   the window) drop entries from its oldest end.  Slots are parallel
   arrays, so caching and evicting a response allocates nothing once
   the ring has grown; it grows lazily, doubling up to the window,
   because most clients only ever have one or two responses unacked. *)
type entry = {
  mutable e_hi : int;  (* highest req_seq applied for this client *)
  mutable e_ack : int;  (* client-acked low-water mark *)
  mutable e_seqs : int array;
  mutable e_resps : Action.response array;  (* free slots hold [Busy] *)
  mutable e_head : int;  (* slot of the oldest cached entry *)
  mutable e_len : int;
}

type t = {
  d_window : int;
  d_tbl : entry Types.Int_tbl.t; (* by client id *)
}

type verdict = Fresh | Duplicate of Action.response option

let create ~window () =
  { d_window = max 1 window; d_tbl = Types.Int_tbl.create 16 }

let slot e i = (e.e_head + i) mod Array.length e.e_seqs

(* The cached response for [seq], if the window still holds it: a scan
   of at most [window] slots, allocating only the answer. *)
let cached e seq =
  let rec go i =
    if i = e.e_len then None
    else
      let j = slot e i in
      if e.e_seqs.(j) = seq then Some e.e_resps.(j) else go (i + 1)
  in
  go 0
  [@@analysis.cost "O(1); alloc O(1)"]

let check t ~client ~seq =
  if seq <= 0 then Fresh
  else
    match Types.Int_tbl.find t.d_tbl client with
    | exception Not_found -> Fresh
    | e -> if seq <= e.e_hi then Duplicate (cached e seq) else Fresh

let is_applied t ~client ~seq =
  seq > 0
  &&
  match Types.Int_tbl.find t.d_tbl client with
  | exception Not_found -> false
  | e -> seq <= e.e_hi

let drop_oldest e =
  e.e_resps.(e.e_head) <- Action.Busy;
  e.e_head <- slot e 1;
  e.e_len <- e.e_len - 1

(* The ack low-water is the primary bound: responses at or below it can
   never be re-requested.  Each entry is dropped at most once after the
   [push] that cached it, so the loop is amortized O(1) per record. *)
let drop_acked e =
  while e.e_len > 0 && e.e_seqs.(e.e_head) <= e.e_ack do
    drop_oldest e
  done
  [@@analysis.cost "O(1); alloc O(1)"]

(* Double the ring, up to [window] slots, unrolling it to the front. *)
let grow t e =
  let cap = Array.length e.e_seqs in
  let ncap = min t.d_window (max 2 (2 * cap)) in
  let seqs = Array.make ncap 0 and resps = Array.make ncap Action.Busy in
  for i = 0 to e.e_len - 1 do
    let j = slot e i in
    seqs.(i) <- e.e_seqs.(j);
    resps.(i) <- e.e_resps.(j)
  done;
  e.e_seqs <- seqs;
  e.e_resps <- resps;
  e.e_head <- 0
  (* Capacity doubles up to the window, so each copied slot is paid for
     by the push that first filled it. *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* Cache the newest response; the window caps growth when a client's
   acks lag (e.g. it crashed between issue and ack) by evicting the
   oldest. *)
let push t e seq response =
  if e.e_len >= t.d_window then drop_oldest e
  else if e.e_len = Array.length e.e_seqs then grow t e;
  let j = slot e e.e_len in
  e.e_seqs.(j) <- seq;
  e.e_resps.(j) <- response;
  e.e_len <- e.e_len + 1

let observe_ack t ~client ~ack =
  if ack > 0 then
    match Types.Int_tbl.find t.d_tbl client with
    | exception Not_found -> ()
    | e ->
      if ack > e.e_ack then begin
        e.e_ack <- ack;
        drop_acked e
      end

let new_entry t client =
  let e =
    {
      e_hi = 0;
      e_ack = 0;
      e_seqs = [||];
      e_resps = [||];
      e_head = 0;
      e_len = 0;
    }
  in
  Types.Int_tbl.replace t.d_tbl client e;
  e

let record t ~client ~seq ~ack response =
  if seq > 0 then begin
    let e =
      match Types.Int_tbl.find t.d_tbl client with
      | e -> e
      | exception Not_found -> new_entry t client
    in
    if seq <= e.e_hi then invalid_arg "Dedup.record: request is not fresh";
    e.e_hi <- seq;
    if ack > e.e_ack then begin
      e.e_ack <- ack;
      drop_acked e
    end;
    if seq > e.e_ack then push t e seq response
  end

let max_cached t = Types.Int_tbl.fold (fun _ e acc -> max acc e.e_len) t.d_tbl 0

(* ------------------------------------------------------------------ *)
(* Snapshots: pure data, deterministically ordered so two replicas at
   the same green position serialize identically. *)

type client_state = {
  s_client : int;
  s_hi : int;
  s_ack : int;
  s_cache : (int * Action.response) list;
}

type snapshot = { s_window : int; s_clients : client_state list }

let snapshot t =
  let cs =
    Types.Int_tbl.fold
      (fun c e acc ->
        let cache =
          List.init e.e_len (fun i ->
              let j = slot e (e.e_len - 1 - i) in
              (e.e_seqs.(j), e.e_resps.(j)))
        in
        { s_client = c; s_hi = e.e_hi; s_ack = e.e_ack; s_cache = cache }
        :: acc)
      t.d_tbl []
  in
  {
    s_window = t.d_window;
    s_clients =
      List.sort (fun a b -> Int.compare a.s_client b.s_client) cs;
  }
  (* Checkpoint-path only: the client table is part of the durable state
     the checkpoint rewrites, so its size rides the log class. *)
  [@@analysis.cost "O(log); alloc O(log)"]

let of_snapshot s =
  let t = create ~window:s.s_window () in
  List.iter
    (fun c ->
      let e = new_entry t c.s_client in
      e.e_hi <- c.s_hi;
      e.e_ack <- c.s_ack;
      let n = List.length c.s_cache in
      e.e_seqs <- Array.make n 0;
      e.e_resps <- Array.make n Action.Busy;
      e.e_len <- n;
      List.iteri
        (fun i (seq, r) ->
          e.e_seqs.(n - 1 - i) <- seq;
          e.e_resps.(n - 1 - i) <- r)
        c.s_cache)
    s.s_clients;
  t

(* The convergence-relevant summary: (client, highest applied, acked)
   triples in client order.  Cached response bodies are a function of
   these plus the database, so equality of summaries across replicas is
   the right convergence check. *)
let summary t =
  List.map (fun c -> (c.s_client, c.s_hi, c.s_ack)) (snapshot t).s_clients
