open Repro_sim

type mode = Forced | Delayed

type fault_config = {
  torn_tail_on_crash : float;
  corrupt_on_crash : float;
  read_error : float;
  read_retries : int;
  read_backoff : Time.t;
}

let no_faults =
  {
    torn_tail_on_crash = 0.;
    corrupt_on_crash = 0.;
    read_error = 0.;
    read_retries = 4;
    read_backoff = Time.of_us 500;
  }

type config = {
  mode : mode;
  sync_latency : Time.t;
  sync_jitter : float;
  delayed_ack_latency : Time.t;
  delayed_flush_interval : Time.t;
  faults : fault_config;
}

let default_forced =
  {
    mode = Forced;
    sync_latency = Time.of_ms 10.;
    sync_jitter = 0.4;
    delayed_ack_latency = Time.of_us 50;
    delayed_flush_interval = Time.of_ms 100.;
    faults = no_faults;
  }

let default_delayed = { default_forced with mode = Delayed }

type t = {
  engine : Engine.t;
  config : config;
  rng : Rng.t;
  mutable write_epoch : int;
  mutable durable_epoch : int;
  mutable flushing : bool;
  mutable waiters : (unit -> unit) list; (* waiting for the *next* flush *)
  mutable flushes : int;
  mutable generation : int; (* bumped on crash *)
  mutable bg_flush_started : bool;
}

let create ~engine ~config () =
  {
    engine;
    config;
    rng = Rng.split (Engine.rng engine);
    write_epoch = 0;
    durable_epoch = 0;
    flushing = false;
    waiters = [];
    flushes = 0;
    generation = 0;
    bg_flush_started = false;
  }

let mode t = t.config.mode
let faults t = t.config.faults

(* A probability of zero makes no draw at all, so a fault-free disk
   consumes exactly the same RNG stream as before the fault model
   existed (the jitter sequence of seeded runs is unchanged). *)
let draw t p = p > 0. && Rng.float t.rng 1.0 < p
let draw_torn_tail t = draw t t.config.faults.torn_tail_on_crash
let draw_corrupt t = draw t t.config.faults.corrupt_on_crash
let draw_read_error t = draw t t.config.faults.read_error
let flushes t = t.flushes
let last_durable_epoch t = t.durable_epoch
let write_epoch t = t.write_epoch

let note_write t =
  t.write_epoch <- t.write_epoch + 1;
  t.write_epoch

(* A flush gathers requests for a short head-of-line window before the
   platter write begins, so requests issued at the same instant share one
   physical flush (group commit). *)
let gather_window = Time.of_us 10

let flush_duration t =
  let j = t.config.sync_jitter in
  if j <= 0. then t.config.sync_latency
  else begin
    let lo = 1. -. (j /. 2.) in
    let f = lo +. Rng.float t.rng j in
    Time.scale t.config.sync_latency f
  end

let rec start_flush t =
  t.flushing <- true;
  let generation = t.generation in
  Engine.schedule t.engine ~delay:gather_window (fun () ->
      if generation = t.generation then begin
        t.flushes <- t.flushes + 1;
        let batch = List.rev t.waiters in
        t.waiters <- [];
        let epoch_at_start = t.write_epoch in
        Engine.schedule t.engine ~delay:(flush_duration t) (fun () ->
            if generation = t.generation then begin
              t.durable_epoch <- max t.durable_epoch epoch_at_start;
              List.iter (fun k -> k ()) batch;
              if t.waiters <> [] then start_flush t else t.flushing <- false
            end)
      end)

let rec background_flush t =
  let generation = t.generation in
  Engine.schedule t.engine ~delay:t.config.delayed_flush_interval (fun () ->
      if generation = t.generation then begin
        if not t.flushing then begin
          t.flushing <- true;
          t.flushes <- t.flushes + 1;
          let epoch_at_start = t.write_epoch in
          Engine.schedule t.engine ~delay:(flush_duration t) (fun () ->
              if generation = t.generation then begin
                t.durable_epoch <- max t.durable_epoch epoch_at_start;
                t.flushing <- false
              end)
        end;
        background_flush t
      end)

let force t k =
  match t.config.mode with
  | Forced ->
    t.waiters <- k :: t.waiters;
    if not t.flushing then start_flush t
  | Delayed ->
    if not t.bg_flush_started then begin
      t.bg_flush_started <- true;
      background_flush t
    end;
    let generation = t.generation in
    Engine.schedule t.engine ~delay:t.config.delayed_ack_latency (fun () ->
        if generation = t.generation then k ())
  (* Parks the continuation and arms at most one flush timer; the
     waiter list is drained once per physical flush, one entry per
     force call that joined the group commit. *)
  [@@analysis.cost "O(queue); alloc O(queue)"]

let crash t =
  t.generation <- t.generation + 1;
  t.waiters <- [];
  t.flushing <- false;
  t.bg_flush_started <- false
