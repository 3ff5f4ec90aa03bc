(* The closed-loop load generator: each prover sends its next round only
   when a verdict frees a slot of its window, over TCP on 127.0.0.1.

   Every run is bounded. Rounds are issued until [stop_at]; rounds still
   open then get [limit] more seconds, after which the run ends and they
   count as failed. A prover with rounds outstanding and no verdict for
   [limit] seconds is stalled: the gap counts towards [stall_s], and the
   rounds it held up miss the [limit] latency limit. Nothing is retried
   away; a stalled gateway shows as failed rounds and stall time. *)

module A = Dialed_apex
module C = Dialed_core
module N = Dialed_net

let limit = 1.0

type tally = {
  mutable attempted : int;  (** rounds issued in the window *)
  mutable completed : int;  (** of those, accepted within [limit] *)
  mutable rejected : int;
      (** honest rounds the gateway rejected, warm-up included *)
  mutable busy : int;
  mutable unanswered : int; (** rounds open when the run ended *)
  mutable failed_sessions : int;
  mutable stalls : int;
  mutable stall_s : float;
  mutable sessions : int;
  mutable latencies : (float * float) list;  (** (arrival, latency) *)
  mutable handshakes : float list;
  mutable errors : string list;  (** protocol violations by the gateway *)
}

let tally () =
  { attempted = 0; completed = 0; rejected = 0; busy = 0;
    unanswered = 0; failed_sessions = 0; stalls = 0; stall_s = 0.0;
    sessions = 0; latencies = []; handshakes = []; errors = [] }

let merge a b =
  { attempted = a.attempted + b.attempted;
    completed = a.completed + b.completed;
    rejected = a.rejected + b.rejected;
    busy = a.busy + b.busy;
    unanswered = a.unanswered + b.unanswered;
    failed_sessions = a.failed_sessions + b.failed_sessions;
    stalls = a.stalls + b.stalls;
    stall_s = a.stall_s +. b.stall_s;
    sessions = a.sessions + b.sessions;
    latencies = List.rev_append a.latencies b.latencies;
    handshakes = List.rev_append a.handshakes b.handshakes;
    errors = a.errors @ b.errors }

type window = {
  start_at : float;  (** rounds issued before this are warm-up *)
  stop_at : float;   (** no round is issued after this *)
  tick : float -> float;
      (** called with the time once [start_at] passes, then again at or
          after each time it returns ([infinity]: never again) *)
  verdicts : int Atomic.t;  (** verdicts received by all provers *)
  mark_at : int;
  mark : unit -> unit;  (** called when the [mark_at]th verdict arrives *)
}

(* A verdict or the first round of an idle prover is progress; a gap of
   [limit] or more between progress with rounds open is a stall. *)
type watch = { mutable last : float; mutable open_ : int }

let progress t w now =
  let gap = now -. w.last in
  if w.open_ > 0 && gap >= limit then begin
    t.stalls <- t.stalls + 1;
    t.stall_s <- t.stall_s +. gap
  end;
  w.last <- now

let hard_end win = win.stop_at +. limit

(* Receive the next frame, waiting no later than [until]; [None] when
   that passes first. Calls [tick] on the way. *)
let recv_until win next chan until =
  let rec go () =
    let now = Unix.gettimeofday () in
    if now >= !next then next := win.tick now;
    if now >= until then None
    else
      let target = Float.min until !next in
      match N.Chan.recv chan ~deadline:(Float.max 0.0 (target -. now)) () with
      | Ok (Some m) -> Some m
      | Ok None -> raise N.Transport.Closed
      | Error e -> failwith ("undecodable frame: " ^ N.Chan.error_to_string e)
      | exception N.Transport.Timeout -> go ()
  in
  go ()

let handshake t chan ~device_id ~window ~dialed win next =
  N.Chan.send chan (N.Codec.Hello_ex { device_id; window; firmware = "" });
  match recv_until win next chan (hard_end win) with
  | Some (N.Codec.Welcome { window = w }) ->
    t.handshakes <- (Unix.gettimeofday () -. dialed) :: t.handshakes;
    Some w
  | Some m -> failwith (Format.asprintf "expected Welcome, got %a" N.Codec.pp_msg m)
  | None -> None

(* Every verdict is checked; only rounds issued after [start_at] are
   timed and counted towards [completed]. *)
let note_verdict t win ~issued ~sent ~accepted now =
  if Atomic.fetch_and_add win.verdicts 1 + 1 = win.mark_at then win.mark ();
  if not accepted then t.rejected <- t.rejected + 1;
  if issued >= win.start_at then begin
    if accepted && now -. sent <= limit then t.completed <- t.completed + 1;
    t.latencies <- (now, now -. sent) :: t.latencies
  end

(* One long pipelined session holding up to [window] rounds in flight. *)
let pipelined t ~port ~device_id ~window ~respond win =
  let next = ref win.start_at in
  let dialed = Unix.gettimeofday () in
  let conn = N.Transport.tcp_connect ~host:"127.0.0.1" ~port () in
  let chan = N.Chan.create conn in
  t.sessions <- t.sessions + 1;
  let w = { last = dialed; open_ = 0 } in
  (* seq -> time its Ready was issued, time its Report was sent *)
  let issued_at = Queue.create () in
  let rounds = Hashtbl.create 64 in
  Fun.protect ~finally:(fun () -> N.Transport.close conn) @@ fun () ->
  w.open_ <- 1;
  (match handshake t chan ~device_id ~window ~dialed win next with
   | None -> progress t w (Unix.gettimeofday ())
   | Some granted ->
     w.open_ <- 0;
     let finished = ref false in
     while not !finished do
       let now = Unix.gettimeofday () in
       if now < win.stop_at then
         while w.open_ < granted do
           if w.open_ = 0 then w.last <- now;
           N.Chan.send chan N.Codec.Ready;
           Queue.add now issued_at;
           if now >= win.start_at then t.attempted <- t.attempted + 1;
           w.open_ <- w.open_ + 1
         done;
       if w.open_ = 0 then finished := true
       else
         match recv_until win next chan (hard_end win) with
         | None -> finished := true
         | Some (N.Codec.Request_seq { seq; challenge; args }) ->
           let issued = Queue.pop issued_at in
           let report = respond { C.Protocol.challenge; args } in
           let wire = A.Wire.encode report in
           let sent = Unix.gettimeofday () in
           Hashtbl.replace rounds seq (issued, sent);
           N.Chan.send chan (N.Codec.Report_seq { seq; wire })
         | Some (N.Codec.Verdict_seq { seq; accepted; findings = _ }) ->
           let now = Unix.gettimeofday () in
           (match Hashtbl.find_opt rounds seq with
            | None -> failwith (Printf.sprintf "verdict for unknown round %d" seq)
            | Some (issued, sent) ->
              Hashtbl.remove rounds seq;
              progress t w now;
              w.open_ <- w.open_ - 1;
              note_verdict t win ~issued ~sent ~accepted now)
         | Some (N.Codec.Busy _) ->
           (* a refused round: it counts as failed and is not retried *)
           let issued = Queue.pop issued_at in
           if issued >= win.start_at then t.busy <- t.busy + 1;
           w.open_ <- w.open_ - 1
         | Some m ->
           failwith (Format.asprintf "unexpected frame %a" N.Codec.pp_msg m)
     done;
     (* rounds still open at the hard end never got a verdict *)
     if w.open_ > 0 then begin
       progress t w (Unix.gettimeofday ());
       Queue.iter (fun i -> if i >= win.start_at then t.unanswered <- t.unanswered + 1) issued_at;
       Hashtbl.iter (fun _ (i, _) -> if i >= win.start_at then t.unanswered <- t.unanswered + 1) rounds
     end else
       (try N.Chan.send chan N.Codec.Bye with N.Transport.Closed -> ()));
  if !next < infinity then ignore (win.tick (Unix.gettimeofday ()) : float)
