(* The traced run: a sample of a workload's rounds pushed in-process
   through the same public calls the gateway makes, in gateway order,
   with a span around each call; plus probes that time one layer call
   in isolation. Spans stay in memory and are written at the end as
   Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
   chrome://tracing open. *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module L = Dialed_lifecycle.Lifecycle
module N = Dialed_net
module Hmac = Dialed_crypto.Hmac
module W = Workload

type span = {
  name : string;
  round : int;        (** -1 for probe spans *)
  parent : string;
  t0 : float;
  t1 : float;
  words : float;      (** minor words allocated inside the span *)
}

type tracer = { mutable spans : span list; origin : float }

let tracer () = { spans = []; origin = Unix.gettimeofday () }

let span tr ?(round = -1) ?(parent = "round") name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  tr.spans <- { name; round; parent; t0; t1; words = Gc.minor_words () -. w0 } :: tr.spans;
  r

(* Total time of spans named [name] over the traced rounds, per round,
   in microseconds. *)
let per_round tr ~rounds name =
  List.fold_left
    (fun acc s -> if s.name = name && s.round >= 0 then acc +. (s.t1 -. s.t0) else acc)
    0.0 tr.spans
  *. 1e6 /. float_of_int (max 1 rounds)

(* Mean duration of one call of [name], in microseconds. *)
let per_call tr name =
  let n, total =
    List.fold_left
      (fun (n, acc) s -> if s.name = name then (n + 1, acc +. (s.t1 -. s.t0)) else (n, acc))
      (0, 0.0) tr.spans
  in
  if n = 0 then 0.0 else total *. 1e6 /. float_of_int n

(* Rounds past this are measured but not written out, to keep the
   trace file small enough to open. *)
let written_rounds = 2000

let write_chrome tr path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
          \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%d,\"parent\":%S,\
          \"minor_words\":%.0f}}"
         (if i = 0 then "" else ",") s.name
         (if s.round >= 0 then "round" else "probe")
         (if s.round >= 0 then 1 else 2)
         ((s.t0 -. tr.origin) *. 1e6) ((s.t1 -. s.t0) *. 1e6)
         s.round s.parent s.words)
    (List.rev (List.filter (fun s -> s.round < written_rounds) tr.spans));
  output_string oc "\n]}\n"

(* ------------------------------------------------------------------ *)
(* The rounds *)

type input =
  | Attest of A.Device.t
      (** a gateway round: this device attests under the gate's challenge *)
  | Verify of W.item  (** a fleet-batch report, made before the run *)

type checks = { mutable ok : bool; mutable why : string list }

let check c cond fmt =
  Printf.ksprintf (fun s -> if not cond then (c.ok <- false; c.why <- s :: c.why)) fmt

let entry_of_outcome (o : C.Verifier.outcome) =
  { F.Memo.e_accepted = o.accepted; e_findings = o.findings;
    e_steps = (match o.trace with Some t -> t.C.Verifier.step_count | None -> 0) }

let first_kind findings =
  match findings with f :: _ -> C.Verifier.finding_kind f | [] -> "no-finding"

(* Stage names whose per-round time is gateway-side work. *)
let gateway_stages =
  [ "net.codec_decode"; "net.codec_encode"; "apex.wire_decode"; "core.gate";
    "fleet.digest"; "core.precheck"; "fleet.memo"; "core.replay" ]

(* A gateway round of replay-inproc or replay-bound: the gateway runs
   with its memo off. *)
let gateway_round tr c ~vplan ~scratch ~gate ~round device =
  let span ?parent name f = span tr ~round ?parent name f in
  let encode m = ignore (span "net.codec_encode" (fun () -> N.Codec.encode m) : string) in
  let decode s =
    match span "net.codec_decode" (fun () -> N.Codec.decode s) with
    | Ok m -> m
    | Error e -> failwith (N.Codec.error_to_string e)
  in
  ignore (decode (N.Codec.encode N.Codec.Ready) : N.Codec.msg);
  let req = span "core.gate" (fun () -> C.Protocol.gate_issue gate ~args:W.app.Dialed_apps.Apps.benign_args) in
  encode (N.Codec.Request_seq { seq = round; challenge = req.challenge; args = req.args });
  let report = span ~parent:"prover" "apex.attest" (fun () -> A.Device.attest device ~challenge:req.challenge) in
  let wire = span ~parent:"prover" "apex.wire_encode" (fun () -> A.Wire.encode report) in
  let payload = N.Codec.encode (N.Codec.Report_seq { seq = round; wire }) in
  let wire =
    match decode payload with
    | N.Codec.Report_seq { wire; _ } -> wire
    | _ -> failwith "report frame did not round-trip"
  in
  let report =
    match span "apex.wire_decode" (fun () -> A.Wire.decode_digested wire) with
    | Ok (r, _digest) -> r
    | Error e -> failwith (A.Wire.error_to_string e)
  in
  let redeemed = span "core.gate" (fun () -> C.Protocol.gate_redeem gate req report) in
  check c (redeemed = Ok ()) "round %d: gate refused a fresh report" round;
  let pre = span "core.precheck" (fun () -> C.Verifier.precheck vplan report) in
  check c (pre = Ok ()) "round %d: honest report failed precheck" round;
  let e =
    entry_of_outcome
      (span "core.replay" (fun () -> C.Verifier.replay_outcome ~keep_trace:false ~scratch vplan report))
  in
  check c e.F.Memo.e_accepted "round %d: honest report rejected (%s)" round (first_kind e.e_findings);
  encode (N.Codec.Verdict_seq { seq = round; accepted = e.e_accepted; findings = [] });
  (report, e)

let fleet_round tr c ~vplan ~handle ~scratch ~round (item : W.item) =
  let span ?parent name f = span tr ~round ?parent name f in
  let r = item.report in
  let digest = span "fleet.digest" (fun () -> C.Verifier.log_digest r) in
  let e =
    match span "core.precheck" (fun () -> C.Verifier.precheck vplan r) with
    | Error f -> { F.Memo.e_accepted = false; e_findings = [ f ]; e_steps = 0 }
    | Ok () ->
      fst (span "fleet.memo" (fun () ->
          F.Memo.find_or_replay handle ~digest (fun () ->
              entry_of_outcome (C.Verifier.replay_outcome ~keep_trace:false ~scratch vplan r))))
  in
  (match item.expect with
   | None -> check c e.e_accepted "report %d: honest report rejected" round
   | Some k ->
     check c ((not e.e_accepted) && first_kind e.e_findings = k)
       "report %d: expected rejection %s, got %s" round k
       (if e.e_accepted then "accepted" else first_kind e.e_findings));
  (r, e)

(* ------------------------------------------------------------------ *)
(* Probes *)

let time_mean n f =
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do f i done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n

let median3 f =
  let a = Array.init 3 (fun _ -> let t0 = Unix.gettimeofday () in ignore (f ()); Unix.gettimeofday () -. t0) in
  Stats.median a

(* Post→run latency of thunks posted from this domain, about every
   100 us as verdicts are, to a loop running on another domain with one
   periodic timer armed; at most [budget] seconds of posting. A wake
   later than [late] seconds was lost and rescued by the timer. *)
let evloop_probe ~budget =
  let late = 0.02 and max_posts = 20000 in
  let loop = N.Evloop.create () in
  let stop = Atomic.make false in
  let rec tick () = if not (Atomic.get stop) then ignore (N.Evloop.after loop 0.1 tick : N.Evloop.timer) in
  tick ();
  let runner = Domain.spawn (fun () -> N.Evloop.run loop ~stop:(fun () -> Atomic.get stop)) in
  let lat = Array.make max_posts Float.infinity in
  let ran = Atomic.make 0 in
  let until = Unix.gettimeofday () +. budget in
  let n = ref 0 in
  while !n < max_posts && Unix.gettimeofday () < until do
    let i = !n and t0 = Unix.gettimeofday () in
    N.Evloop.post loop (fun () -> lat.(i) <- Unix.gettimeofday () -. t0; Atomic.incr ran);
    incr n;
    Unix.sleepf 0.0001
  done;
  (* the armed timer delivers any thunk whose wakeup was lost *)
  let drain_until = Unix.gettimeofday () +. 0.5 in
  while Atomic.get ran < !n && Unix.gettimeofday () < drain_until do Unix.sleepf 0.005 done;
  Atomic.set stop true;
  N.Evloop.wake loop;
  Domain.join runner;
  N.Evloop.close loop;
  (* a thunk that never ran reads as a 1 s wake *)
  let s = Stats.sorted (Array.map (Float.min 1.0) (Array.sub lat 0 !n)) in
  (Stats.percentile s 99.0 *. 1e6, Array.fold_left (fun k d -> if d > late then k + 1 else k) 0 s)

(* Fleet.stream_submit → stream_next, per report. *)
let handoff_probe ~plan ~memo reports =
  let pool = F.Pool.create ~domains:(Domain.recommended_domain_count ()) () in
  let st = F.Fleet.stream ~pool ?memo plan in
  let total =
    time_mean (Array.length reports) (fun i ->
        F.Fleet.stream_submit st "probe" reports.(i);
        let rec wait () = if F.Fleet.stream_next st = [] then wait () in
        wait ())
  in
  ignore (F.Fleet.stream_close st : F.Fleet.summary);
  F.Pool.shutdown pool;
  total

type traced = {
  metrics : (string * float) list;  (** per-layer metrics measured here *)
  gateway_us : float;  (** gateway-side stage time per round *)
  checks : checks;
}

let sample_rounds = 2000

(* Rounds whose verdict is checked against a fresh replay, which also
   times [core.replay_us]. *)
let checked_rounds = 4000

(* [inputs] are the workload's own rounds, made from the run's seed:
   [sample_rounds] of a gateway workload, one whole pass of fleet-batch. *)
let run ~kind ~trace_path ~(inputs : input array) =
  let tr = tracer () in
  let c = { ok = true; why = [] } in
  let app = W.app in
  let build_s = median3 (fun () -> Dialed_apps.Apps.build app) in
  let built = Dialed_apps.Apps.build app in
  let audit_s = median3 (fun () -> C.Verifier.audit_built built) in
  let plan_s = median3 (fun () -> F.Plan.of_built built) in
  let plan = F.Plan.of_built built in
  let vplan = F.Plan.vplan plan in
  let scratch = C.Verifier.scratch () in
  let memo_on = kind = W.Fleet_batch in
  let handle = F.Memo.handle (F.Memo.create ()) ~ns:(C.Verifier.plan_memo_ns vplan) in
  let registry = L.create () in
  for p = 0 to W.provers - 1 do
    ignore (L.register registry ~id:(W.device_id p) ~key_id:"bench-key" : (unit, string) result)
  done;
  let gate = C.Protocol.make_gate ~seed:"perfbench" () in
  let n = Array.length inputs in
  let done_ =
    Array.init n (fun round ->
        span tr ~parent:"" "round" ~round (fun () ->
            match inputs.(round) with
            | Verify item -> fleet_round tr c ~vplan ~handle ~scratch ~round item
            | Attest d -> gateway_round tr c ~vplan ~scratch ~gate ~round d))
  in
  (* memo-on verdicts must be those of a fresh replay *)
  let steps = ref [] and replays = ref 0 and replay_s = ref 0.0 in
  for i = 0 to min n checked_rounds - 1 do
        let r, e = done_.(i) in
        if C.Verifier.precheck vplan r = Ok () then begin
          let t0 = Unix.gettimeofday () in
          let o = C.Verifier.replay_outcome ~keep_trace:false ~scratch vplan r in
          replay_s := !replay_s +. (Unix.gettimeofday () -. t0);
          incr replays;
          let fresh = entry_of_outcome o in
          check c (fresh.e_accepted = e.F.Memo.e_accepted
                   && List.map C.Verifier.finding_kind fresh.e_findings
                      = List.map C.Verifier.finding_kind e.e_findings
                   && fresh.e_steps = e.e_steps)
            "round %d: memo verdict differs from a fresh replay" i;
          if fresh.e_accepted then steps := fresh.e_steps :: !steps
        end
  done;
  let replay_us = !replay_s *. 1e6 /. float_of_int (max 1 !replays) in
  let replay_steps =
    match List.sort_uniq compare !steps with
    | [ s ] -> float_of_int s
    | l -> check c false "accepted replays took %d different step counts" (List.length l); Float.nan
  in
  let probe name f = span tr name f in
  let sample_report = fst done_.(0) in
  let ks = Hmac.key_state ~key:A.Device.default_key in
  let r = sample_report in
  let msg =
    String.concat ""
      [ r.challenge; W.le16 r.er_min; W.le16 r.er_max; W.le16 r.er_exit;
        W.le16 r.or_min; W.le16 r.or_max; "\001"; built.C.Pipeline.expected_er; r.or_data ]
  in
  let hmac_us = probe "crypto.hmac" (fun () -> time_mean 2000 (fun _ -> ignore (Hmac.mac_with ks msg : string))) in
  let hit_us =
    probe "fleet.memo_hit" (fun () ->
        let h = F.Memo.handle (F.Memo.create ()) ~ns:"probe" in
        let e = { F.Memo.e_accepted = true; e_findings = []; e_steps = 1 } in
        let d = C.Verifier.log_digest sample_report in
        ignore (F.Memo.find_or_replay h ~digest:d (fun () -> e));
        time_mean 5000 (fun _ -> ignore (F.Memo.find_or_replay h ~digest:d (fun () -> e))))
  in
  let insert_us =
    probe "fleet.memo_insert" (fun () ->
        let h = F.Memo.handle (F.Memo.create ()) ~ns:"probe" in
        let e = { F.Memo.e_accepted = true; e_findings = []; e_steps = 1 } in
        let rng = Random.State.make [| 7 |] in
        let keys = Array.init 6000 (fun _ -> String.init 32 (fun _ -> Char.chr (Random.State.int rng 256))) in
        time_mean 6000 (fun i -> ignore (F.Memo.find_or_replay h ~digest:keys.(i) (fun () -> e))))
  in
  let admit_us, recheck_us =
    probe "lifecycle" (fun () ->
        let ids = Array.init W.provers W.device_id in
        ( time_mean 4000 (fun i -> ignore (L.admit registry ~device_id:ids.(i mod W.provers) ~firmware:"")),
          time_mean 4000 (fun i -> ignore (L.recheck registry ids.(i mod W.provers))) ))
  in
  let wake_p99, late_wakes = probe "net.evloop_wake" (fun () -> evloop_probe ~budget:1.0) in
  let verify_us = per_round tr ~rounds:n "core.precheck" +. per_round tr ~rounds:n "fleet.memo"
                  +. per_round tr ~rounds:n "core.replay" in
  let handoff_total =
    probe "fleet.stream_handoff" (fun () ->
        let reports = Array.init (min 400 n) (fun i -> fst done_.(i)) in
        let memo = if memo_on then Some (F.Memo.create ()) else None in
        handoff_probe ~plan ~memo reports)
  in
  write_chrome tr trace_path;
  let rounds = n in
  let gateway_us = List.fold_left (fun acc s -> acc +. per_round tr ~rounds s) 0.0 gateway_stages in
  let pr = per_round tr ~rounds in
  { metrics =
      [ ("core.replay_us", replay_us);
        ("msp430.replay_steps", replay_steps);
        ("core.precheck_us", per_call tr "core.precheck");
        ("crypto.hmac_us", hmac_us);
        ("apex.wire_decode_us", per_call tr "apex.wire_decode");
        ("net.codec_decode_us", pr "net.codec_decode");
        ("net.codec_encode_us", pr "net.codec_encode");
        ("core.gate_us", pr "core.gate");
        ("fleet.memo_hit_us", hit_us);
        ("fleet.memo_insert_us", insert_us);
        ("fleet.stream_handoff_us", handoff_total -. verify_us);
        ("net.evloop_wake_p99_us", wake_p99);
        ("net.evloop_late_wakes", float_of_int late_wakes);
        ("lifecycle.admit_us", admit_us);
        ("lifecycle.recheck_us", recheck_us);
        ("core.build_ms", build_s *. 1e3);
        ("staticcheck.audit_ms", audit_s *. 1e3);
        ("fleet.plan_ms", plan_s *. 1e3);
        ("apex.attest_us", per_call tr "apex.attest") ];
    gateway_us;
    checks = c }
