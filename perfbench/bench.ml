(* One benchmark run: one workload, one seed, a fixed measuring time.
   Prints a host record and, as its last line, the result object
   {"correct", "attempted", "failed", "metrics"}. See README.md. *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module W = Perfbench.Workload
module G = Perfbench.Gateway
module LG = Perfbench.Loadgen
module Layers = Perfbench.Layers
module Stats = Perfbench.Stats

let warmup = 1.0

(* The gateway is launched [setups] times per run, and set-up time is
   reported as the [setup_pct]th percentile of all set-ups. A launch
   takes about 5 ms of wall clock, so one the host deschedules part-way
   reads twice that. On a 2-core guest, CPU contention that doubled the
   median of a run's launches raised their 20th percentile by a sixth.
   A host that is slower for the whole set-up still shows. *)
let setups = 101
let setup_pct = 20.0

let setup_s times = Stats.percentile (Stats.sorted times) setup_pct

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layer : (string * float) list;
  inputs : Layers.input array;  (** the rounds the traced run replays *)
  why : string list;
}

let nproc = Domain.recommended_domain_count ()

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with Sys_error _ | End_of_file -> "unknown"

(* Hypervisor steal ticks and all ticks so far, from /proc/stat. *)
let cpu_ticks () =
  match String.split_on_char ' ' (read_first_line "/proc/stat") |> List.filter (( <> ) "") with
  | "cpu" :: fields ->
    let f = List.map int_of_string fields in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  | _ | (exception _) -> (0, 0)

let steal_share (s0, t0) (s1, t1) = float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))

(* The host a run ran on: core count, affinity, OCaml version, source
   revision, load average at the start, and the share of CPU time the
   hypervisor stole while it ran. *)
let host_json ~rev ~loadavg ~ticks0 =
  let affinity =
    match
      List.find_opt
        (String.starts_with ~prefix:"Cpus_allowed_list:")
        (String.split_on_char '\n' (G.read_file "/proc/self/status"))
    with
    | Some l -> String.trim (String.sub l 18 (String.length l - 18))
    | None -> "unknown"
  in
  Printf.sprintf
    "{\"host\": {\"nproc\": %d, \"affinity\": %S, \"ocaml\": %S, \"rev\": %S, \
     \"loadavg\": %S, \"steal_share\": %.4f}}"
    nproc affinity Sys.ocaml_version rev loadavg
    (steal_share ticks0 (cpu_ticks ()))

let ms x = x *. 1e3

(* ------------------------------------------------------------------ *)
(* Gateway workloads *)

(* A shared host slows a run in spells: on a 2-core guest, CPU per
   round of one run's 1 s intervals or passes ranged over a fifth either
   side of their median, with or without CPU time stolen by the
   hypervisor, and spells lasted from seconds to minutes. Contention only
   ever slows the code, so a run's timing metrics are read from its
   fastest intervals (gateway: 1 s; in-process workloads: one pass):
   costs at the lower quartile of the intervals, rates at the upper one.
   A change that slows the code slows the fastest intervals too. *)
type interval = {
  rate : float;     (** verdicts per second *)
  cpu_us : float;   (** CPU microseconds per verdict *)
  p50 : float;      (** median latency of the verdicts in it, seconds *)
  verdicts : int;
}

(* The [pct]th percentile of [f] over the intervals holding at least
   [min_verdicts] verdicts; nan when none does. *)
let over_intervals ?(min_verdicts = 0) pct f ivs =
  let ivs = List.filter (fun iv -> iv.verdicts >= min_verdicts) ivs in
  Stats.percentile (Stats.sorted (Array.of_list (List.map f ivs))) pct

let cost ?min_verdicts f ivs = over_intervals ?min_verdicts 25.0 f ivs
let rate ivs = over_intervals 75.0 (fun iv -> iv.rate) ivs

(* CPU per verdict is read in clock ticks of 10 ms, so it is taken only
   from intervals with enough verdicts to resolve it to about 2 %. *)
let cpu_verdicts = 500

(* Intervals between consecutive (time, cpu seconds, verdicts)
   samples; [latencies] are (arrival, latency) pairs. *)
let intervals samples latencies =
  let rec go acc = function
    | (t0, c0, v0) :: ((t1, c1, v1) :: _ as rest) when t1 > t0 ->
      let inside = List.filter_map (fun (at, l) -> if at >= t0 && at < t1 then Some l else None) latencies in
      let dv = v1 - v0 in
      go ({ rate = float_of_int dv /. (t1 -. t0);
            cpu_us = (c1 -. c0) *. 1e6 /. float_of_int (max 1 dv);
            p50 = Stats.median (Array.of_list inside); verdicts = dv } :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] samples

(* The gateway's heap grows with the rounds it has served, so its peak
   RSS is read when the [rss_mark]th verdict arrives: the same work on
   every run, however fast the host. *)
let rss_mark = 10_000

let gateway_run ~cli ~seed ~seconds =
  let built = Dialed_apps.Apps.build W.app in
  let shape_set () = Array.init W.gateway_shapes (fun s -> W.run_shape built s) in
  let per_prover = Array.init W.provers (fun _ -> shape_set ()) in
  let cycles = List.sort_uniq compare (Array.to_list (Array.map snd per_prover.(0))) in
  let sizes =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun (d, _) -> W.report_bytes (A.Device.attest d ~challenge:"size")) per_prover.(0)))
  in
  (* Half the launches come before the load and half after it: the
     host's speed drifts in spells of seconds, and two moments 15 s
     apart steadied the percentile threefold over one. *)
  let setup = ref [] in
  let launch () =
    let g = G.spawn ~cli [] in
    setup := G.first_welcome g ~device_id:(W.device_id 0) :: !setup;
    g
  in
  let launch_and_stop k = for _ = 1 to k do ignore (G.stop (launch ()) : bool * string) done in
  launch_and_stop (setups / 2);
  let g = launch () in
  let start_at = Unix.gettimeofday () +. warmup in
  let stop_at = start_at +. float_of_int seconds in
  let pid = string_of_int g.G.pid in
  (* one sample a second: time, gateway CPU, verdicts so far *)
  let verdicts = Atomic.make 0 in
  let samples = ref [] and rss0 = ref 0 in
  let sample now =
    if !samples = [] then rss0 := G.status_kb pid "VmRSS";
    samples := (now, G.cpu_seconds g.G.pid, Atomic.get verdicts) :: !samples;
    let next = start_at +. Float.of_int (truncate (now -. start_at) + 1) in
    if now >= stop_at || next > stop_at +. 1e-6 then infinity else Float.min next stop_at
  in
  let hwm = Atomic.make 0 in
  let read_hwm () = Atomic.set hwm (G.status_kb pid "VmHWM") in
  let prover p tick =
    let t = LG.tally () in
    let pick = W.shape_picker ~seed ~prover:p W.gateway_shapes in
    let devices = per_prover.(p) in
    let respond (req : C.Protocol.request) =
      A.Device.attest (fst devices.(pick ())) ~challenge:req.challenge
    in
    let win = { LG.start_at; stop_at; tick; verdicts; mark_at = rss_mark; mark = read_hwm } in
    let device_id = W.device_id p in
    (* a lost connection is a failed session; a frame outside the
       protocol is a wrong output *)
    (try
       LG.pipelined t ~port:g.G.port ~device_id ~window:W.window ~respond win
     with
     | Unix.Unix_error _ | Dialed_net.Transport.Closed | Dialed_net.Transport.Timeout ->
       t.LG.failed_sessions <- t.LG.failed_sessions + 1
     | Failure e ->
       t.LG.failed_sessions <- t.LG.failed_sessions + 1;
       t.LG.errors <- e :: t.LG.errors);
    t
  in
  let others =
    List.init (W.provers - 1) (fun i -> Domain.spawn (fun () -> prover (i + 1) (fun _ -> infinity)))
  in
  let t0 = prover 0 sample in
  let t = List.fold_left (fun acc d -> LG.merge acc (Domain.join d)) t0 others in
  let ivs = intervals (List.rev !samples) t.LG.latencies in
  let rss1 = G.status_kb pid "VmRSS" in
  if Atomic.get hwm = 0 then read_hwm ();
  let clean, text = G.stop g in
  launch_and_stop (setups - 1 - (setups / 2));
  let counters = G.counters_of_text text in
  let lat = Stats.sorted (Array.of_list (List.map snd t.LG.latencies)) in
  let after_start = Array.length lat in
  let cpu_us =
    let q = cost ~min_verdicts:cpu_verdicts (fun iv -> iv.cpu_us) ivs in
    if Float.is_finite q then q
    else
      (* a gateway that stalled at once: CPU over the whole window *)
      match !samples with
      | (_, c1, v1) :: _ when List.length !samples > 1 ->
        let _, c0, v0 = List.nth !samples (List.length !samples - 1) in
        (c1 -. c0) *. 1e6 /. float_of_int (max 1 (v1 - v0))
      | _ -> Float.nan
  in
  let why =
    List.concat
      [ (if t.LG.rejected > 0 then [ Printf.sprintf "%d honest rounds rejected" t.LG.rejected ] else []);
        (if List.length cycles <> 1 then [ "shapes differ in prover cycles" ] else []);
        (if List.length sizes <> 1 then [ "shapes differ in report size" ] else []);
        (if t.LG.attempted = 0 then [ "no round was attempted" ] else []);
        (if ivs = [] then [ "no full second was measured" ] else []);
        (if Array.length lat = 0 then [ "no verdict arrived in the window" ] else []);
        List.map (fun e -> "prover: " ^ e) t.LG.errors;
        (if clean then [] else [ "gateway did not stop on SIGINT within 5 s" ]) ]
  in
  let tail_p, tail_v = Option.value (Stats.tail lat) ~default:(0.0, 0.0) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let c = Option.value counters ~default:{ G.frames = 0; bytes = 0; reports = 0 } in
  let inputs =
    let pick = W.shape_picker ~seed ~prover:0 W.gateway_shapes in
    Array.init Layers.sample_rounds (fun _ -> Layers.Attest (fst per_prover.(0).(pick ())))
  in
  { correct = why = [];
    attempted = t.LG.attempted;
    failed = t.LG.attempted - t.LG.completed;
    e2e =
      [ ("completed_share", ratio t.LG.completed t.LG.attempted);
        ("cpu_us_per_round", cpu_us);
        ("setup_s", setup_s (Array.of_list !setup));
        ("peak_rss_mb", float_of_int (Atomic.get hwm) /. 1024.0);
        ("report_bytes", float_of_int (List.hd sizes));
        ("prover_cycles", float_of_int (List.hd cycles)) ];
    layer =
      [ ("rounds_per_s", rate ivs);
        ("round_p50_ms", ms (cost ~min_verdicts:100 (fun iv -> iv.p50) ivs));
        ("net.stall_s", t.LG.stall_s);
        ("net.stalls", float_of_int t.LG.stalls);
        ("net.reply_timeouts", float_of_int t.LG.unanswered);
        ("net.busy", float_of_int t.LG.busy);
        ("net.failed_sessions", float_of_int t.LG.failed_sessions);
        ("net.handshake_ms", ms (Stats.median (Array.of_list t.LG.handshakes)));
        ("net.rss_kb_per_session",
         float_of_int (rss1 - !rss0) /. float_of_int (max 1 t.LG.sessions));
        ("net.round_p99_ms", ms (Stats.percentile lat 99.0));
        ("net.round_tail_pct", tail_p);
        ("net.round_tail_ms", ms tail_v);
        ("net.round_samples", float_of_int after_start);
        ("net.frames_per_round", ratio c.G.frames c.G.reports);
        ("net.bytes_per_round", ratio c.G.bytes c.G.reports);
        (* `serve` runs with its memo off *)
        ("fleet.memo_hit_ratio", 0.0);
        ("fleet.memo_evictions", 0.0) ];
    inputs;
    why }

(* ------------------------------------------------------------------ *)
(* In-process workloads: replay-inproc and fleet-batch *)

(* An in-process workload sets up in about 1 ms, within one spell of the
   host's speed, which drifts over 0.1-2 s. So it sets up
   [set_ups_between] times before every pass and after the last: over a
   60 s trace of set-ups, that steadied the percentile sevenfold over
   101 set-ups in a row. *)
let set_ups_between = 8

(* One pass of an in-process workload: [count] rounds through a
   [Fleet.stream] with [window] reports in flight. [prep n] makes the
   inputs of [n] rounds, untimed. [submit st x i arrive] hands round [i]
   to the stream and gives [arrive] the time and any verdicts the stream
   hands back. [check x i v] is whether [v] is round [i]'s right
   verdict. *)
type 'a passes = {
  count : int;
  window : int option;
  memo : bool;
  prep : int -> 'a;
  submit : F.Fleet.stream -> 'a -> int -> (float -> F.Fleet.verdict list -> unit) -> unit;
  check : 'a -> int -> F.Fleet.verdict -> bool;
}

type measured = {
  attempted : int;
  completed : int;  (** right verdicts within [LG.limit] *)
  stalls : int;
  stall_s : float;
  ivs : interval list;  (** one per pass *)
  lat : float array;    (** sorted round latencies *)
  setups : float array;
  rss_kb : int;
  hits : int;
  misses : int;
  evictions : int;
}

(* Whole passes only, each on a cold memo: a pass front-loads its
   misses, so a pass cut short would weigh misses by where the clock
   stopped. The run measures until the first pass boundary after
   [seconds]. The watchdog rule is the gateway workloads': with rounds
   open, a gap of [LG.limit] or more between verdicts is a stall. *)
let run_passes ~seconds w =
  let setup = ref [] in
  let set_up () =
    let t0 = Unix.gettimeofday () in
    let p = F.Plan.of_built (Dialed_apps.Apps.build W.app) in
    let pl = F.Pool.create ~domains:nproc () in
    setup := (Unix.gettimeofday () -. t0) :: !setup;
    (pl, p)
  in
  let set_up_and_stop k =
    for _ = 1 to k do F.Pool.shutdown (fst (set_up ())) done
  in
  let pool, plan = set_up () in
  let attempted = ref 0 and completed = ref 0 in
  let stalls = ref 0 and stall_s = ref 0.0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let rss () = G.status_kb "self" "VmRSS" in
  let rss0 = ref 0 and rss_peak = ref 0 in
  let pass ~first ~measured x n =
    let memo = if w.memo then Some (F.Memo.create ()) else None in
    let st = F.Fleet.stream ~pool ?window:w.window ?memo plan in
    let sent = Array.make n 0.0 and took = Array.make n 0.0 in
    let landed = ref 0 and last = ref (Unix.gettimeofday ()) in
    let arrive now vs =
      List.iter (fun v ->
          let i = !landed in
          let gap = now -. !last in
          if gap >= LG.limit then (incr stalls; stall_s := !stall_s +. gap);
          last := now;
          took.(i) <- now -. sent.(i);
          if w.check x i v && measured && took.(i) <= LG.limit then incr completed;
          incr landed) vs
    in
    for i = 0 to n - 1 do
      let now = Unix.gettimeofday () in
      if !landed = i then last := now;
      sent.(i) <- now;
      w.submit st x i arrive;
      if first && i land 255 = 255 then rss_peak := max !rss_peak (rss ())
    done;
    let summary = F.Fleet.stream_close st in
    if first then rss_peak := max !rss_peak (rss ());
    arrive (Unix.gettimeofday ()) (List.filteri (fun j _ -> j >= !landed) summary.F.Fleet.verdicts);
    let m = summary.F.Fleet.metrics in
    if measured then begin
      attempted := !attempted + n;
      hits := !hits + m.F.Metrics.memo_hits;
      misses := !misses + m.F.Metrics.memo_misses;
      evictions := !evictions + m.F.Metrics.memo_evictions
    end;
    took
  in
  (* warm-up: workers, scratch arenas and allocator first touch; its
     verdicts are checked like any other *)
  ignore (pass ~first:false ~measured:false (w.prep 256) (min 256 w.count) : float array);
  let stop_at = Unix.gettimeofday () +. float_of_int seconds in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let ivs = ref [] and lat = ref [] in
  while Unix.gettimeofday () < stop_at do
    set_up_and_stop set_ups_between;
    let x = w.prep w.count in
    (* peak_rss_mb: the resident memory the first measured pass adds to
       its inputs, so every run reads it after the same work, as the
       gateway's is read at a fixed verdict count. Every pass starts
       from a collected heap. *)
    Gc.full_major ();
    let first = !ivs = [] in
    if first then rss0 := rss ();
    let t0 = Unix.gettimeofday () and cpu0 = cpu () in
    let took = pass ~first ~measured:true x w.count in
    let k = float_of_int w.count in
    lat := took :: !lat;
    ivs :=
      { rate = k /. (Unix.gettimeofday () -. t0); cpu_us = (cpu () -. cpu0) *. 1e6 /. k;
        p50 = Stats.median took;
        verdicts = w.count } :: !ivs
  done;
  F.Pool.shutdown pool;
  set_up_and_stop set_ups_between;
  { attempted = !attempted; completed = !completed; stalls = !stalls; stall_s = !stall_s;
    ivs = !ivs; lat = Stats.sorted (Array.concat !lat); setups = Array.of_list !setup;
    rss_kb = !rss_peak - !rss0; hits = !hits; misses = !misses; evictions = !evictions }

let in_process_outcome m ~why ~report_bytes ~cycles ~layer ~inputs =
  let tail_p, tail_v = Option.value (Stats.tail m.lat) ~default:(0.0, 0.0) in
  let passes = List.length m.ivs in
  { correct = why = [];
    attempted = m.attempted;
    failed = m.attempted - m.completed;
    e2e =
      [ ("completed_share", float_of_int m.completed /. float_of_int (max 1 m.attempted));
        ("cpu_us_per_round", cost (fun iv -> iv.cpu_us) m.ivs);
        ("setup_s", setup_s m.setups);
        ("peak_rss_mb", float_of_int m.rss_kb /. 1024.0);
        ("report_bytes", float_of_int report_bytes);
        ("prover_cycles", float_of_int cycles) ];
    layer =
      [ ("rounds_per_s", rate m.ivs);
        ("round_p50_ms", ms (cost (fun iv -> iv.p50) m.ivs));
        ("net.stall_s", m.stall_s);
        ("net.stalls", float_of_int m.stalls);
        ("net.round_p99_ms", ms (Stats.percentile m.lat 99.0));
        ("net.round_tail_pct", tail_p);
        ("net.round_tail_ms", ms tail_v);
        ("net.round_samples", float_of_int (Array.length m.lat));
        ("fleet.memo_hit_ratio", float_of_int m.hits /. float_of_int (max 1 (m.hits + m.misses)));
        ("fleet.memo_evictions", float_of_int m.evictions /. float_of_int (max 1 passes)) ]
      @ layer;
    inputs;
    why = why @ (if passes = 0 then [ "no pass was measured" ] else []) }

(* Up to four wrong verdicts are described; all of them count. *)
let wrong_notes () =
  let wrong = ref [] in
  let note s = if List.length !wrong < 4 then wrong := s :: !wrong in
  (note, fun () -> List.rev !wrong)

(* replay-inproc: the gateway's report-to-verdict work, in this process
   and without its event loop or sockets. Each round's Report_seq frame
   is decoded, its report decoded with its log digest, its challenge
   redeemed at the gate, and the report handed to a memo-less
   Fleet.stream on nproc domains, with the two provers' windows of 16
   in flight; each verdict is encoded as the Verdict_seq frame the
   gateway sends. Every report is replayed. The prover side (challenge,
   attestation, report frame) is made before each pass, untimed. *)
let inproc_rounds = 4096

let replay_inproc ~seed ~seconds =
  let built = Dialed_apps.Apps.build W.app in
  let shapes = Array.init W.gateway_shapes (fun s -> W.run_shape built s) in
  let devices = Array.map fst shapes in
  let cycles = List.sort_uniq compare (Array.to_list (Array.map snd shapes)) in
  let sizes =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun d -> W.report_bytes (A.Device.attest d ~challenge:"size")) devices))
  in
  let note_wrong, wrong = wrong_notes () in
  let frames = ref 0 and bytes = ref 0 in
  let pick = W.shape_picker ~seed ~prover:0 W.gateway_shapes in
  let gate_seed = Printf.sprintf "perfbench-%d" seed in
  let prep n =
    let gate = C.Protocol.make_gate ~seed:gate_seed () in
    let reqs = Array.init n (fun _ -> C.Protocol.gate_issue gate ~args:W.app.Dialed_apps.Apps.benign_args) in
    let wires =
      Array.mapi
        (fun seq (req : C.Protocol.request) ->
           let r = A.Device.attest devices.(pick ()) ~challenge:req.challenge in
           N.Codec.encode (N.Codec.Report_seq { seq; wire = A.Wire.encode r }))
        reqs
    in
    (gate, reqs, wires, Array.make n false)
  in
  let submit st (gate, reqs, wires, refused) i arrive =
    let frame = wires.(i) in
    frames := !frames + 1;
    bytes := !bytes + String.length frame;
    let report, digest =
      match N.Codec.decode frame with
      | Ok (N.Codec.Report_seq { seq; wire }) when seq = i ->
        (match A.Wire.decode_digested wire with
         | Ok rd -> rd
         | Error e -> failwith ("report did not decode: " ^ A.Wire.error_to_string e))
      | _ -> failwith "report frame did not decode"
    in
    (match C.Protocol.gate_redeem gate reqs.(i) report with
     | Ok () -> ()
     | Error e -> refused.(i) <- true; note_wrong (Printf.sprintf "round %d: the gate refused a fresh report: %s" i e));
    while not (F.Fleet.stream_try_submit ~digest st (W.device_id (i land 1)) report) do
      let vs = F.Fleet.stream_next st in
      arrive (Unix.gettimeofday ()) vs
    done;
    arrive (Unix.gettimeofday ()) (F.Fleet.stream_poll st)
  in
  let check (_, _, _, refused) i (v : F.Fleet.verdict) =
    let findings =
      List.map (fun f -> (C.Verifier.finding_kind f, Format.asprintf "%a" C.Verifier.pp_finding f)) v.findings
    in
    let frame = N.Codec.encode (N.Codec.Verdict_seq { seq = i; accepted = v.accepted; findings }) in
    frames := !frames + 1;
    bytes := !bytes + String.length frame;
    if not v.accepted then
      note_wrong (Printf.sprintf "honest round %d rejected (%s)" i (Layers.first_kind v.findings));
    v.accepted && not refused.(i)
  in
  let m =
    run_passes ~seconds
      { count = inproc_rounds; window = Some (W.provers * W.window); memo = false; prep; submit; check }
  in
  let rounds = float_of_int (max 1 (!frames / 2)) in
  let why =
    wrong ()
    @ (if List.length cycles <> 1 then [ "shapes differ in prover cycles" ] else [])
    @ (if List.length sizes <> 1 then [ "shapes differ in report size" ] else [])
  in
  let inputs = Array.init Layers.sample_rounds (fun _ -> Layers.Attest devices.(pick ())) in
  in_process_outcome m ~why ~report_bytes:(List.hd sizes) ~cycles:(List.hd cycles)
    ~layer:[ ("net.frames_per_round", float_of_int !frames /. rounds);
             ("net.bytes_per_round", float_of_int !bytes /. rounds) ]
    ~inputs

(* fleet-batch: the offline path (`dialed fleet --memo --stream`), in
   this process. *)
let fleet_batch ~seed ~seconds =
  let built = Dialed_apps.Apps.build W.app in
  let items = W.fleet_reports built ~seed in
  let cycles = snd (W.run_shape built 0) in
  let sizes =
    List.sort_uniq compare (Array.to_list (Array.map (fun it -> W.report_bytes it.W.report) items))
  in
  let note_wrong, wrong = wrong_notes () in
  let submit st items i arrive =
    F.Fleet.stream_submit st items.(i).W.id items.(i).W.report;
    arrive (Unix.gettimeofday ()) (F.Fleet.stream_poll st)
  in
  let check items i (v : F.Fleet.verdict) =
    match items.(i).W.expect with
    | None -> if not v.accepted then note_wrong (Printf.sprintf "honest report %d rejected" i); v.accepted
    | Some k ->
      let got = if v.accepted then "accepted" else Layers.first_kind v.findings in
      if got <> k then note_wrong (Printf.sprintf "report %d: expected %s, got %s" i k got);
      got = k
  in
  let m =
    run_passes ~seconds
      { count = Array.length items; window = None; memo = true; prep = (fun _ -> items); submit; check }
  in
  let why = wrong () @ (if List.length sizes <> 1 then [ "reports differ in size" ] else []) in
  in_process_outcome m ~why ~report_bytes:(List.hd sizes) ~cycles
    ~layer:[ ("net.frames_per_round", 0.0); ("net.bytes_per_round", 0.0) ]
    ~inputs:(Array.map (fun it -> Layers.Verify it) items)
(* ------------------------------------------------------------------ *)

let json_metrics units l =
  String.concat ", "
    (List.map
       (fun (k, v) ->
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k
            (if Float.is_finite v then v else 0.0) (List.assoc k units))
       l)

let units =
  [ ("rounds_per_s", "1/s"); ("round_p50_ms", "ms"); ("completed_share", "ratio");
    ("cpu_us_per_round", "us"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("report_bytes", "bytes"); ("prover_cycles", "cycles");
    ("net.stall_s", "s"); ("net.stalls", "count"); ("net.reply_timeouts", "count");
    ("net.busy", "count"); ("net.failed_sessions", "count"); ("net.handshake_ms", "ms");
    ("net.rss_kb_per_session", "kB"); ("net.round_p99_ms", "ms");
    ("net.round_tail_pct", "percentile"); ("net.round_tail_ms", "ms");
    ("net.round_samples", "count"); ("net.frames_per_round", "count");
    ("net.bytes_per_round", "bytes"); ("fleet.memo_hit_ratio", "ratio");
    ("fleet.memo_evictions", "count");
    ("core.replay_us", "us"); ("msp430.replay_steps", "count");
    ("core.precheck_us", "us"); ("crypto.hmac_us", "us"); ("apex.wire_decode_us", "us");
    ("net.codec_decode_us", "us"); ("net.codec_encode_us", "us"); ("core.gate_us", "us");
    ("fleet.memo_hit_us", "us"); ("fleet.memo_insert_us", "us");
    ("fleet.stream_handoff_us", "us"); ("net.evloop_wake_p99_us", "us");
    ("net.evloop_late_wakes", "count"); ("lifecycle.admit_us", "us");
    ("lifecycle.recheck_us", "us"); ("core.build_ms", "ms"); ("staticcheck.audit_ms", "ms");
    ("fleet.plan_ms", "ms"); ("apex.attest_us", "us"); ("gateway.unattributed_us", "us") ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --cli PATH --out DIR [--rev REV]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let kind = match W.of_name (get "workload") with Some k -> k | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let out = get "out" in
  let rev = Option.value (List.assoc_opt "rev" opts) ~default:"unknown" in
  let loadavg = read_first_line "/proc/loadavg" and ticks0 = cpu_ticks () in
  let o =
    match kind with
    | W.Replay_inproc -> replay_inproc ~seed ~seconds
    | W.Fleet_batch -> fleet_batch ~seed ~seconds
    | W.Replay_bound -> gateway_run ~cli:(get "cli") ~seed ~seconds
  in
  let o, metrics =
    if trace = 0 then (o, o.e2e)
    else begin
      let trace_path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" (W.name kind) seed) in
      let l = Layers.run ~kind ~trace_path ~inputs:o.inputs in
      Printf.printf "{\"trace\": %S}\n" trace_path;
      (* the untraced run's own figures, so one command prints both *)
      Printf.printf "{\"end_to_end\": {%s}}\n" (json_metrics units o.e2e);
      let why = o.why @ List.rev l.Layers.checks.Layers.why in
      ( { o with correct = o.correct && l.Layers.checks.Layers.ok; why },
        o.layer @ l.Layers.metrics
        @ [ ("gateway.unattributed_us",
             List.assoc "cpu_us_per_round" o.e2e -. l.Layers.gateway_us) ] )
    end
  in
  (* a per-layer metric a run could not measure reads 0; an
     end-to-end one makes the run fail *)
  let unmeasured = List.filter (fun (_, v) -> not (Float.is_finite v)) o.e2e in
  let o =
    if trace = 1 || unmeasured = [] then o
    else
      { o with correct = false;
               why = o.why @ List.map (fun (k, _) -> k ^ " was not measured") unmeasured }
  in
  print_endline (host_json ~rev ~loadavg ~ticks0);
  List.iter (fun w -> Printf.eprintf "check failed: %s\n" w) o.why;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (json_metrics units metrics)
