(* Workload inputs, made from the seed alone.

   Every workload runs the gateway's default firmware (the fire sensor)
   and varies its ADC readings to make distinct execution logs ("log
   shapes"). The four readings of a shape always sum to 2360, so every
   shape takes the same path through the operation: report size and
   prover cycles are the same for every shape and every seed, while
   each shape's I-Log, and so its memo key, is its own. *)

module A = Dialed_apex
module C = Dialed_core
module M = Dialed_msp430
module Apps = Dialed_apps.Apps
module Hmac = Dialed_crypto.Hmac

type kind = Replay_inproc | Fleet_batch | Replay_bound

let kinds =
  [ ("replay-inproc", Replay_inproc); ("fleet-batch", Fleet_batch);
    ("replay-bound", Replay_bound) ]

let of_name s = List.assoc_opt s kinds
let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let app = Apps.fire_sensor

(* Closed-loop shape of replay-bound, and the rounds in flight of
   replay-inproc. *)
let provers = 2
let window = 16
let gateway_shapes = 8

(* fleet-batch: Zipf-ranked shapes over four times the memo's 4,096
   entries; one pass of [fleet_pass] reports holds about 4,700 distinct
   logs, so a cold memo fills and evicts within every pass. *)
let fleet_shapes = 16384
let fleet_pass = 16384
let tamper_every = 16

let samples s =
  let u = (s land 63) - 32
  and v = ((s lsr 6) land 63) - 32
  and w = ((s lsr 12) land 63) - 32 in
  [ 590 + u; 590 - u + v; 590 - v + w; 590 - w ]

(* One device per shape, run once: a prover re-attests its standing run
   under each fresh challenge, so a round costs the prover one SW-Att
   pass and the gateway, not the simulated fleet, is what is measured. *)
let run_shape built s =
  let device = C.Pipeline.device built in
  M.Peripherals.feed_adc (A.Device.board device) (samples s);
  let r = A.Device.run_operation ~args:app.Apps.benign_args device in
  if not r.A.Device.completed then
    failwith (Printf.sprintf "shape %d did not complete" s);
  (device, r.A.Device.cycles)

let device_id prover = Printf.sprintf "bench-prover-%d" prover

(* The shape each round of prover [prover] attests to. *)
let shape_picker ~seed ~prover n =
  let rng = Random.State.make [| seed; prover; 0x5A |] in
  fun () -> Random.State.int rng n

(* Zipf(1) over ranks [0, n): rank r carries weight 1/(r+1). *)
let zipf_picker n rng =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

let le16 v =
  Printf.sprintf "%c%c" (Char.chr (v land 0xFF)) (Char.chr ((v lsr 8) land 0xFF))

(* The token a key-holding attacker would compute over a doctored
   report (the binding order of [Pox.issue]). *)
let remac built (r : A.Pox.report) =
  let token =
    Hmac.mac_parts ~key:A.Device.default_key
      [ r.challenge; le16 r.er_min; le16 r.er_max; le16 r.er_exit;
        le16 r.or_min; le16 r.or_max; (if r.exec then "\001" else "\000");
        built.C.Pipeline.expected_er; r.or_data ]
  in
  { r with A.Pox.token }

(* Log entry k lives at address or_max - 2k. Entries from 9 on are the
   run's own CF-Log and I-Log; the first one holding the shape's first
   ADC reading is that reading's I-Log entry. *)
let ilog_offset (r : A.Pox.report) reading =
  let word off =
    Char.code r.or_data.[off] lor (Char.code r.or_data.[off + 1] lsl 8)
  in
  let rec find k =
    let off = r.or_max - (2 * k) - r.or_min in
    if off < 0 then failwith "no I-Log entry holds the first reading"
    else if word off = reading then off
    else find (k + 1)
  in
  find 9

(* A device that logged a reading it did not take and signed the log
   with its real key: the token verifies, the replay must reject. *)
let flip_ilog built shape (r : A.Pox.report) =
  let off = ilog_offset r (List.hd (samples shape)) in
  let b = Bytes.of_string r.or_data in
  Bytes.set b (off + 1) (Char.chr (Char.code (Bytes.get b (off + 1)) lxor 0x80));
  remac built { r with A.Pox.or_data = Bytes.to_string b }

(* A report whose token was forged without the key. *)
let forge_token (r : A.Pox.report) =
  let b = Bytes.of_string r.token in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
  { r with A.Pox.token = Bytes.to_string b }

type item = {
  id : string;
  report : A.Pox.report;
  expect : string option;  (** [None]: accept; [Some k]: reject as [k] *)
}

let expect_ilog = "log-divergence"
let expect_token = "bad-token"

(* One pass of fleet-batch reports. Every [tamper_every]th report is
   tampered, alternating an I-Log flip and a forged token; the tampered
   positions (and so the tampered count) do not depend on the seed. *)
let fleet_reports ?(count = fleet_pass) built ~seed =
  let pick = zipf_picker fleet_shapes (Random.State.make [| seed; 0xF1EE7 |]) in
  let shapes = Array.init count (fun _ -> pick ()) in
  (* run each distinct shape once and attest every report that uses it,
     so one device is alive at a time *)
  let by_shape = Hashtbl.create 8192 in
  Array.iteri (fun i s -> Hashtbl.replace by_shape s (i :: Option.value (Hashtbl.find_opt by_shape s) ~default:[])) shapes;
  let items = Array.make count None in
  Hashtbl.iter
    (fun s indices ->
       let device, _ = run_shape built s in
       List.iter
         (fun i ->
            let report =
              A.Device.attest device ~challenge:(Printf.sprintf "fleet-%08x-%06d" (seed land 0xFFFFFFFF) i)
            in
            let id = Printf.sprintf "dev-%05d" s in
            items.(i) <-
              Some
                (if i mod tamper_every <> tamper_every - 1 then { id; report; expect = None }
                 else if i / tamper_every mod 2 = 0 then
                   { id; report = flip_ilog built s report; expect = Some expect_ilog }
                 else { id; report = forge_token report; expect = Some expect_token }))
         indices)
    by_shape;
  Array.map Option.get items

let report_bytes r = String.length (A.Wire.encode r)
