(* The benchmark's own tests: seeded inputs, the tail-percentile rule,
   and the watchdog that bounds a run against a silent gateway. *)

module A = Dialed_apex
module N = Dialed_net
open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let wires items = Array.map (fun it -> A.Wire.encode it.Workload.report) items

let test_generator () =
  let built = Dialed_apps.Apps.build Workload.app in
  let a = Workload.fleet_reports ~count:48 built ~seed:7 in
  let b = Workload.fleet_reports ~count:48 built ~seed:7 in
  let c = Workload.fleet_reports ~count:48 built ~seed:8 in
  check "same seed, same fleet reports" (wires a = wires b);
  check "same seed, same expectations"
    (Array.map (fun it -> it.Workload.expect) a = Array.map (fun it -> it.Workload.expect) b);
  check "another seed, other fleet reports" (wires a <> wires c);
  let picks seed = let p = Workload.shape_picker ~seed ~prover:1 8 in List.init 64 (fun _ -> p ()) in
  check "same seed, same shape schedule" (picks 3 = picks 3);
  check "another seed, another shape schedule" (picks 3 <> picks 4)

let test_tail () =
  let arr n = Array.init n (fun i -> float_of_int (i + 1)) in
  let tail n = Option.map fst (Stats.tail (arr n)) in
  check "19 samples: no percentile has ten beyond the median" (tail 19 = None);
  check "20 samples: the median" (tail 20 = Some 50.0);
  check "100 samples: p90" (tail 100 = Some 90.0);
  check "999 samples: p90, p99 has only nine beyond" (tail 999 = Some 90.0);
  check "1000 samples: p99" (tail 1000 = Some 99.0);
  check "10000 samples: p99.9" (tail 10000 = Some 99.9);
  check "p99 of 1..1000 is 990" (Stats.percentile (arr 1000) 99.0 = 990.0)

(* A peer that accepts connections and never writes a byte. *)
let silent_peer () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let held = ref [] in
  let _ = Thread.create (fun () ->
      try while true do held := fst (Unix.accept sock) :: !held done
      with Unix.Unix_error _ -> ()) () in
  (port, fun () -> List.iter Unix.close !held; Unix.close sock)

let test_watchdog () =
  let port, close = silent_peer () in
  let t = Loadgen.tally () in
  let t0 = Unix.gettimeofday () in
  let win = { Loadgen.start_at = t0; stop_at = t0 +. 1.0; tick = (fun _ -> infinity);
      verdicts = Atomic.make 0; mark_at = 0; mark = ignore } in
  let respond _ = failwith "no request ever arrives" in
  Loadgen.pipelined t ~port ~device_id:"silent" ~window:4 ~respond win;
  let elapsed = Unix.gettimeofday () -. t0 in
  check "pipelined run against a silent peer ends on time" (elapsed < 3.0);
  check "the silent peer is counted as a stall" (t.Loadgen.stalls >= 1 && t.stall_s >= 1.0);
  check "no round completed" (t.completed = 0);
  close ()

let () =
  test_generator ();
  test_tail ();
  test_watchdog ();
  if !failures > 0 then exit 1
