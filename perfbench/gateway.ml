(* The gateway under test, run as users run it: a `dialed serve` child
   process with its default engine, domains and read deadline, reached
   over TCP on 127.0.0.1. *)

module N = Dialed_net

type t = {
  pid : int;
  out : Unix.file_descr;   (** the child's stdout *)
  port : int;
  launched : float;
  text : Buffer.t;         (** everything the child printed so far *)
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* Append what the child printed within [timeout] seconds; false on
   end of file. *)
let read_some t timeout =
  match Unix.select [ t.out ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> true
  | _ ->
    let buf = Bytes.create 4096 in
    (match Unix.read t.out buf 0 4096 with
     | 0 -> false
     | n -> Buffer.add_subbytes t.text buf 0 n; true)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let port_of_text s =
  let key = "on 127.0.0.1:" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length s then None
    else if String.sub s i kl = key then begin
      let j = ref (i + kl) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j < String.length s && !j > i + kl then
        Some (int_of_string (String.sub s (i + kl) (!j - i - kl)))
      else None
    end
    else find (i + 1)
  in
  find 0

(* Launch [cli serve --port 0 flags] and wait for the line naming its
   port. *)
let spawn ~cli flags =
  let r, w = Unix.pipe ~cloexec:true () in
  let launched = Unix.gettimeofday () in
  let argv = Array.of_list (cli :: "serve" :: "--port" :: "0" :: flags) in
  let pid = Unix.create_process cli argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let t = { pid; out = r; port = 0; launched; text = Buffer.create 1024 } in
  let deadline = launched +. 60.0 in
  let rec wait () =
    match port_of_text (Buffer.contents t.text) with
    | Some port -> { t with port }
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then fail "gateway printed no port within 60 s";
      if not (read_some t left) then
        fail "gateway exited during start-up: %s" (Buffer.contents t.text);
      wait ()
  in
  wait ()

(* Dial and greet until the gateway answers Welcome; the time from
   launch to that Welcome is the gateway's set-up time. *)
let first_welcome t ~device_id =
  let deadline = t.launched +. 60.0 in
  let rec go () =
    match
      let conn = N.Transport.tcp_connect ~host:"127.0.0.1" ~port:t.port () in
      Fun.protect ~finally:(fun () -> N.Transport.close conn) (fun () ->
          let chan = N.Chan.create conn in
          N.Chan.send chan (N.Codec.Hello_ex { device_id; window = 1; firmware = "" });
          let r = N.Chan.recv chan ~deadline:5.0 () in
          let at = Unix.gettimeofday () in
          (try N.Chan.send chan N.Codec.Bye with N.Transport.Closed -> ());
          (r, at))
    with
    | Ok (Some (N.Codec.Welcome _)), at -> at -. t.launched
    | Ok (Some m), _ -> fail "gateway greeted with %s" (Format.asprintf "%a" N.Codec.pp_msg m)
    | (Ok None | Error _), _ -> fail "gateway closed the greeting"
    | exception (Unix.Unix_error _ | N.Transport.Closed | N.Transport.Timeout)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* SIGINT makes `serve` print its stats and exit. A gateway that does
   not exit within [grace] seconds is killed and its stats are lost. *)
let stop ?(grace = 5.0) t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 && read_some t left then drain ()
  in
  drain ();
  let clean = Unix.gettimeofday () < deadline in
  if not clean then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  Unix.close t.out;
  (clean, Buffer.contents t.text)

(* ------------------------------------------------------------------ *)
(* /proc readers *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread of [pid], in seconds (clock ticks of
   1/100 s, the Linux USER_HZ). *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields after the command name start at field 3 (state) *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* A "Key:   N kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  let s = read_file (Printf.sprintf "/proc/%s/status" pid) in
  List.find_map
    (fun line ->
       match String.index_opt line ':' with
       | Some i when String.sub line 0 i = key ->
         Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) " %d" Option.some
       | _ -> None)
    (String.split_on_char '\n' s)
  |> Option.value ~default:0

(* ------------------------------------------------------------------ *)
(* The counters `serve` prints when it stops *)

type counters = {
  frames : int;       (** rx + tx *)
  bytes : int;        (** rx + tx *)
  reports : int;
}

let counters_of_text text =
  let lines = List.map String.trim (String.split_on_char '\n' text) in
  let scan prefix fmt k =
    List.find_map
      (fun l ->
         if not (String.starts_with ~prefix l) then None
         else try Some (Scanf.sscanf l fmt k) with Scanf.Scan_failure _ | End_of_file -> None)
      lines
  in
  match
    ( scan "frames:" "frames: %d rx / %d tx bytes: %d rx / %d tx"
        (fun fr ft br bt -> (fr + ft, br + bt)),
      scan "rounds:" "rounds: %d requests, %d reports" (fun _ r -> r) )
  with
  | Some (frames, bytes), Some reports -> Some { frames; bytes; reports }
  | _ -> None
