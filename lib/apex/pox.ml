module Memory = Dialed_msp430.Memory
module Hmac = Dialed_crypto.Hmac

type report = {
  challenge : string;
  er_min : int;
  er_max : int;
  er_exit : int;
  or_min : int;
  or_max : int;
  exec : bool;
  or_data : string;
  token : string;
}

(* The token covers challenge ‖ header ‖ ER ‖ OR, where the 11-byte
   header is the five layout words little-endian and the EXEC byte. *)
let token_parts ~challenge ~er_min ~er_max ~er_exit ~or_min ~or_max ~exec
    ~er_bytes ~or_data =
  let hdr = Bytes.create 11 in
  Bytes.set_uint16_le hdr 0 (er_min land 0xFFFF);
  Bytes.set_uint16_le hdr 2 (er_max land 0xFFFF);
  Bytes.set_uint16_le hdr 4 (er_exit land 0xFFFF);
  Bytes.set_uint16_le hdr 6 (or_min land 0xFFFF);
  Bytes.set_uint16_le hdr 8 (or_max land 0xFFFF);
  Bytes.set hdr 10 (if exec then '\001' else '\000');
  [ challenge; Bytes.unsafe_to_string hdr; er_bytes; or_data ]

(* Canonical log digest: "DMEMO1", the five layout words little-endian,
   then the OR bytes, streamed without building the preimage. *)
let log_digest r =
  let module Sha = Dialed_crypto.Sha256 in
  let hdr = Bytes.create 16 in
  Bytes.blit_string "DMEMO1" 0 hdr 0 6;
  Bytes.set_uint16_le hdr 6 (r.er_min land 0xFFFF);
  Bytes.set_uint16_le hdr 8 (r.er_max land 0xFFFF);
  Bytes.set_uint16_le hdr 10 (r.er_exit land 0xFFFF);
  Bytes.set_uint16_le hdr 12 (r.or_min land 0xFFFF);
  Bytes.set_uint16_le hdr 14 (r.or_max land 0xFFFF);
  let ctx = Sha.update (Sha.init ()) (Bytes.unsafe_to_string hdr) in
  Sha.finalize (Sha.update ctx r.or_data)

let issue vrased mem ~exec layout ~challenge =
  let { Layout.er_min; er_max; er_exit; or_min; or_max; stack_top = _ } = layout in
  let er_bytes = Memory.dump mem ~addr:er_min ~len:(er_max - er_min + 1) in
  let or_data = Memory.dump mem ~addr:or_min ~len:(or_max + 2 - or_min) in
  let token =
    Vrased.mac_parts vrased
      (token_parts ~challenge ~er_min ~er_max ~er_exit ~or_min ~or_max ~exec
         ~er_bytes ~or_data)
  in
  { challenge; er_min; er_max; er_exit; or_min; or_max; exec; or_data; token }

let verify_with ~key_state ~expected_er r =
  if String.length expected_er <> r.er_max - r.er_min + 1 then
    Error "expected ER image size does not match the claimed range"
  else begin
    let expected_token =
      Hmac.mac_parts_with key_state
        (token_parts ~challenge:r.challenge ~er_min:r.er_min ~er_max:r.er_max
           ~er_exit:r.er_exit ~or_min:r.or_min ~or_max:r.or_max ~exec:r.exec
           ~er_bytes:expected_er ~or_data:r.or_data)
    in
    if not (Hmac.equal expected_token r.token) then
      Error "token mismatch: code, output or parameters were tampered with"
    else if not r.exec then
      Error "EXEC = 0: the operation did not complete untampered"
    else Ok ()
  end

let verify ~key ~expected_er r =
  verify_with ~key_state:(Hmac.key_state ~key) ~expected_er r

let accept_exec r = r.exec
