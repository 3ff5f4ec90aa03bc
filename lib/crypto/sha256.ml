let digest_size = 32
let block_size = 64

(* Exported for the SW-Att code generator's ROM tables. The compression
   itself runs in dialed_sha256_stubs.c, which holds the same K table. *)
let round_constants =
  Array.map Int32.of_int
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5;
       0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
       0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
       0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
       0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
       0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
       0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
       0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3;
       0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5;
       0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
       0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_state =
  Array.map Int32.of_int
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
       0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* The chaining state is 32 bytes holding the eight H words big-endian,
   which is also the digest layout. *)
let initial_h =
  let b = Bytes.create digest_size in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) w) initial_state;
  Bytes.unsafe_to_string b

external compress_unsafe : Bytes.t -> Bytes.t -> int -> int -> unit
  = "dialed_sha256_compress"
[@@noalloc]

(* Fold [n] 64-byte blocks of [data] starting at [off] into [h]. The
   kernel trusts its arguments, so the bounds are checked here. *)
let compress h data off n =
  if off < 0 || n < 0 || off > Bytes.length data - (n * block_size) then
    invalid_arg "Sha256.compress";
  compress_unsafe h data off n

(* The message schedule lives on the C stack, so a context is just the
   chaining state and the partial block: [copy] is two small blits. *)
type ctx = {
  h : Bytes.t;            (* chaining state, updated in place *)
  buf : Bytes.t;          (* < 64 bytes awaiting a full block *)
  mutable buf_len : int;
  mutable total_len : int; (* message bytes consumed so far *)
}

let init () =
  { h = Bytes.of_string initial_h; buf = Bytes.create block_size;
    buf_len = 0; total_len = 0 }

let copy ctx =
  { h = Bytes.copy ctx.h; buf = Bytes.copy ctx.buf; buf_len = ctx.buf_len;
    total_len = ctx.total_len }

let update ctx data =
  let len = String.length data in
  let db = Bytes.unsafe_of_string data in
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit db 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = block_size then begin
      compress ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* every full block straight from the input, in one kernel call *)
  let blocks = (len - !pos) / block_size in
  if blocks > 0 then begin
    compress ctx.h db !pos blocks;
    pos := !pos + (blocks * block_size)
  end;
  if !pos < len then begin
    Bytes.blit db !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end;
  ctx.total_len <- ctx.total_len + len;
  ctx

let finalize ctx =
  (* pad into a local block and a copy of the state, so the context
     stays usable and shared key states are never mutated *)
  let h = Bytes.copy ctx.h in
  let total = if ctx.buf_len + 9 <= block_size then block_size else 2 * block_size in
  let block = Bytes.make total '\000' in
  Bytes.blit ctx.buf 0 block 0 ctx.buf_len;
  Bytes.set block ctx.buf_len '\x80';
  Bytes.set_int64_be block (total - 8) (Int64.of_int (8 * ctx.total_len));
  compress h block 0 (total / block_size);
  Bytes.unsafe_to_string h

let digest msg = finalize (update (init ()) msg)

let hex_digit n =
  Char.unsafe_chr (if n < 10 then Char.code '0' + n else Char.code 'a' + n - 10)

let hex raw =
  let n = String.length raw in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get raw i) in
    Bytes.unsafe_set out (2 * i) (hex_digit (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (hex_digit (c land 0xF))
  done;
  Bytes.unsafe_to_string out
