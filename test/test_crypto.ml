(* SHA-256 / HMAC-SHA256 against FIPS and RFC 4231 test vectors,
   incremental-update properties, and the C compression kernel against
   the pure-OCaml reference in [Sha256_ref]. *)

module Sha256 = Dialed_crypto.Sha256
module Ref = Sha256_ref
module Hmac = Dialed_crypto.Hmac

let check_str = Alcotest.(check string)

let test_sha256_vectors () =
  check_str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest ""));
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest "abc"));
  check_str "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest (String.make 1_000_000 'a')));
  (* NIST 896-bit (two-block) message *)
  check_str "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hex
       (Sha256.digest
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
           ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))

let test_sha256_block_boundaries () =
  (* lengths straddling the 55/56/64-byte padding boundaries *)
  let golden =
    [ (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0") ]
  in
  List.iter
    (fun (len, expect) ->
       check_str (Printf.sprintf "len %d" len) expect
         (Sha256.hex (Sha256.digest (String.make len 'a'))))
    golden

let test_incremental () =
  let msg = "The quick brown fox jumps over the lazy dog" in
  let whole = Sha256.digest msg in
  let split_at n =
    let a = String.sub msg 0 n and b = String.sub msg n (String.length msg - n) in
    Sha256.finalize (Sha256.update (Sha256.update (Sha256.init ()) a) b)
  in
  for n = 0 to String.length msg do
    check_str (Printf.sprintf "split %d" n) (Sha256.hex whole) (Sha256.hex (split_at n))
  done

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 1 *)
  check_str "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  (* test case 2: short key "Jefe" *)
  check_str "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* test case 3: 20x 0xaa key, 50x 0xdd data *)
  check_str "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hex (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* test case 6: key longer than the block size *)
  check_str "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hex
       (Hmac.mac ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_mac_parts () =
  let key = "secret" in
  check_str "parts = concatenation"
    (Hmac.hex (Hmac.mac ~key "abcdef"))
    (Hmac.hex (Hmac.mac_parts ~key [ "ab"; "cd"; "ef" ]))

let test_verify () =
  let key = "k" and msg = "m" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key ~msg ~tag);
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key ~msg ~tag:bad);
  Alcotest.(check bool) "rejects truncation" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16));
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify ~key:"other" ~msg ~tag)

let test_equal () =
  let tag = Hmac.mac ~key:"k" "m" in
  let last = String.length tag - 1 in
  let flip_last =
    String.mapi (fun i c -> if i = last then Char.chr (Char.code c lxor 0x80) else c) tag
  in
  Alcotest.(check bool) "equal to itself" true (Hmac.equal tag (String.sub tag 0 32));
  Alcotest.(check bool) "last byte differs" false (Hmac.equal tag flip_last);
  Alcotest.(check bool) "prefix is not equal" false (Hmac.equal tag (String.sub tag 0 31));
  Alcotest.(check bool) "empty strings" true (Hmac.equal "" "")

let test_copy_independence () =
  (* [update] mutates in place, so forks must be taken with [copy] — and
     a fork must never disturb its origin or siblings *)
  let base = Sha256.update (Sha256.init ()) "shared prefix " in
  let left = Sha256.copy base and right = Sha256.copy base in
  check_str "left branch"
    (Sha256.hex (Sha256.digest "shared prefix left"))
    (Sha256.hex (Sha256.finalize (Sha256.update left "left")));
  check_str "right branch"
    (Sha256.hex (Sha256.digest "shared prefix right"))
    (Sha256.hex (Sha256.finalize (Sha256.update right "right")));
  (* finalize is non-destructive: a finalized ctx can keep absorbing *)
  check_str "continue after finalize"
    (Sha256.hex (Sha256.digest "shared prefix left-more"))
    (Sha256.hex (Sha256.finalize (Sha256.update left "-more")));
  (* and the origin never saw any of it *)
  check_str "origin undisturbed"
    (Sha256.hex (Sha256.digest "shared prefix tail"))
    (Sha256.hex (Sha256.finalize (Sha256.update base "tail")))

let test_key_state () =
  let key = String.make 20 '\x0b' in
  let ks = Hmac.key_state ~key in
  check_str "key_state = mac"
    (Hmac.hex (Hmac.mac ~key "Hi There"))
    (Hmac.hex (Hmac.mac_with ks "Hi There"));
  check_str "key_state parts = mac"
    (Hmac.hex (Hmac.mac ~key "Hi There"))
    (Hmac.hex (Hmac.mac_parts_with ks [ "Hi "; "There" ]));
  (* the precomputed state is reusable across messages *)
  check_str "key_state reuse"
    (Hmac.hex (Hmac.mac ~key "second message"))
    (Hmac.hex (Hmac.mac_with ks "second message"))

let stream chunks = Sha256.finalize (List.fold_left Sha256.update (Sha256.init ()) chunks)

(* consecutive chunks of [s], cut at the (clamped, deduplicated) [cuts] *)
let chunks_of s cuts =
  let n = String.length s in
  let cuts = List.sort_uniq compare (0 :: n :: List.map (fun c -> min c n) cuts) in
  let rec go = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: go rest
    | _ -> []
  in
  go cuts

let prop_incremental_equals_oneshot =
  QCheck.Test.make ~name:"incremental = one-shot" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
       let cut = min cut (String.length s) in
       let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
       Sha256.finalize (Sha256.update (Sha256.update (Sha256.init ()) a) b)
       = Sha256.digest s)

let prop_partition_equals_oneshot =
  (* any way of slicing a message into consecutive chunks and streaming
     them through [update] must give the one-shot digest *)
  QCheck.Test.make ~name:"random partition = one-shot" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 400))
              (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 400)))
    (fun (s, cuts) -> stream (chunks_of s cuts) = Sha256.digest s)

let prop_distinct_messages_distinct_macs =
  QCheck.Test.make ~name:"mac respects message identity" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
       if a = b then Hmac.mac ~key:"k" a = Hmac.mac ~key:"k" b
       else Hmac.mac ~key:"k" a <> Hmac.mac ~key:"k" b)


(* ------------------------------------------------------------- *)
(* The C kernel against the OCaml reference.                       *)

let test_exported_tables () =
  Alcotest.(check (array int32)) "round constants = reference K"
    (Array.map Int32.of_int Ref.k) Sha256.round_constants;
  Alcotest.(check (array int32)) "initial state = reference H0"
    (Array.map Int32.of_int Ref.initial_h) Sha256.initial_state

let test_kernel_boundaries () =
  (* a multi-block update that starts from a partially filled buffer
     takes the blit-then-bulk path; every split of every length around
     the padding and block edges must match the reference *)
  let lengths = [ 55; 56; 63; 64; 119; 120; 128 ] in
  let prefixes = [ 0; 1; 7; 55; 56; 63 ] in
  List.iter
    (fun len ->
       let msg = String.init len (fun i -> Char.chr ((i * 131 + len) land 0xFF)) in
       check_str (Printf.sprintf "one-shot %d" len)
         (Sha256.hex (Ref.digest msg)) (Sha256.hex (Sha256.digest msg));
       List.iter
         (fun pre ->
            let whole = msg ^ String.make (3 * 64) 'x' in
            let a = String.sub whole 0 pre
            and b = String.sub whole pre (String.length whole - pre) in
            check_str (Printf.sprintf "len %d after %d-byte prefix" len pre)
              (Sha256.hex (Ref.digest whole)) (Sha256.hex (stream [ a; b ])))
         prefixes)
    lengths

let prop_kernel_equals_reference =
  QCheck.Test.make ~name:"C kernel = OCaml reference, random splits" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 700))
              (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 700)))
    (fun (s, cuts) -> stream (chunks_of s cuts) = Ref.digest s)

let prop_copy_fork_equals_reference =
  (* fork mid-stream (possibly mid-block) and let the branches diverge *)
  QCheck.Test.make ~name:"copy fork mid-stream = reference" ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_range 0 300))
              (string_of_size (QCheck.Gen.int_range 0 300))
              (string_of_size (QCheck.Gen.int_range 0 300)))
    (fun (prefix, left, right) ->
       let base = Sha256.update (Sha256.init ()) prefix in
       let fork = Sha256.copy base in
       let l = Sha256.finalize (Sha256.update base left) in
       let r = Sha256.finalize (Sha256.update fork right) in
       l = Ref.digest (prefix ^ left) && r = Ref.digest (prefix ^ right))

let test_domains_concurrent () =
  (* the kernel keeps its schedule on the C stack and touches only the
     context it is handed: 4 domains hashing (and MACing under one
     shared key state) at once must all get the reference answers *)
  let msgs = List.init 64 (fun i -> String.init (i * 37) (fun j -> Char.chr ((i + j) land 0xFF))) in
  let expected = List.map Ref.digest msgs in
  let ks = Hmac.key_state ~key:"shared device key" in
  let expected_macs = List.map (fun m -> Hmac.mac ~key:"shared device key" m) msgs in
  let work () =
    let ok = ref true in
    for _ = 1 to 50 do
      ok := !ok && List.map Sha256.digest msgs = expected
            && List.map (Hmac.mac_with ks) msgs = expected_macs
    done;
    !ok
  in
  let ds = List.init 4 (fun _ -> Domain.spawn work) in
  List.iteri
    (fun i d -> Alcotest.(check bool) (Printf.sprintf "domain %d" i) true (Domain.join d))
    ds

let suites =
  [ ("crypto",
     [ Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
       Alcotest.test_case "sha256 padding boundaries" `Quick test_sha256_block_boundaries;
       Alcotest.test_case "sha256 incremental" `Quick test_incremental;
       Alcotest.test_case "hmac RFC 4231" `Quick test_hmac_rfc4231;
       Alcotest.test_case "mac_parts" `Quick test_mac_parts;
       Alcotest.test_case "ctx copy independence" `Quick test_copy_independence;
       Alcotest.test_case "precomputed key state" `Quick test_key_state;
       Alcotest.test_case "verify" `Quick test_verify;
       Alcotest.test_case "equal is length-exact" `Quick test_equal;
       Alcotest.test_case "exported tables = reference" `Quick test_exported_tables;
       Alcotest.test_case "kernel at block edges = reference" `Quick test_kernel_boundaries;
       Alcotest.test_case "4 domains hash concurrently" `Quick test_domains_concurrent ]
     @ List.map QCheck_alcotest.to_alcotest
         [ prop_incremental_equals_oneshot; prop_partition_equals_oneshot;
           prop_distinct_messages_distinct_macs; prop_kernel_equals_reference;
           prop_copy_fork_equals_reference ]) ]
