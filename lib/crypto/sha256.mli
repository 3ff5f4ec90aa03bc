(** SHA-256 (FIPS 180-4), written from scratch.

    VRASED computes an HMAC-SHA256 over program memory inside its ROM
    routine; this module is the hash that backs {!Hmac}. The block
    compression is one portable C kernel ([dialed_sha256_stubs.c], no
    intrinsics, no CPU dispatch); padding and buffering stay in OCaml.
    {!update} hands every full 64-byte block of its input to the kernel
    in a single call, so a long message runs without returning to OCaml
    until its tail.

    The streaming context is {e imperative}: it owns the chaining state
    and a partial-block buffer, and {!update} folds data into the
    chaining state in place, returning the {e same} context (the
    functional signature is kept so existing pipelines read naturally).
    Use a context linearly, or {!copy} it first to fork — e.g. the cached
    HMAC key states in {!Hmac.key_state}. {!finalize} does not consume
    the context: it pads into a local block, so updating after finalize
    continues the original stream. Contexts are not thread-safe; share
    them across domains only via {!copy}. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> ctx
(** Absorb bytes. Mutates and returns [ctx] itself. *)

val copy : ctx -> ctx
(** Independent snapshot of the streaming state (fresh buffers);
    the clone and the original can diverge safely, even across domains. *)

val finalize : ctx -> string
(** 32-byte raw digest of everything absorbed so far. The context is not
    mutated and remains usable. *)

val digest : string -> string
(** One-shot hash; 32-byte raw digest. *)

val hex : string -> string
(** Lowercase hex of a raw byte string (handy for digests). *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64, needed by HMAC. *)

val round_constants : int32 array
(** The 64 K constants — exported for the on-device SW-Att code
    generator, which bakes them into its ROM image. *)

val initial_state : int32 array
(** The 8 initial H words. *)
