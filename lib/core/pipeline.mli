(** End-to-end build: an operation body (from MiniC or hand-written
    assembly) to a loadable, attestable image.

    The pipeline applies the instrumentation passes for the requested
    variant, lays the program out in the canonical MSP430F1xx map, emits
    the untrusted caller shim, assembles, and derives the APEX layout:

    {v
      0x0200  data segment (globals)
      0x0400  OR  (__OR_MIN .. __OR_MAX+1; log stack grows down)
      0x0A00  stack top
      0xE000  ER: the (instrumented) operation      <- __op_start
      0xF800  __caller: mov #__OR_MAX, r4; call #__op_start
              __caller_ret: jmp $
    v}

    Operation contract: the body's first item(s) may be labels (the entry
    point); control must leave only through the single final [ret] (inner
    functions may have their own [ret]s — the {e last} [ret] in the body is
    the legal APEX exit). MiniC's code generator produces this shape. *)

exception Error of string

type variant =
  | Unmodified   (** no instrumentation — the paper's baseline *)
  | Cfa_only     (** Tiny-CFA alone (CFA guarantee) *)
  | Full         (** DIALED + Tiny-CFA (CFA + DFA) *)

val variant_name : variant -> string

type built = {
  variant : variant;
  program : Dialed_msp430.Program.t;   (** final instrumented program *)
  image : Dialed_msp430.Assemble.image;
  layout : Dialed_apex.Layout.t;
  expected_er : string;                (** ER bytes the verifier expects *)
  selective : bool;
      (** built under the OAT-style selective discipline (a [Full]
          variant with [dfa_config.selective] set) *)
  critical_ranges : (int * int) list;
      (** resolved inclusive address ranges of the [critical] globals —
          what the static dataflow audit must see covered *)
}

val build :
  ?variant:variant ->
  ?dfa_config:Dfa.config ->
  ?cfa_config:Dialed_tinycfa.Instrument.config ->
  ?data:Dialed_msp430.Program.t ->
  ?critical:(string * int) list ->
  ?or_min:int -> ?or_max:int -> ?stack_top:int ->
  op:Dialed_msp430.Program.t ->
  unit -> built
(** Raises {!Error} (or the passes' own errors) on contract violations,
    among them an instrumented operation too large for the 6 KiB of ER
    below the caller shim at 0xF800. [critical] lists the critical globals as [(symbol, size_bytes)]
    (from {!Dialed_minic.Minic.compiled}'s [criticals]); each symbol must
    resolve in the image. *)

val device : ?key:string -> built -> Dialed_apex.Device.t
(** Convenience: a fresh prover loaded with the built image. *)

val fingerprint : built -> string
(** Stable hex identity of a firmware build: SHA-256 over the variant,
    the APEX layout and the expected ER bytes. Two builds with the same
    fingerprint verify identically — the fleet plan cache keys on it. *)

val caller_symbol : string
val caller_ret_symbol : string
val op_start_symbol : string
val op_exit_symbol : string
(** ["__op_exit"]: label an operation body may target with [br] to reach
    the single final [ret] the pipeline appends when the body does not end
    in one. *)

val code_size_bytes : built -> int
(** Size of the ER segment in bytes — the Fig. 6(a) metric. *)

val eval_expr : built -> Dialed_msp430.Program.expr -> int
(** Evaluate a link-time expression against the image's symbol table
    (used by the verifier to resolve annotation bounds). *)

val concrete_is_ret : Dialed_msp430.Isa.instr -> bool
(** Whether a decoded instruction is [ret] ([mov @sp+, pc]). *)
