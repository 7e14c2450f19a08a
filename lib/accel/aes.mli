(** Abstracted AES encryption accelerator (Table 2, [Cong 17] class).

    A two-round substitution-permutation cipher on an 8-bit block with an
    8-bit key — the same kind of width/round abstraction the paper applied
    to its AES design for BMC scalability. The key is a {e batch-shared}
    operand: the A-QED module is customized so the original and duplicate
    inputs share the key but only the block is compared (Sec. IV.B).

    Written in the HLC language and pushed through the HLS flow; the four
    buggy versions v1–v4 mirror Table 2's AES v1–v4 — control-path defects
    in the generated RTL (stale block operand, early valid, result
    overwrite, stale key register), all FC-detectable. *)

val program : Hls.Ast.func
(** The high-level description ([block:8], [key:8] → 8-bit ciphertext). *)

val reference : block:int -> key:int -> int
(** Golden model (the interpreter run on {!program}). *)

val build : ?version:int -> unit -> Aqed.Iface.t
(** [build ()] is the correct design; [build ~version:n ()] is buggy vN.
    The key arrives on the dedicated [key] primary input; the block is
    [in_data]. *)

val shared_key : Aqed.Iface.t -> Rtl.Ir.signal
(** The key input wire, for the FC monitor's [shared] customization. *)

val tau : int
