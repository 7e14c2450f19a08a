(** Counterexample traces.

    A trace is a concrete input sequence (plus the reconstructed register
    states) that drives a circuit from reset into a property violation. The
    BMC engine produces traces; they can be pretty-printed, or replayed on
    the cycle-accurate simulator to confirm the violation independently of
    the SAT-based pipeline. *)

type frame = {
  inputs : (string * Bitvec.t) list;
  regs : (string * Bitvec.t) list;
}

type t = {
  property : string;
  frames : frame list;  (* chronological; the violation is in the last frame *)
}

val length : t -> int
(** Number of cycles (frames). The paper's "trace (clock cycles)" metric. *)

val pp : Format.formatter -> t -> unit

val pp_waveform : Format.formatter -> t -> unit
(** Renders the trace as an ASCII waveform, one row per signal and one
    column per cycle — 1-bit signals as [_]/[#] pulse strips, wider ones as
    hex values. The layout mirrors what a waveform viewer would show for
    the counterexample, which is how the paper's users debug. *)

val replay_result : Rtl.Sim.t -> t -> Rtl.Ir.signal -> int option
(** [replay_result sim trace prop] resets the simulator, applies the
    trace's inputs cycle by cycle, and returns the first cycle at which the
    1-bit property signal reads 0 (i.e. is violated), or [None] if the
    property holds throughout. Replay aborts with [None] as soon as a
    circuit assumption fails — a trace that leaves the assumed behaviour
    witnesses nothing. *)

val replay : Rtl.Sim.t -> t -> Rtl.Ir.signal -> bool
(** [replay sim trace prop] confirms the counterexample: [true] iff the
    first violation lands exactly on the trace's final frame. A violation
    at any earlier cycle (or none at all) means the claimed depth is wrong
    and the trace is rejected. *)
