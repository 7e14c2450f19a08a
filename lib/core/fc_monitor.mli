(** The A-QED functional-consistency monitor (the paper's Fig. 4 A-QED
    module, realized as synthesizable RTL added around the design).

    The monitor introduces two free 1-bit inputs, [aqed_orig_mark] and
    [aqed_dup_mark], that the BMC engine controls symbolically: they label
    one captured input as the {e original} I_orig and one strictly later
    captured input as the {e duplicate} I_dup. An environment constraint
    forces the duplicate's (action, data) to equal the original's — this is
    how "BMC issues the same original again" is expressed declaratively.
    The monitor records the original's position in the captured-input stream
    and snoops the captured-output stream; when the duplicate's output
    arrives, the property

    {v dup_done -> fc_check v}

    demands it equal the original's recorded output. Any counterexample is a
    functional-consistency violation per Def. 2 — found without any design
    specification.

    The [shared] option implements the paper's batch-customization (e.g. an
    AES key shared across a batch): the designated signal is recorded at the
    original and constrained equal at the duplicate, but is not part of the
    compared (action, data) pair. *)

type t = {
  prop : Rtl.Ir.signal;       (** 1-bit safety property: holds every cycle
                                  iff no FC violation is exhibited *)
  orig_taken : Rtl.Ir.signal; (** diagnostic: original labeled *)
  dup_taken : Rtl.Ir.signal;  (** diagnostic: duplicate labeled *)
  orig_done : Rtl.Ir.signal;  (** diagnostic: original's output captured *)
  dup_done : Rtl.Ir.signal;   (** diagnostic: duplicate's output compared *)
  in_count : Rtl.Ir.signal;   (** captured-input counter *)
  out_count : Rtl.Ir.signal;  (** captured-output counter *)
}

val add :
  ?cnt_width:int ->
  ?shared:Rtl.Ir.signal ->
  Iface.t -> t
(** Instruments the interface's circuit. [cnt_width] (default 8; the
    {!Check} driver sizes it automatically from the BMC bound) bounds the
    stream positions the monitor can distinguish; it must satisfy
    [2^cnt_width > bmc_depth]. The monitor's marks and constraints are added
    to the design's circuit; run BMC on [prop] afterwards
    (see {!Check.prepare_fc}). *)

val add_batch :
  ?cnt_width:int ->
  ?shared:Rtl.Ir.signal ->
  lanes:int ->
  Iface.t -> t
(** The multiple-input-batch form of the monitor (Sec. IV.B): [in_data] and
    [out_data] are treated as [lanes] equal slices processed per
    transaction (lane k of the output must be the operation applied to lane
    k of the input). Two further free inputs, [aqed_orig_lane] and
    [aqed_dup_lane], let BMC pick the lanes; the original and duplicate may
    sit in the same batch or in different batches, exactly as the paper
    allows. [lanes] must be a power of two dividing both data widths. *)
