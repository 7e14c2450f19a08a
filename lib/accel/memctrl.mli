(** The memory-controller unit case study (Sec. V.A).

    An abstracted reproduction of the CGRA memory-controller: one datapath
    with three supported configurations (the paper names "double buffer,
    line buffer, FIFO"), each built as a stand-alone circuit with the
    configuration hard-coded — exactly how the paper instantiated its RTL
    wrappers. A fourth, {e interfering} accumulator configuration mirrors
    the configurations the paper had to exclude from A-QED (its output
    depends on prior inputs, violating the Sec. III model); it is exported
    for the conventional flow only.

    {b FIFO}: a flow-controlled queue; each captured input is returned
    unchanged, in order.

    {b Double buffer}: two banks ping-pong between a writer and a reader;
    the writer fills one bank while the reader drains the other. Identity
    data transform, arrival order preserved.

    {b Line buffer}: each input carries a packed 3-pixel window (the batch
    form of Sec. IV.B); the stencil [p0 + 2*p1 + p2] is computed over two
    pipeline cycles.

    Every entry of {!Bug} is a realistic defect injected by construction;
    see {!bug_info} for descriptions and the check each is expected to
    fail. *)

type config =
  | Fifo_mode
  | Double_buffer
  | Line_buffer
  | Accumulator  (** interfering — excluded from A-QED, as in the paper *)

type bug =
  | Fifo_oversize_ready   (** ready advertised at full; element dropped *)
  | Fifo_count_narrow     (** occupancy counter one bit narrow: full aliases empty *)
  | Fifo_ready_stuck      (** ready never re-asserts after first full *)
  | Fifo_out_early        (** output valid while empty: garbage emitted *)
  | Fifo_clock_gate       (** clock-enable disconnected from the queue's pop path *)
  | Fifo_ptr_wrap         (** pointer-wrap comparison bug: corruption after 2^n elements *)
  | Db_swap_early         (** banks swap one element early; last element lost *)
  | Db_wptr_noreset       (** write pointer keeps its value across a swap *)
  | Db_ready_during_swap  (** input accepted during the swap cycle is dropped *)
  | Db_read_write_bank    (** reader drains the bank being written *)
  | Db_full_flag_race     (** writer may refill a bank the reader has not finished *)
  | Lb_window_index       (** stencil reads a stale pixel (array indexing error) *)
  | Lb_coeff_swap         (** consistently wrong stencil coefficients (needs SAC) *)
  | Lb_valid_early        (** out_valid one cycle early: stale pipeline value *)
  | Lb_drop_backpressure  (** result overwritten if the host is not ready *)
  | Ctrl_turn_skip        (** round-robin service counter skips under a corner condition *)

val config_name : config -> string
val bug_name : bug -> string

val bug_config : bug -> config
(** The configuration a bug lives in. *)

val bug_info : bug -> string * string
(** [(description, expected_failing_check)] where the check is ["FC"],
    ["RB"] or ["SAC"]. *)

val all_bugs : bug list
(** The 16-entry registry behind Table 1 / Fig. 5. *)

val corner_case_bugs : bug list
(** The registry subset representing the paper's "difficult corner-case
    scenarios" that escaped the conventional flow (Observation 1). *)

val data_width : config -> int

val tau : config -> int
(** Response bound used for RB checking of each configuration. *)

val build : ?bug:bug -> ?assume_enabled:bool -> config -> unit -> Aqed.Iface.t
(** Fresh instance of a configuration, optionally with a bug injected. The
    bug must belong to the configuration ([Invalid_argument] otherwise).
    The circuit has a 1-bit [clock_enable] primary input (host gating), as
    the CGRA design does. [assume_enabled] constrains [clock_enable] high —
    required for RB checking (a paused accelerator is trivially
    unresponsive; responsiveness is judged over enabled cycles), and part of
    the per-design RB customization Sec. IV.C describes. *)

val golden : config -> int list -> int list
(** Reference input/output behaviour (the "working C++ model" of Sec. V.A):
    the captured outputs expected for the given captured inputs. *)

val spec_rtl : config -> Rtl.Ir.signal -> Rtl.Ir.signal
(** The per-operation specification as combinational RTL, for SAC. *)
