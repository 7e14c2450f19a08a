(** The conventional simulation-based verification flow — the paper's
    baseline (Sec. V.A, Table 1, Fig. 5).

    This is what A-QED is compared against: hand-written directed tests
    plus constrained-random campaigns, driven cycle-by-cycle on the RTL
    simulator, with a scoreboard that checks captured outputs against a
    golden model ("the software functional model" whose creation dominates
    the conventional flow's setup effort). Detection events:

    - an output value differing from the golden model's prediction,
    - an output produced with no corresponding input,
    - a hang: inputs pending but no handshake progress within the test's
      timeout (how simulation surfaces responsiveness bugs).

    The flow reports the cycle at which the failing test detected the bug —
    the "trace (clock cycles)" column of Table 1, which for random tests is
    characteristically two orders of magnitude longer than BMC's minimal
    counterexamples. *)

type test = {
  name : string;
  data : int list;                       (** transaction payloads, in order *)
  valid_pattern : int -> bool;           (** present an input this cycle? *)
  ready_pattern : int -> bool;           (** host out_ready per cycle *)
  extra_drivers : (string * (int -> int)) list;
      (** per-cycle values for extra primary inputs (clock_enable, key...) *)
  timeout : int;                         (** hang threshold, in cycles *)
}

type detection = {
  test_name : string;
  cycle : int;        (** cycle within the failing test when detected *)
  reason : string;
}

type result = {
  detected : detection option;
  tests_run : int;
  total_cycles : int;   (** simulation cycles across the whole campaign *)
  wall_time : float;
}

val campaign :
  build:(unit -> Aqed.Iface.t) ->
  golden:(int list -> int list) ->
  test list -> result
(** Runs tests in order, stopping at the first detection (as a verification
    engineer would, to debug). *)

val standard_suite :
  ?seed:int ->
  ?n_random:int ->
  ?random_len:int ->
  ?has_clock_enable:bool ->
  ?pause_stress:bool ->
  ?extra_widths:(string * int) list ->
  data_width:int ->
  unit -> test list
(** The reusable test program: [n_random] constrained-random
    application-style tests of [random_len] transactions each (random
    valid/ready gaps) — the analogue of the paper's "full-fledged
    applications", run first — followed by short directed patterns (ramp,
    constants, all-ones, alternating, burst/drain with backpressure). When [has_clock_enable], the enable is held high —
    application-style stimulus does not pause mid-stream, which is exactly
    why the paper's corner-case bugs escape this flow; the [pause_stress]
    ablation adds random pauses to measure that difference. [extra_widths]
    declares further inputs (e.g. an AES key) driven with per-test random
    constants. Default [n_random] 40, [random_len] 48. *)
