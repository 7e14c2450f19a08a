(** The A-QED entry points: wrap a design with a monitor and run BMC.

    A check is an {!obligation}: [prepare_fc], [prepare_rb] or
    [prepare_sac] packages the monitor recipe and bound, unsolved, and
    {!run_obligation} (one), {!verify} (the paper's flow, stopping at the
    first bug) or {!run_batch} (a parallel pile) solves it into a
    {!report}. Because the monitors instrument the design's circuit, every
    obligation takes a {e builder} — a function producing a fresh
    {!Iface.t} — mirroring the paper's flow where HLS regenerates the A-QED
    module per run. A check needs no specification (FC), or only the
    response bound τ (RB), or only a per-operation input/output function
    (SAC); per Proposition 1 the three together establish total correctness
    for strongly-connected designs. *)

type verdict =
  | Bug of Bmc.Trace.t
      (** Counterexample found; its length is the paper's "trace (clock
          cycles)" metric. *)
  | No_bug_up_to of int
      (** Clean within the BMC bound. *)

type certificate = Bmc.Engine.certificate =
  | Replayed of int
      (** The counterexample was confirmed by simulator replay: the first
          violation lands on the reported cycle (the trace's final frame).
          The trace in the report is the shrunk, replay-confirmed one. *)
  | Rup_certified of int
      (** Every UNSAT frame up to the reported depth was confirmed by the
          independent RUP checker ({!Sat.Rup}). *)
  | Uncertified
      (** Certification was not requested. *)
(** Re-exported from {!Bmc.Engine.certificate}; see the certification
    discussion there. A certified run that diverges raises
    {!Bmc.Engine.Certification_failed} instead of returning. *)

type report = {
  check : string;           (** ["FC"], ["RB"] or ["SAC"] *)
  verdict : verdict;
  wall_time : float;        (** seconds *)
  bmc_frames : int;
  aig_nodes : int;          (** relation size the engine encoded (reduced) *)
  aig_nodes_raw : int;      (** relation size as bit-blasted *)
  reduce_stats : Logic.Reduce.stats option;
                            (** reduction accounting; [None] with reduction
                                off *)
  solver_stats : Sat.Solver.stats;
  certificate : certificate;
                            (** [Uncertified] unless the check ran with
                                [~certify:true] *)
  key : string;             (** structural hash of the prepared (reduced)
                                instance — same digest as
                                {!Bmc.Engine.prepared_key}, what the
                                verdict store and run journals key on *)
  winner : string;          (** {!Bmc.Engine.config_label} of the solver
                                configuration that produced the verdict
                                (the portfolio winner when racing) *)
  series : (string * (float * float) list) list;
                            (** solver time-series sampled on the solving
                                domain while this check ran — [(name,
                                (seconds-since-solve-start, value) list)],
                                chronological. Empty unless
                                {!Telemetry.Series} is configured.
                                Portfolio members run on their own domains
                                and are not captured. *)
}

val found_bug : report -> bool
val trace_length : report -> int option
(** Counterexample length in cycles, when a bug was found. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Prepared obligations and the parallel batch driver}

    The A-QED flow over a design family is a pile of independent BMC
    obligations — FC, RB and SAC for every configuration and bug variant.
    A {!obligation} packages one of them {e unsolved}: the instrumentation
    recipe plus solve parameters. {!run_batch} fans a list of them across a
    {!Parallel.Pool} of domains and returns the reports in input order,
    whatever the scheduling.

    Every [prepare_*] takes [max_depth] (the BMC bound, default 32),
    [reduce] (default true), which runs the structural reduction pipeline
    ({!Logic.Reduce}) on the bit-blasted relation first — verdicts and
    counterexample depths are identical either way — and [sweep] (default
    false), which additionally enables SAT sweeping inside that pipeline —
    equivalence-preserving but not always a win, see
    {!Bmc.Engine.prepare}. *)

type obligation

val obligation_name : obligation -> string

val prepare_fc :
  ?name:string ->
  ?max_depth:int ->
  ?cnt_width:int ->
  ?shared:(Iface.t -> Rtl.Ir.signal) ->
  ?lanes:int ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> obligation
(** The specification-free A-QED check (Def. 2 / Fig. 4): searches for an
    input sequence where a repeated (action, data) yields a different
    output. [shared] selects a batch-shared operand (see {!Fc_monitor.add});
    [lanes] switches to the multiple-input-batch monitor of Sec. IV.B
    ({!Fc_monitor.add_batch}). [name] labels the batch entry (default
    ["FC"]). *)

val prepare_rb :
  ?name:string ->
  ?max_depth:int ->
  ?cnt_width:int ->
  tau:int ->
  ?in_min:int ->
  ?starvation_bound:int ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> obligation
(** The RB check (Def. 3 / Sec. IV.C): both the response property and the
    no-starvation property are checked (as their conjunction). *)

val prepare_sac :
  ?name:string ->
  ?max_depth:int ->
  spec:(Rtl.Ir.signal -> Rtl.Ir.signal) ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> obligation
(** The SAC check (Def. 7) against a combinational [spec]. *)

val run_obligation :
  ?portfolio:int -> ?certify:bool -> ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t -> ?cancel:bool Atomic.t ->
  obligation -> report
(** Solves one obligation on the calling domain (the sequential baseline
    the batch driver is measured against).

    [portfolio] (default 1) races that many diversified solver
    configurations and keeps the first answer — see {!Bmc.Engine.check}.
    [solver] (default {!Bmc.Engine.default_config}) selects the solver
    configuration — restart strategy and between-frame inprocessing; every
    configuration returns the same verdict at the same depth, so it is a
    speed knob only (CLI [--restarts] / [--no-inprocess]).

    With [store] (CLI [--store DIR]), the persistent content-addressed
    verdict store is consulted before solving and the (certified) result
    written back after. The lookup is keyed by
    {!Bmc.Engine.prepared_key} extended with a config fingerprint
    ({!Store.fingerprint}: format version, check kind, reduce/sweep/
    certify/solver options) — so a verdict is never reused across
    configurations that could produce different reports. A hit is trusted
    only after revalidation: a stored counterexample must replay on the
    cycle-accurate simulator with the violation on its final cycle, and a
    stored clean verdict must carry an RUP certificate at its recorded
    depth. When the stored clean depth is shallower than [max_depth], the
    search warm-starts from it ({!Bmc.Engine.check_prepared}
    [~warm_depth]) instead of from reset; when it is deeper, the verdict
    is clamped to the requested bound. Corrupted, version-skewed or
    non-revalidating entries degrade to a miss and are overwritten by the
    re-solve. Store-mediated solves always run [~certify:true] (durable
    verdicts are certified verdicts). Traffic lands on the [store.hits] /
    [store.misses] / [store.revalidated] / [store.invalid] /
    [store.warm_starts] counters.

    [cancel] is a cooperative stop flag: set it (from any domain) and the
    in-flight SAT solve unwinds with {!Sat.Solver.Cancelled} within a few
    thousand propagations. The flag is only ever {e read} here — a
    portfolio win never writes it back — so one flag can be shared across
    obligations or reused after a reset to [false]. *)

val verify :
  ?portfolio:int -> ?store:Store.t -> obligation list -> report list
(** The paper's flow (Sec. IV, Table 1): runs the obligations in order on
    the calling domain, each through {!run_obligation} with [portfolio]
    and [store], and stops after the first [Bug] — the paper's flow debugs one
    counterexample at a time. Returns the reports up to that point, the
    bug last. The caller picks the order and each obligation's builder
    (say, FC, then RB on a builder that assumes the clock enable, then
    SAC). *)

type batch_entry = {
  entry_name : string;
  entry_report : report;
  entry_cached : bool;   (** answered from a revalidated store entry,
                             without solving; always [false] without a
                             store *)
  entry_wall : float;    (** seconds spent on this entry's worker, including
                             the store lookup (near zero on a hit) *)
}

type batch_result = {
  entries : batch_entry list;  (** positionally matches the input list *)
  batch_wall : float;
  batch_jobs : int;
  batch_hits : int;            (** entries answered from the store, counted
                                   from this batch's own [entry_cached]
                                   flags; [0] without a store *)
  batch_misses : int;          (** entries solved; [0] without a store *)
}

val run_batch :
  ?jobs:int ->
  ?pool:Parallel.Pool.t ->
  ?portfolio:int ->
  ?certify:bool ->
  ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t ->
  ?cancel:bool Atomic.t ->
  obligation list -> batch_result
(** Fans the obligations across a worker pool. [pool] reuses an existing
    pool; otherwise a fresh one with [jobs] workers (default:
    {!Parallel.Pool.create}'s) is created and shut down around the
    batch. Each worker builds, instruments and solves its obligation
    locally; results come back in input order. [jobs = 1] is the
    sequential semantics on one worker domain. [portfolio] additionally
    races solver configurations {e within} each obligation — useful when
    obligations are few and cores are many. [solver] selects the per-solve
    configuration. [store] threads the persistent verdict store under
    every worker (see {!run_obligation}, every store-mediated solve is
    certified): unchanged obligations answer from revalidated entries,
    changed ones — whose structural key differs — are the only ones
    re-solved. A store hit counts as [entry_cached]. Every obligation is
    solved or looked up on its own: two equal obligations in one batch
    both solve, and a repeat within one process is the caller's to
    answer ([Serve.cache] does so for the service).
    [cancel] is threaded to every worker's solve (see {!run_obligation});
    setting it abandons the whole batch — each in-flight obligation raises
    {!Sat.Solver.Cancelled} on its worker. *)

val batch_reports : batch_result -> report list

val pp_batch : Format.formatter -> batch_result -> unit
