(** The A-QED entry points: wrap a design with a monitor and run BMC.

    Because the monitors instrument the design's circuit, every check takes
    a {e builder} — a function producing a fresh {!Iface.t} — mirroring the
    paper's flow where HLS regenerates the A-QED module per run. A check
    needs no specification (FC), or only the response bound τ (RB), or only
    a per-operation input/output function (SAC); per Proposition 1 the three
    together establish total correctness for strongly-connected designs. *)

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
                                obligation cache and run journals key on *)
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

val functional_consistency :
  ?max_depth:int ->
  ?cnt_width:int ->
  ?shared:(Iface.t -> Rtl.Ir.signal) ->
  ?lanes:int ->
  ?portfolio:int ->
  ?certify:bool ->
  ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> report
(** The specification-free A-QED check (Def. 2 / Fig. 4): searches for an
    input sequence where a repeated (action, data) yields a different
    output. [shared] selects a batch-shared operand (see {!Fc_monitor.add});
    [lanes] switches to the multiple-input-batch monitor of Sec. IV.B
    ({!Fc_monitor.add_batch}). [reduce] (default true, on every check) runs
    the structural reduction pipeline ({!Logic.Reduce}) on the bit-blasted
    relation first; verdicts and counterexample depths are identical
    either way. [sweep] (default false, on every check) additionally
    enables SAT sweeping inside that pipeline — equivalence-preserving but
    not always a win, see {!Bmc.Engine.prepare}. *)

val response_bound :
  ?max_depth:int ->
  ?cnt_width:int ->
  tau:int ->
  ?in_min:int ->
  ?starvation_bound:int ->
  ?portfolio:int ->
  ?certify:bool ->
  ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> report
(** The RB check (Def. 3 / Sec. IV.C): both the response property and the
    no-starvation property are checked (as their conjunction). *)

val single_action :
  ?max_depth:int ->
  spec:(Rtl.Ir.signal -> Rtl.Ir.signal) ->
  ?portfolio:int ->
  ?certify:bool ->
  ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> report
(** The SAC check (Def. 7) against a combinational [spec].

    On every check, [portfolio] (default 1) races that many diversified
    solver configurations per BMC run and keeps the first answer — see
    {!Bmc.Engine.check}. [solver] (default {!Bmc.Engine.default_config})
    selects the solver configuration — restart strategy and between-frame
    inprocessing; every configuration returns the same verdict at the same
    depth, so it is a speed knob only (CLI [--restarts] /
    [--no-inprocess]).

    On every check, [store] (CLI [--store DIR]) consults the persistent
    content-addressed verdict store before solving and writes the
    (certified) result back after — see {!run_obligation} for the trust
    model. *)

val verify :
  ?max_depth:int ->
  ?cnt_width:int ->
  tau:int ->
  ?in_min:int ->
  ?shared:(Iface.t -> Rtl.Ir.signal) ->
  ?spec:(Rtl.Ir.signal -> Rtl.Ir.signal) ->
  ?portfolio:int ->
  ?certify:bool ->
  ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> report list
(** The full A-QED flow: FC, then RB, then SAC when a [spec] is provided.
    Stops at the first [Bug] (reports up to that point are returned,
    bug last), since the paper's flow debugs one counterexample at a time.
    [portfolio] is threaded to every underlying check — each BMC run races
    that many diversified solver configurations ({!Bmc.Engine.check}). *)

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
    whatever the scheduling; with a {!cache}, structurally identical
    instances (the same sub-check regenerated across bug variants, as in
    Table 1's 26 configurations) are solved once and answered from the
    cache afterwards. *)

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
(** {!functional_consistency}, packaged instead of run. [name] labels the
    batch entry (default ["FC"]). *)

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

val prepare_sac :
  ?name:string ->
  ?max_depth:int ->
  spec:(Rtl.Ir.signal -> Rtl.Ir.signal) ->
  ?reduce:bool ->
  ?sweep:bool ->
  (unit -> Iface.t) -> obligation

val run_obligation :
  ?portfolio:int -> ?certify:bool -> ?solver:Bmc.Engine.solver_config ->
  ?store:Store.t -> ?cancel:bool Atomic.t ->
  obligation -> report
(** Solves one obligation on the calling domain (the sequential baseline
    the batch driver is measured against).

    With [store], the persistent verdict store is consulted first, keyed
    by {!Bmc.Engine.prepared_key} extended with a config fingerprint
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

type cache
(** A concurrent obligation cache, keyed by {!Bmc.Engine.prepared_key}
    (the structural hash of the reduced relation) plus the solve
    parameters. The relation is bit-blasted and reduced once per
    obligation; the same prepared value feeds the key and, on a miss, the
    solve. Shareable across batches and domains; single-flight. Its users
    are batch runs ([verify -j], [bench]), where structurally equal
    obligations from different sources collide; the service keys its own
    cache on the job spec instead ([Serve.cache]). *)

val create_cache : unit -> cache
val cache_stats : cache -> Parallel.Cache.stats
val cache_hit_rate : cache -> float

type batch_entry = {
  entry_name : string;
  entry_report : report;
  entry_cached : bool;   (** answered from the cache *)
  entry_wall : float;    (** seconds spent on this entry's worker, including
                             cache lookup (near zero on a hit) *)
}

type batch_result = {
  entries : batch_entry list;  (** positionally matches the input list *)
  batch_wall : float;
  batch_jobs : int;
  batch_hits : int;            (** cache hits within this batch *)
  batch_misses : int;
}

val run_batch :
  ?jobs:int ->
  ?pool:Parallel.Pool.t ->
  ?cache:cache ->
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
    configuration; it is {e not} part of the in-process cache key (all
    configurations produce identical reports up to timing), so A/B
    measurements must bypass the cache. [store] threads the persistent
    verdict store under every worker (and under the in-process cache, which
    stays single-flight in front of it): unchanged obligations answer from
    revalidated entries, changed ones — whose structural key differs — are
    the only ones re-solved. A store hit counts as [entry_cached].
    [cancel] is threaded to every worker's solve (see {!run_obligation});
    setting it abandons the whole batch — each in-flight obligation raises
    {!Sat.Solver.Cancelled} on its worker. *)

val batch_reports : batch_result -> report list

val pp_batch : Format.formatter -> batch_result -> unit
