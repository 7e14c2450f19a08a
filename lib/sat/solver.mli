(** CDCL SAT solver.

    A from-scratch conflict-driven clause-learning solver: two-watched-literal
    propagation, first-UIP conflict analysis with recursive clause
    minimization, VSIDS branching with phase saving, Luby or EMA (Glucose)
    restarts, and an LBD-tiered learned-clause database with between-solve
    inprocessing ({!simplify_inplace}). It is the decision engine underneath
    {!module:Bmc}.

    Memory layout (internal, invisible through this interface): every
    clause lives in one flat [int] arena — a header (length and deletion
    bit, glue, list slot, proof id) followed by its literals inline — and
    is named by its offset there. Each literal's watch list is one [int]
    vector of interleaved (clause offset, blocker literal) pairs, so
    propagation reads flat int arrays and skips a satisfied clause without
    touching it. Database reduction and inprocessing compact the arena in
    place. The layout does not affect the search: the same calls give the
    same answers and the same {!stats}.

    Variables are positive integers allocated with {!new_var}. A literal is a
    non-zero integer: [v] is the positive literal of variable [v] and [-v] its
    negation (DIMACS convention).

    Observability: every {!solve} is wrapped in a [sat.solve] telemetry span
    (restart markers as [sat.restart] instants, inprocessing as a
    [sat.simplify] span) and its statistic deltas feed the global [sat.*]
    counters — including the glue-tier tallies [sat.lbd_core] /
    [sat.lbd_mid] / [sat.lbd_local] and the maintenance counters
    [sat.reductions] / [sat.vivified]; the cancellation-poll site doubles as
    the {!Telemetry.Progress} sampling hook, reporting conflicts/sec during
    long solves. All of it is a few atomic reads per call site when telemetry
    is disabled (the default). *)

type t

type result =
  | Sat
  | Unsat

type restart_style =
  | Luby  (** budgeted restarts on the Luby sequence (scaled by
              [restart_base]) *)
  | Ema
      (** Glucose-style dynamic restarts: restart when the fast exponential
          moving average of learned-clause glue exceeds the slow one, i.e.
          when the current descent produces unusually poor clauses.
          [restart_base] is the minimum conflict spacing between restarts. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  max_var : int;
  clauses : int;
  lbd_core : int;  (** learned clauses with glue <= 3 (kept forever) *)
  lbd_mid : int;  (** learned clauses with glue 4..6 (aged by activity) *)
  lbd_local : int;  (** learned clauses with glue > 6 (reduced aggressively) *)
  reductions : int;  (** learned-database reduction rounds *)
  vivified : int;  (** clauses shortened by {!simplify_inplace} *)
}

exception Cancelled
(** Raised out of {!solve} when one of the registered cancellation flags
    was observed set (see {!set_cancel}). The solver remains usable: the
    assumption levels are unwound and propagation state is reset, so a
    later {!solve} on the same instance is sound. *)

val create :
  ?seed:int ->
  ?restart_base:int ->
  ?phase_init:bool ->
  ?phase_saving:bool ->
  ?restarts:restart_style ->
  ?reduce_first:int ->
  unit -> t
(** The optional knobs diversify search for portfolio solving.

    [seed] (default 0 = off) seeds an xorshift PRNG that perturbs the
    initial VSIDS activity of each fresh variable by less than [1e-6], so
    equal-activity ties break differently per seed without overriding
    learned activity. [restart_base] (default 100) scales the Luby restart
    sequence (conflicts per unit) or, under [Ema], sets the minimum
    conflict spacing between restarts. [phase_init] (default false) is the
    branching polarity of never-assigned variables. [phase_saving]
    (default true) keeps the last assigned polarity per variable; when
    false, every decision uses [phase_init]. [restarts] (default [Luby])
    selects the restart strategy. [reduce_first] (default 2000) is the
    conflict count of the first learned-database reduction; the interval
    then stretches by 300 conflicts per round. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its index (positive). *)

val nb_vars : t -> int

val add_clause : t -> int list -> unit
(** Adds a clause over existing variables. The empty clause makes the
    instance trivially unsatisfiable. Raises [Invalid_argument] on a literal
    whose variable was not allocated. *)

val solve : ?assumptions:int list -> t -> result
(** Solves under the given assumption literals. The solver can be re-solved
    with different assumptions; clauses persist across calls. Raises
    {!Cancelled} if a flag registered with {!set_cancel} becomes set.

    Successive calls are assumption-aware: the decision levels that decided
    an unchanged prefix of the previous call's assumptions are kept warm
    instead of re-deciding and re-propagating them from level 0 (adding a
    clause resets to the root as before). *)

val solve_limited : ?assumptions:int list -> conflicts:int -> t -> result option
(** Like {!solve}, but gives up and returns [None] after [conflicts]
    conflicts (must be ≥ 1). A definite answer reached within the budget is
    returned as [Some r]. After [None] the solver is fully reusable — the
    same reset as {!Cancelled} is applied. This is the bounded-query knob
    behind SAT sweeping ({!Logic.Reduce}-style fraiging), where an
    inconclusive candidate pair is simply left unmerged. *)

val simplify_inplace : ?budget:int -> t -> unit
(** Inprocessing between solves: conflict-free, propagation-budgeted clause
    {e vivification} ([budget] caps the propagations spent, default 30000).
    Each candidate clause is probed literal by literal under the negation of
    its prefix, with the clause itself unwatched; a conflict or an already
    true literal proves a shorter clause, a false literal drops out. The
    pass finishes with a root-level database simplification (satisfied
    clauses dropped, root-false literals stripped) and a full watch-list
    rebuild. Equivalence-preserving: verdicts and models are unaffected.

    Interaction with proof logging: every shortened clause is RUP with
    respect to a formula that still contains the original clause, so each
    one goes to the proof sink like a learned clause, chained through the
    probe's reasons, and keeps certifying — an external checker never
    deletes, so originals remain premises.
    Nothing this pass derives falls outside RUP, hence nothing is disabled
    under {!enable_proof}. The BMC engine calls this between frames. *)

val set_cancel : t -> bool Atomic.t list -> unit
(** Registers the cancellation flags shared with other domains, replacing
    any earlier set. The CDCL loop polls them every 256 iterations and
    raises {!Cancelled} when any one is set — the mechanism a portfolio
    uses to stop losing solvers (its race flag) and a caller uses to stop
    a job (its own flag), with no domain copying one flag into the other.
    The flags are only read, never written. *)

val value : t -> int -> bool
(** [value s v] is the value of variable [v] in the model of the last [Sat]
    answer. Unassigned variables (eliminated by simplification) read [false].
    Only meaningful after [solve] returned [Sat]. *)

val lit_value : t -> int -> bool
(** Value of a literal in the last model. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** {1 Proof logging}

    When enabled, the solver streams a chained clausal proof to a sink as
    it runs: every problem clause exactly as it was passed to {!add_clause}
    (the internal database simplifies — dedup, tautology and
    satisfied-clause drop, unit stripping — so it is not a faithful base
    formula for an external checker), and every derived clause the moment
    it exists, each under a fresh positive id. Nothing is buffered in the
    solver. After an [Unsat] answer without assumptions the last step is
    the empty clause.

    Every derived clause carries a {e chain}: ids of clauses sent before
    it, in an order where, under the negation of the clause, each named
    clause becomes unit in turn and one is falsified. A checker
    ({!Rup.add_step}) replays the chain and nothing else, so the chain
    must close on its own:
    - a learned clause names the clauses its conflict analysis resolved
      on — the minimization walks' reasons, then the main loop's reasons
      in trail order, the conflict clause last;
    - a vivified clause names the reasons on its probe trail, then the
      conflict clause (or, without one, the original clause);
    - a root-strengthened clause names its original;
    - the empty clause names the clause falsified at the root;
    - when an assumption is refuted above level 0, the clause "one of the
      assumptions decided so far is false" names the reasons on the trail
      up to the refuted literal.

    Chains skip the literals fixed at level 0. Each of those goes to the
    sink as a unit step, chained to its reason, before any step relies on
    it, and before [solve] returns [Unsat]. So a query refuted under a
    single assumption [a] leaves [-a] as such a unit, and a checker
    confirms it against that root fact at once. There are no deletions: a
    clause dropped by database reduction stays implied, so a checker may
    keep it. *)

type proof_sink = {
  on_clause : int -> int list -> unit;
      (** [on_clause id lits]: a problem clause, verbatim, in order of
          addition. *)
  on_step : int -> int list -> int array -> unit;
      (** [on_step id lits chain]: a derived clause — learned, vivified,
          strengthened, a level-0 unit, a refuted assumption set or the
          empty clause — closed by its chain over the clauses sent before
          it. The chain is the ids in [chain] up to the first [0] (or the
          end); the array may be the solver's scratch buffer, overwritten
          once the call returns. *)
}

val enable_proof : t -> proof_sink -> unit
(** Start streaming to the sink. Must be called before clauses are added.
    An exception raised by the sink propagates out of the solver call that
    derived the clause (the BMC engine aborts a search this way on the
    first clause its checker rejects); the solver should not be reused
    after that. *)
