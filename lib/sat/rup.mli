(** Independent proof checking by reverse unit propagation (RUP).

    A clausal proof is a sequence of learned clauses ending (for an
    unsatisfiability proof) with the empty clause. A step is {e RUP} if
    asserting the negation of every literal of the clause and running unit
    propagation over the original formula plus the previously accepted
    steps yields a conflict. Every clause a CDCL solver learns is RUP by
    construction, so a valid solver run always produces a checkable proof —
    and the checker below shares no code with the solver's propagation or
    search, giving an independent certificate for UNSAT answers.

    A step may name the clauses that make it RUP, in an order where each
    becomes unit in turn (a hint {e chain}, as in LRAT — Cruz-Filipe et
    al., CADE 2017 — but without deletions, and not trusted). The checker
    walks the chain over its own copies of the named clauses and, if the
    chain does not close, falls back to full two-watched-literal
    propagation over a persistent root trail from wherever the walk
    stopped. The chain only orders the work: a step is accepted iff it is
    RUP, whatever it names. A solver run streams its chains straight into
    the checker ({!Solver.enable_proof}), so certifying a learned clause
    costs about its derivation rather than a propagation over the whole
    formula — cheap enough to run inline with BMC ({!Bmc.Engine}
    certifies every UNSAT frame this way under [~certify:true]).

    Telemetry: [cert.rup_hinted] counts steps closed by their chain,
    [cert.rup_unhinted] steps that needed full propagation. *)

type verdict =
  | Valid
  | Invalid of int
      (** index (0-based) of the first proof step that is not RUP *)
  | Incomplete
      (** all steps valid but the proof does not end with the empty clause,
          so unsatisfiability is not established *)

val check : Dimacs.cnf -> int list list -> verdict
(** [check cnf proof] verifies an external, unhinted proof against the
    formula. *)

val check_solver_run : Dimacs.cnf -> verdict
(** Convenience: solve the instance with its proof streamed into a fresh
    checker, hints included, and, if the answer is [Unsat], report on the
    proof ([Invalid i] names the first rejected step). Returns [Incomplete]
    when the instance is satisfiable (there is nothing to certify). *)

(** {1 Incremental checking}

    The incremental interface mirrors an incremental solver run: feed it
    the problem clauses with {!add_clause} and the learned clauses with
    {!add_step} as the solver produces them (a {!Solver.proof_sink} does
    exactly this), then establish frame-level facts with {!check_step}. A query that returned Unsat under a single
    assumption [a] is certified by [check_step ck [-a]]: the negation of
    the assumption must be implied by unit propagation alone. *)

type checker

val create : ?nvars:int -> unit -> checker
(** Fresh checker over an empty formula. Variables beyond [nvars] are
    allocated on demand. *)

val add_clause : ?id:int -> checker -> int list -> unit
(** Add a formula clause (taken on trust — this is the base formula being
    checked against). Unit clauses propagate immediately at the root. A
    positive [id] lets later chains name the clause as stored (satisfied
    or unit at the root, it is not stored, and the id names nothing).
    Raises [Invalid_argument] on a zero literal. *)

val add_step : ?id:int -> ?chain:int array -> checker -> int list -> bool
(** [add_step ck c] checks that [c] is RUP with respect to the clauses
    added so far and, if it is, adds it to the formula under [id]. Returns
    [false] (without adding) otherwise. [chain] (default empty) names
    clauses to try first, see {!check_step}. *)

val check_step : ?chain:int array -> checker -> int list -> bool
(** Like {!add_step} but never extends the formula. The chain is the ids
    of [chain] up to its first [0] (ids are positive, so a caller may pass
    a reusable buffer). Under the negation of the step, the clauses it
    names are passed over in order until one is falsified (accept) or a
    pass assigns nothing; each one that is unit is assigned. Ids naming no
    stored clause, and clauses neither unit nor falsified, are skipped. If
    no conflict is reached, full unit propagation continues from the
    assignment the walk reached. *)

val contradictory : checker -> bool
(** The formula has been refuted at the root (an empty clause was added or
    unit propagation alone derived a conflict). Every clause is trivially
    implied from then on, and all checks return [true]. *)
