(** Independent proof checking by reverse unit propagation (RUP), one
    chain at a time.

    A clausal proof is a sequence of derived clauses ending (for an
    unsatisfiability proof) with the empty clause. A step is {e RUP} if
    asserting the negation of every literal of the clause and running unit
    propagation over the formula plus the previously accepted steps yields
    a conflict. Here every step carries the propagation that shows it: a
    {e chain} of clause ids, in an order where each named clause becomes
    unit in turn until one is falsified (as in LRAT — Cruz-Filipe et al.,
    CADE 2017 — but without deletions). The checker walks the chain over
    its own copies of the named clauses and accepts the step only if the
    walk reaches a conflict. There is no fallback: a step whose chain does
    not close is rejected, even if full propagation would refute it. The
    chain is never trusted, only replayed, so a wrong chain can reject a
    step but never admit one.

    Besides the clauses stored by id, the checker keeps {e root facts}:
    literals set by a unit clause or an accepted unit step. A chain walks
    on top of them and never has to re-derive one, so a producer must send
    each literal it relies on at the root as a unit step first (the solver
    does, {!Solver.proof_sink}). The checker has no propagation engine of
    its own and shares no code with the solver, giving an independent
    certificate for UNSAT answers. A solver run streams its chains
    straight into the checker, so certifying a derived clause costs about
    its derivation — cheap enough to run inline with BMC ({!Bmc.Engine}
    certifies every UNSAT frame this way under [~certify:true]).

    Telemetry: [cert.rup_steps] counts the steps checked,
    [cert.rup_rejected] those whose chain did not close. *)

type verdict =
  | Valid
  | Invalid of int
      (** index (0-based) of the first proof step that is not closed by
          its chain *)
  | Incomplete
      (** all steps valid but the proof does not end with the empty clause,
          so unsatisfiability is not established *)

val check_solver_run : Dimacs.cnf -> verdict
(** Convenience: solve the instance with its proof streamed into a fresh
    checker and, if the answer is [Unsat], report on the proof
    ([Invalid i] names the first rejected step). Returns [Incomplete]
    when the instance is satisfiable (there is nothing to certify). *)

(** {1 Incremental checking}

    The incremental interface mirrors an incremental solver run: feed it
    the problem clauses with {!add_clause} and the derived clauses with
    {!add_step} as the solver produces them (a {!Solver.proof_sink} does
    exactly this), then establish frame-level facts with {!check_step}. A
    query that returned Unsat under a single assumption [a] is certified
    by [check_step ck [-a]]: the solver has sent [-a] as a unit step by
    then, so the check closes at once against that root fact. Under
    several assumptions, the negated assumptions check along the chain
    [[| id |]], where [id] is the solver's last step: the refuted subset
    of them, or a root fact. *)

type checker

val create : unit -> checker
(** Fresh checker over an empty formula. Variables are allocated on
    demand. *)

val add_clause : id:int -> checker -> int list -> unit
(** Add a formula clause (taken on trust — this is the base formula being
    checked against) under the positive [id] later chains name it by.
    Duplicate literals are merged and a tautology is dropped; a unit
    clause becomes a root fact instead of being stored, and the empty
    clause, or a unit contradicting a root fact, refutes the formula.
    Raises [Invalid_argument] on a zero literal or a non-positive id. *)

val add_step : id:int -> chain:int array -> checker -> int list -> bool
(** [add_step ~id ~chain ck c] checks [c] like {!check_step} and, if its
    chain closes, adds it to the formula under [id] as {!add_clause} does
    (a unit step becomes a root fact). Returns [false] (without adding)
    otherwise. *)

val check_step : ?chain:int array -> checker -> int list -> bool
(** Like {!add_step} but never extends the formula. The chain is the ids
    of [chain] (default empty) up to its first [0] (ids are positive, so a
    caller may pass a reusable buffer). A literal of the step that is
    already a root fact closes it at once. Otherwise, under the negation
    of the step, the clauses the chain names are passed over in order
    until one is falsified (accept) or a pass assigns nothing (reject);
    each one that is unit is assigned. Ids naming no stored clause, and
    clauses neither unit nor falsified, are skipped. *)

val contradictory : checker -> bool
(** The formula has been refuted at the root (an empty clause or step was
    added, or a unit contradicting a root fact). Every clause is trivially
    implied from then on, and all checks return [true]. *)
