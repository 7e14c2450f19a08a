(** Tseitin encoding of an AIG cone into a SAT solver, with constant
    propagation and polarity-aware (Plaisted–Greenbaum) clause emission.

    An {!env} represents one instantiation ("frame") of a combinational AIG
    inside a solver: input nodes are bound to caller-chosen SAT literals or
    to known constants, and AND gates receive fresh variables with Tseitin
    clauses — unless constant folding collapses them. Folding matters for
    BMC: binding frame 0's latches to their reset constants lets whole
    cones of the early frames evaporate before they reach the solver.

    Clause emission is polarity-aware: a gate used only positively (its
    cone is asserted / assumed true) gets just the two [v -> a /\ b]
    clauses, one used only negatively just the single [a /\ b -> v] clause;
    the full biconditional is emitted only for [Both]. Emission is monotone
    and on demand — if a later caller needs the other half of an
    already-encoded node, exactly the missing clauses are added, so mixing
    polarities across calls on one [env] is always sound. This preserves
    satisfiability of every query that asserts or assumes the encoded edge
    in the requested polarity (Plaisted & Greenbaum 1986), and any model of
    the reduced clause set agrees with the full encoding on all bound
    inputs — which is all trace extraction reads. *)

type env

(** A literal's encoded value: a known constant or a solver literal. *)
type value =
  | Cst of bool
  | Lit of int

(** How the caller will use the encoded edge. [Pos]: only asserted/assumed
    true. [Neg]: only asserted/assumed false. [Both]: read back from models
    or constrained in both directions. Complemented edges flip [Pos]/[Neg]
    internally. *)
type polarity = Pos | Neg | Both

val create : Sat.Solver.t -> Aig.t -> env

val bind : env -> Aig.lit -> int -> unit
(** [bind env l sat_lit] associates the (non-complemented) input node of [l]
    with an existing SAT literal. Raises [Invalid_argument] if [l] is not an
    input or is already bound or encoded. *)

val bind_const : env -> Aig.lit -> bool -> unit
(** Like {!bind} but to a known constant value (reset states). *)

val value_of : ?pol:polarity -> env -> Aig.lit -> value
(** Encodes the cone of the edge (allocating fresh variables for unbound
    inputs) and returns its value. [pol] defaults to [Both]. *)

val sat_lit : ?pol:polarity -> env -> Aig.lit -> int
(** Like {!value_of} but always yields a solver literal, materializing
    constants through a shared always-true variable. *)

val assert_true : ?pol:polarity -> env -> Aig.lit -> unit
(** Forces the edge true in this frame. If the edge folds to constant false
    the solver is made unsatisfiable. [pol] defaults to [Both]: [Pos]
    (the strict Plaisted–Greenbaum emission) is sound and saves the
    negative clause halves, but one-sided cones weaken unit propagation —
    measured >4x slower on deep incremental-BMC UNSAT sequences — so the
    reduced emission is opt-in for one-shot, clause-count-sensitive
    queries. *)

