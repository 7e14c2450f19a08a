(** Structural reduction of a sequential AIG before BMC encoding.

    [run] applies, in order: cone-of-influence restriction, ternary
    constant propagation from the reset state (temporal decomposition of
    reset-implied constants), SAT sweeping (fraiging — random-simulation
    candidate classes discharged by bounded solver queries), and a final
    cone extraction that drops everything the surviving roots no longer
    reach. The result is a fresh, smaller graph plus a map from old edges
    to new ones; the per-frame satisfiability of the encoded relation is
    preserved by every pass, so BMC verdicts and counterexample depths are
    unchanged (DESIGN.md §10 gives the per-pass argument).

    The pipeline is deterministic (the sweep's simulation seed is fixed),
    so structurally equal inputs reduce to structurally equal outputs —
    store keys ([Bmc.Engine.prepared_key]) may be computed over the reduced
    graph. *)

(** One latch, bit-level: current-state input node, next-state function
    edge, reset value. *)
type latch = { cur : Aig.lit; next : Aig.lit; init : bool }

type stats = {
  nodes_before : int;
  nodes_after : int;
  latches_before : int;
  latches_after : int;
  coi_dropped_latches : int;  (** latches outside the cone of influence *)
  const_latches : int;        (** latches constant on every reachable state *)
  sweep_classes : int;        (** candidate-equivalence classes formed *)
  sweep_queries : int;        (** bounded SAT queries issued *)
  sweep_merged : int;         (** nodes merged into an equivalent class rep *)
  sweep_limited : int;        (** queries that hit the conflict budget *)
}

type t = {
  aig : Aig.t;              (** the reduced graph *)
  bad : Aig.lit;
  assumes : Aig.lit list;
  latches : latch array;    (** surviving latches, in input order *)
  node_map : Aig.lit option array;
  stats : stats;
}

val map : t -> Aig.lit -> Aig.lit option
(** Image of an old edge in the reduced graph; [None] when the node fell
    outside the cone of influence (its value cannot affect any root). *)

val run :
  ?constants:bool ->
  ?sweep:bool ->
  Aig.t ->
  bad:Aig.lit ->
  assumes:Aig.lit list ->
  latches:latch array ->
  t
(** [run aig ~bad ~assumes ~latches] reduces the relation whose roots are
    the [bad] edge, the [assumes] edges and the latch transition functions.
    Latch [cur] nodes must be input nodes (as produced by the bit-blaster).

    [constants] and [sweep] switch individual passes (both on by default;
    the cone of influence is always restricted). The sweep splits classes
    with three random simulation words, gives each query a 1000-conflict
    budget and compares a node against at most four class members.

    Note [constants] folds knowledge about {e reachable} states into the
    graph: sound for searches whose frame chain is rooted at reset (bounded
    checks and their counterexample depths), but not for a relation
    explored from arbitrary, possibly unreachable states. Such a caller
    must pass [~constants:false] (see DESIGN.md §10). *)

val frame_constants :
  Aig.t -> latches:latch array -> depth:int -> bool option array array
(** Temporal decomposition: ternary-simulates the unrolling from reset
    with all primary inputs X. Row [f] (0..[depth]) gives, per latch,
    [Some b] when the latch provably holds [b] at cycle [f] of {e every}
    execution — row 0 is the reset state. A bounded-search encoder may
    bind such a latch bit to the constant in frame [f] instead of encoding
    its transition cone: the omitted equality is implied, so satisfying
    assignments (and hence verdicts and counterexample depths) are
    unchanged. Sound only for frame chains rooted at reset — not for
    frames starting from a free (possibly unreachable) state. *)
