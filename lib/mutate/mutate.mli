(** Mutation fault-injection campaigns over {!Rtl.Ir} designs.

    The paper's evaluation rests on {e injected} bugs: a registry of
    hand-written variants measures how many faults A-QED detects and at
    what trace depth. This module generalizes that registry into a
    generated fault space. A {e mutation} is a small, semantic edit to a
    built circuit — an operator swap, a perturbed constant, a stuck-at net,
    an inverted mux select, a flipped reset bit, an off-by-one comparison
    bound — applied through {!Rtl.Ir.replace_kind}/{!Rtl.Ir.set_reg_init}
    to a fresh instance right before the A-QED monitors instrument it.

    A campaign has three stages:

    + {b generate} — enumerate every candidate mutation of the design,
      then draw a deterministic, seeded sample. Mutation ids are stable
      across runs: the same design, operator set and seed always name the
      same mutants.
    + {b screen} — discard mutants that provably cannot change any
      verdict, {e without any BMC unrolling}: either the reduced relation
      ({!Logic.Reduce}) is structurally identical to the baseline's (hash
      match via {!Bmc.Engine.obligation_key}), or a conflict-budgeted
      combinational miter ({!Sat.Solver.solve_limited}) proves the mutant's
      observable outputs and every latch next-state function equal to the
      baseline's. Inconclusive miters keep the mutant (conservative).
    + {b run} — fan the surviving mutants over a {!Parallel.Pool} and run
      the FC → RB → SAC flow on each with first-detection accounting:
      which check killed the mutant, at what counterexample depth, in how
      many seconds. Mutants no check kills are {e survivors} — concrete
      verification gaps, reported with their mutation site. *)

(** {1 Operators} *)

type op =
  | Binop_swap      (** arithmetic/comparison operator swap: [+]↔[-], [&]↔[|], [<]↔[<=]... *)
  | Operand_swap    (** swap the operands of a binary operator or concat *)
  | Const_perturb   (** constant ±1 and most-significant-bit flip *)
  | Stuck_at        (** a combinational net stuck at all-0 or all-1 *)
  | Mux_invert      (** mux select inversion (branches exchanged) *)
  | Reset_flip      (** latch reset-value bit flip *)
  | Off_by_one      (** ±1 on a constant comparison bound *)

val all_ops : op list
(** Every operator, in a fixed order. *)

val op_name : op -> string
(** Short lowercase name ([binop], [operand], [const], [stuck], [mux],
    [reset], [offby1]) — the spelling the CLI's [--ops] accepts. *)

val op_of_name : string -> op option

(** {1 Targets}

    A target packages what a campaign needs of a design: the builders the
    checks will wrap (RB may need a different build, e.g. memctrl's
    [assume_enabled]) and the per-design check parameters. Builders must be
    deterministic — signal ids are the coordinates mutations apply to. *)

type target = {
  target_name : string;
  build : unit -> Aqed.Iface.t;        (** FC and SAC instances *)
  build_rb : unit -> Aqed.Iface.t;     (** RB instances *)
  tau : int;                           (** RB response bound *)
  spec : (Rtl.Ir.signal -> Rtl.Ir.signal) option;  (** SAC spec, if any *)
  shared : (Aqed.Iface.t -> Rtl.Ir.signal) option; (** FC shared operand *)
}

(** {1 Mutations} *)

type mutation

val mutation_id : mutation -> string
(** Stable id, e.g. ["binop@s42:Add->Sub"] — a function of the design
    structure only, not of the seed or sample. *)

val mutation_op : mutation -> op

val site : mutation -> string
(** Human-readable mutation site: signal id, operation, width and the
    applied change. *)

val generate :
  ?ops:op list -> ?seed:int -> ?limit:int -> target -> mutation list
(** Enumerates all candidate mutations of [target.build ()] restricted to
    [ops] (default {!all_ops}), then draws a seeded sample of at most
    [limit] (default 64), returned in signal order. Deterministic for a
    fixed (design, ops, seed, limit). *)

val apply : mutation -> Aqed.Iface.t -> unit
(** Applies the mutation to a fresh instance in place. Raises [Failure] if
    the instance does not match the mutation's recorded shape (i.e. the
    builder is not deterministic). *)

(** {1 The equivalence screen} *)

type screen_verdict =
  | Distinct
      (** Not proven equivalent — the campaign will spend BMC time on it.
          Includes miters that hit the conflict budget. *)
  | Equal_hash
      (** The reduced relation hashes identically to the baseline's. *)
  | Equal_miter
      (** The budgeted miter proved all observable outputs, assumptions
          and latch next-state functions pairwise equal (and reset values
          match): no A-QED check can distinguish the mutant. *)

val screen : ?budget:int -> target -> mutation -> screen_verdict
(** [budget] (default 2000) is the miter's conflict budget
    ({!Sat.Solver.solve_limited}). *)

(** {1 Campaigns} *)

type detection = {
  killed_by : string;   (** ["FC"], ["RB"] or ["SAC"] *)
  kill_depth : int;     (** counterexample length in cycles *)
  kill_wall : float;    (** seconds spent by the detecting check *)
}

type status =
  | Killed of detection
  | Survived            (** no check killed it: a verification gap *)
  | Screened of screen_verdict  (** [Equal_hash] or [Equal_miter] only *)

type outcome = {
  mutation : mutation;
  status : status;
  screen_wall : float;  (** seconds spent screening *)
  checks_wall : float;  (** seconds spent in FC/RB/SAC (0 when screened) *)
}

type campaign = {
  campaign_target : string;
  seed : int;
  raw : int;                  (** generated mutants (sample size) *)
  outcomes : outcome list;    (** one per generated mutant, in order *)
  campaign_wall : float;
  campaign_jobs : int;
}

val run :
  ?ops:op list ->
  ?seed:int ->
  ?limit:int ->
  ?budget:int ->
  ?max_depth:int ->
  ?jobs:int ->
  ?pool:Parallel.Pool.t ->
  ?portfolio:int ->
  ?store:Store.t ->
  target -> campaign
(** Generates, screens and checks. Each mutant is screened and solved on a
    worker of [pool] (or a fresh pool of [jobs] workers, default 1);
    first-detection order is FC, then RB, then SAC (when [target.spec] is
    present), each bounded by [max_depth] (default 12). Progress streams
    through {!Telemetry.Progress} as mutants complete.

    [store] threads the persistent verdict store under every mutant's
    FC/RB/SAC checks (see {!Aqed.Check.run_obligation}): across repeated
    campaigns — the nightly re-running the same seed — unchanged mutants'
    obligations answer from revalidated entries instead of re-solving. *)

(** {1 Accounting} *)

val killed : campaign -> outcome list
val survivors : campaign -> outcome list
val screened : campaign -> outcome list

val screened_hash : campaign -> int
val screened_miter : campaign -> int

val score : campaign -> float
(** Mutation score: killed / (killed + survived); [1.0] when nothing
    reached the checks. *)

val kill_depth_histogram : campaign -> (int * int) list
(** (counterexample depth, kills at that depth), ascending. *)

val per_op_stats : campaign -> (op * int * int * int) list
(** Per operator: (op, checked, killed, screened) where
    [checked = killed + survived]. Operators with no generated mutants are
    omitted. *)

val per_check_kills : campaign -> (string * int) list
(** Kills attributed per check, in FC, RB, SAC order. *)

val pp_campaign : Format.formatter -> campaign -> unit
(** Summary, per-operator table, kill-depth histogram, and every survivor
    with its mutation site. *)
