(** Word-parallel AIG simulation.

    One native [int] carries an independent Boolean vector in each bit of
    {!word_mask}; a single forward pass over the (topologically ordered)
    node array evaluates every node under all of them at once. This is the
    engine behind the reduction pipeline ({!Reduce}): random simulation
    partitions nodes into candidate-equivalence classes for SAT sweeping,
    and ternary (X-valued) simulation from the reset state discovers
    latches that are constant on every reachable state. *)

val word_mask : int
(** One bit per parallel Boolean vector: the native int width minus the
    sign bit, kept clear so masks stay non-negative. *)

val run : Aig.t -> input:(int -> int) -> int array
(** [run aig ~input] simulates the whole graph. [input idx] supplies the
    word for input node [idx] (called once per input, masked to
    {!word_mask}). Returns the per-node value array; read edges with
    {!read}. *)

val read : int array -> Aig.lit -> int
(** Value of an edge in a {!run} result (complement applied, masked). *)

(** {1 Ternary (three-valued) simulation}

    Each node carries a pair of masks: bit [i] of [ones] means "provably 1
    in vector i", bit [i] of [zeros] means "provably 0"; neither set is X.
    AND and complement are exact on this domain, so any bit proved here
    holds for {e every} concrete valuation of the X inputs. *)

type ternary = { ones : int array; zeros : int array }

val t_x : int * int
(** The all-X input word: no bit provable. *)

val t_const : bool -> int * int
(** A word constant in every vector. *)

val run_ternary : Aig.t -> input:(int -> int * int) -> ternary
(** [run_ternary aig ~input] as {!run}; [input idx] returns the
    [(ones, zeros)] masks for input node [idx]. Overlapping bits resolve in
    favour of [ones]. *)

val read_ternary0 : ternary -> Aig.lit -> bool option
(** The edge's value in vector 0: [Some b] if provable, [None] if X. *)
