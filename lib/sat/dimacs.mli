(** DIMACS CNF format support.

    Used by the test suite to exercise the solver on classic instances and by
    the CLI's [sat] subcommand. *)

type cnf = {
  nvars : int;
  clauses : int list list;
}

val parse_string : string -> cnf
(** Parses DIMACS CNF text. Raises [Failure] with a line-located message on
    malformed input. Comment lines ([c ...]) are skipped; the problem line
    ([p cnf V C]) is required before any clause. *)

val parse_file : string -> cnf

val to_string : cnf -> string

val load_into : Solver.t -> cnf -> unit
(** Allocates [nvars] variables in the solver and adds every clause. The
    solver must be fresh (no variables allocated yet). *)

val solve : cnf -> Solver.result * bool array
(** Convenience: solve a parsed CNF from scratch; the array maps variable
    [v] (1-based; index 0 unused) to its model value when satisfiable. *)
