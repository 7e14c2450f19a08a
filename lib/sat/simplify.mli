(** CNF cleanup: subsumption and self-subsuming resolution. *)

val subsume : int list list -> int list list
(** One subsumption + self-subsuming-resolution sweep over a raw clause
    list (occurrence-list indexed, signature-filtered — near-linear in
    practice). Tautologies are removed and literals sorted. Every model of
    the result is a model of the input and vice versa, so the sweep is a
    safe standalone CNF cleanup (no model reconstruction needed). *)
