(** Abstracted optical-flow kernel (Table 2, Rosetta [Zhou 18] class) — RB
    bug study.

    Computes a per-window gradient: the input packs three horizontally
    adjacent pixels (the batch form of Sec. IV.B) and the output is the
    central-difference gradient [|p2 - p0|], computed by a two-stage unit
    (difference, then absolute value) with ready/valid handshaking.

    The injected bug is a lost-output handshake defect: the done flag is
    cleared when the result first becomes visible whether or not the host
    was ready, so a single cycle of host backpressure at the wrong moment
    loses the output — the accelerator then looks idle and the host waits
    forever. A textbook Response-Bound violation. *)

val data_width : int

val reference : int -> int
(** Gradient of a packed 3-pixel window. *)

val build : ?bug:bool -> unit -> Aqed.Iface.t

val tau : int
