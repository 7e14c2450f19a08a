(** RTL code generation from scheduled HLC programs.

    Produces an {!Aqed.Iface.t}-shaped accelerator: the packed parameters
    arrive on [in_data] under the ready/valid handshake, an FSM executes the
    schedule one stage per cycle, and the result is presented on [out_data]
    until the host takes it (single outstanding transaction). Parameters
    named in [shared] are {e not} packed into [in_data]; each becomes its
    own primary input (the batch-shared operand pattern — an AES key — of
    Sec. IV.B), registered at capture like the others.

    The [bug] knobs inject the control-path defect classes reported for the
    paper's HLS case studies (Table 2): all make the output depend on hidden
    state, which is exactly what FC detects. *)

type style =
  | Sequential
      (** one transaction at a time through an FSM (the default) *)
  | Pipelined
      (** initiation interval 1: a transaction may enter every cycle, with
          per-stage operand copies and a global stall on backpressure —
          several transactions are in flight at once, the state space the
          paper's deeper designs expose to FC *)

type bug =
  | Stale_operand of string
      (** the named parameter's register fails to reload on the transaction
          following a backpressured output *)
  | Early_valid
      (** out_valid raised one cycle before the result register is written *)
  | Result_overwrite
      (** a new transaction is accepted while a result is still pending,
          overwriting it *)
  | Stage_skip of int
      (** the FSM skips the given stage when the first parameter register
          is odd, leaving that stage's bindings stale *)

val to_rtl :
  ?bug:bug -> ?style:style -> ?shared:string list -> Ast.func -> Aqed.Iface.t
(** Fresh circuit; callable repeatedly. Raises [Ast.Type_error] on unchecked
    programs and [Invalid_argument] on unknown shared names, or when [bug]
    is combined with [Pipelined] (the bug knobs model FSM control defects). *)

val latency : Ast.func -> int
(** Cycles from capture to result-valid (the schedule depth). *)

val recommended_tau : Ast.func -> int
(** A safe response bound for RB checking of the generated design. *)

val shared_signal : Aqed.Iface.t -> string -> Rtl.Ir.signal
(** The primary-input wire of a shared parameter, for
    {!Aqed.Check.prepare_fc}'s [shared] argument. *)
