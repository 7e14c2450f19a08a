(** Register-transfer-level hardware IR.

    A {!circuit} is a synchronous design: a DAG of combinational operators
    over fixed-width signals, plus registers clocked by an implicit global
    clock. Circuits are built imperatively — create a circuit, create
    signals, [connect] every register, declare outputs — then handed to the
    simulator ({!module:Sim}) or the bit-blaster ({!module:Blast}).

    Signals carry their width and their owning circuit; mixing circuits or
    widths raises [Invalid_argument] at construction time, so a circuit that
    builds successfully is width-correct by construction. *)

type circuit
type signal

type unop = Not | Neg | Redand | Redor | Redxor
type binop = Add | Sub | Mul | And | Or | Xor | Eq | Ult | Ule | Slt | Sle
type shift = Sll | Srl | Sra

(** Exposed for the simulator and bit-blaster; user code should not need to
    match on this. *)
type kind =
  | Input of string
  | Const of Bitvec.t
  | Unop of unop * signal
  | Binop of binop * signal * signal
  | Shift_const of shift * signal * int
  | Shift_var of shift * signal * signal
  | Mux of signal * signal * signal
  | Concat of signal * signal
  | Select of signal * int * int
  | Reg of string

(** {1 Circuits} *)

val create : string -> circuit
val circuit_name : circuit -> string

val output : circuit -> string -> signal -> unit
(** Declares a named output. Output names must be unique per circuit. *)

val find_output : circuit -> string -> signal
(** Raises [Not_found] for undeclared names. *)

val outputs : circuit -> (string * signal) list

val assume : circuit -> signal -> unit
(** Declares a 1-bit environment constraint: the simulator checks it each
    cycle (reporting violations), and BMC restricts the search to input
    sequences satisfying all assumptions in every cycle. *)

val assumes : circuit -> signal list

val inputs : circuit -> signal list
val registers : circuit -> signal list
val nb_signals : circuit -> int

val validate : circuit -> unit
(** Checks that every register has been connected. Raises [Failure] naming
    the offending register otherwise. Called by the simulator and blaster. *)

(** {1 Reflection and fault injection}

    A built circuit can be inspected signal by signal and {e mutated} in
    place: {!replace_kind} rewires one combinational node, {!set_reg_init}
    rewrites a reset value. Both preserve the circuit's width-correctness
    invariant (the replacement is checked like the original constructor
    would have been), so a mutated circuit is still a valid input to the
    simulator and the bit-blaster. This is the substrate of the [Mutate]
    fault-injection engine; ordinary circuit construction never needs
    it. *)

val signals : circuit -> signal list
(** Every signal of the circuit, in creation order. Deterministic builders
    therefore enumerate identically on every call, which is what makes a
    signal {!id} a stable mutation coordinate. *)

val find_signal : circuit -> int -> signal
(** Signal by its dense {!id}. Raises [Not_found] for ids never
    allocated. *)

val replace_kind : signal -> kind -> unit
(** [replace_kind s k] rewrites the defining operation of [s] in place;
    every reader of [s] now sees the new cone. The replacement must have
    exactly the width of [s], its operands must belong to the same circuit,
    and neither the old nor the new kind may be an [Input] or [Reg] (those
    carry bookkeeping beyond the kind). Raises [Invalid_argument]
    otherwise. *)

val set_reg_init : circuit -> signal -> Bitvec.t -> unit
(** Rewrites a register's reset value (same width required). Raises
    [Invalid_argument] if the signal is not a register of the circuit or
    widths differ. *)

(** {1 Signals} *)

val width : signal -> int
val kind : signal -> kind
val id : signal -> int
(** Dense identifier, unique within the circuit. *)

val circuit_of : signal -> circuit
(** The circuit a signal belongs to (e.g. to build constants inside a
    callback that only receives signals). *)

val signal_name : signal -> string option
(** The declared name of inputs and registers. *)

val input : circuit -> string -> int -> signal
(** [input c name w] — a fresh primary input of width [w]. *)

val const : circuit -> Bitvec.t -> signal
val constant : circuit -> width:int -> int -> signal
val vdd : circuit -> signal
(** 1-bit constant 1. *)

val gnd : circuit -> signal
(** 1-bit constant 0. *)

(** {1 Registers} *)

val reg : circuit -> string -> init:Bitvec.t -> signal
(** A register with the given reset value; its next-state function must be
    set exactly once with {!connect}. *)

val reg0 : circuit -> string -> int -> signal
(** Register of width [w] initialized to zero. *)

val connect : circuit -> signal -> signal -> unit
(** [connect c r next] sets the register's next-state input. Raises
    [Invalid_argument] if [r] is not a register, widths differ, or it is
    already connected. *)

val reg_next : circuit -> signal -> signal
(** The connected next-state signal of a register. *)

val reg_init : circuit -> signal -> Bitvec.t

val reg_fb : circuit -> string -> init:Bitvec.t -> (signal -> signal) -> signal
(** [reg_fb c name ~init f] creates a register, connects it to [f r] (which
    may refer to [r] itself), and returns it. *)

(** {1 Combinational operators} *)

val binop : circuit -> binop -> signal -> signal -> signal

val lognot : signal -> signal
val neg : signal -> signal
val reduce_and : signal -> signal
val reduce_or : signal -> signal
val reduce_xor : signal -> signal

val add : signal -> signal -> signal
val sub : signal -> signal -> signal
val mul : signal -> signal -> signal
val logand : signal -> signal -> signal
val logor : signal -> signal -> signal
val logxor : signal -> signal -> signal

val eq : signal -> signal -> signal
val ne : signal -> signal -> signal
val ult : signal -> signal -> signal
val ule : signal -> signal -> signal
val ugt : signal -> signal -> signal
val uge : signal -> signal -> signal
val slt : signal -> signal -> signal
val sle : signal -> signal -> signal

val sll : signal -> int -> signal
val srl : signal -> int -> signal
val sra : signal -> int -> signal
val srlv : signal -> signal -> signal

val mux : signal -> signal -> signal -> signal
(** [mux sel a b] is [a] when [sel] (1-bit) is 1, else [b]. *)

val concat : signal -> signal -> signal
(** [concat hi lo]. *)

val select : signal -> hi:int -> lo:int -> signal
val bit : signal -> int -> signal
val msb : signal -> signal
val lsb : signal -> signal

val zero_extend : signal -> int -> signal
val sign_extend : signal -> int -> signal
val resize : signal -> int -> signal
(** Zero-extends or truncates (keeping low bits) to the requested width. *)

val eq_const : signal -> int -> signal
(** [eq_const s n] compares against a constant of matching width. *)

val mux_n : signal -> signal list -> signal
(** [mux_n sel cases] selects [List.nth cases (value sel)]; the case list
    must have exactly [2^(width sel)] entries, all of equal width. *)

(** {1 Boolean sugar (1-bit signals)} *)

val ( &&: ) : signal -> signal -> signal
val ( ||: ) : signal -> signal -> signal
val ( ^: ) : signal -> signal -> signal
val not_ : signal -> signal
val implies : signal -> signal -> signal

val and_list : circuit -> signal list -> signal
val or_list : circuit -> signal list -> signal
