type unop = Not | Neg | Redand | Redor | Redxor
type binop = Add | Sub | Mul | And | Or | Xor | Eq | Ult | Ule | Slt | Sle
type shift = Sll | Srl | Sra

type signal = {
  sid : int;
  swidth : int;
  circ : circuit;
  mutable knd : kind;
}

and kind =
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

and circuit = {
  cname : string;
  mutable next_id : int;
  mutable all : signal list;          (* reverse creation order *)
  mutable input_list : signal list;   (* reverse order *)
  mutable reg_list : signal list;     (* reverse order *)
  mutable output_list : (string * signal) list;
  mutable assume_list : signal list;
  reg_next_tbl : (int, signal) Hashtbl.t;
  reg_init_tbl : (int, Bitvec.t) Hashtbl.t;
}

let create cname =
  {
    cname;
    next_id = 0;
    all = [];
    input_list = [];
    reg_list = [];
    output_list = [];
    assume_list = [];
    reg_next_tbl = Hashtbl.create 64;
    reg_init_tbl = Hashtbl.create 64;
  }

let circuit_name c = c.cname

let width s = s.swidth
let kind s = s.knd
let id s = s.sid
let circuit_of s = s.circ

let signal_name s =
  match s.knd with
  | Input n | Reg n -> Some n
  | Const _ | Unop _ | Binop _ | Shift_const _ | Shift_var _ | Mux _
  | Concat _ | Select _ -> None

let fresh c w knd =
  if w <= 0 then invalid_arg "Ir: signal width must be positive";
  let s = { sid = c.next_id; swidth = w; circ = c; knd } in
  c.next_id <- c.next_id + 1;
  c.all <- s :: c.all;
  s

let same_circuit a b =
  if a.circ != b.circ then
    invalid_arg "Ir: signals belong to different circuits"

let same_width name a b =
  same_circuit a b;
  if a.swidth <> b.swidth then
    invalid_arg
      (Printf.sprintf "Ir.%s: width mismatch (%d vs %d)" name a.swidth b.swidth)

let input c name w =
  let s = fresh c w (Input name) in
  c.input_list <- s :: c.input_list;
  s

let const c bv = fresh c (Bitvec.width bv) (Const bv)
let constant c ~width n = const c (Bitvec.create ~width n)
let vdd c = constant c ~width:1 1
let gnd c = constant c ~width:1 0

let reg c name ~init =
  let s = fresh c (Bitvec.width init) (Reg name) in
  c.reg_list <- s :: c.reg_list;
  Hashtbl.add c.reg_init_tbl s.sid init;
  s

let reg0 c name w = reg c name ~init:(Bitvec.zero w)

let is_reg s = match s.knd with Reg _ -> true | _ -> false

let connect c r next =
  same_circuit r next;
  if not (is_reg r) then invalid_arg "Ir.connect: not a register";
  if r.swidth <> next.swidth then invalid_arg "Ir.connect: width mismatch";
  if Hashtbl.mem c.reg_next_tbl r.sid then
    invalid_arg "Ir.connect: register already connected";
  Hashtbl.add c.reg_next_tbl r.sid next

let reg_next c r =
  match Hashtbl.find_opt c.reg_next_tbl r.sid with
  | Some n -> n
  | None ->
    failwith
      (Printf.sprintf "Ir: register %s is not connected"
         (match signal_name r with Some n -> n | None -> "?"))

let reg_init c r = Hashtbl.find c.reg_init_tbl r.sid

let reg_fb c name ~init f =
  let r = reg c name ~init in
  connect c r (f r);
  r

let output c name s =
  if List.mem_assoc name c.output_list then
    invalid_arg (Printf.sprintf "Ir.output: duplicate output %s" name);
  c.output_list <- (name, s) :: c.output_list

let find_output c name = List.assoc name c.output_list
let outputs c = List.rev c.output_list

let assume c s =
  if s.swidth <> 1 then invalid_arg "Ir.assume: not a 1-bit signal";
  c.assume_list <- s :: c.assume_list

let assumes c = List.rev c.assume_list
let inputs c = List.rev c.input_list
let registers c = List.rev c.reg_list
let nb_signals c = c.next_id

let validate c =
  List.iter
    (fun r ->
      if not (Hashtbl.mem c.reg_next_tbl r.sid) then
        failwith
          (Printf.sprintf "circuit %s: register %s is not connected" c.cname
             (match signal_name r with Some n -> n | None -> "?")))
    c.reg_list

(* ---- reflection and fault injection ---- *)

let signals c = List.rev c.all

let find_signal c sid =
  if sid < 0 || sid >= c.next_id then raise Not_found;
  (* [all] is in reverse creation order and ids are dense, so the signal
     with id [sid] sits at a known offset from the head. *)
  List.nth c.all (c.next_id - 1 - sid)

(* Width the constructors would have assigned to this kind; re-checking it
   on replacement keeps mutated circuits width-correct by construction. *)
let kind_width = function
  | Input _ | Reg _ ->
    invalid_arg "Ir.replace_kind: inputs and registers cannot be targets"
  | Const bv -> Bitvec.width bv
  | Unop ((Not | Neg), a) -> a.swidth
  | Unop ((Redand | Redor | Redxor), _) -> 1
  | Binop (op, a, b) ->
    same_width "replace_kind" a b;
    (match op with
     | Add | Sub | Mul | And | Or | Xor -> a.swidth
     | Eq | Ult | Ule | Slt | Sle -> 1)
  | Shift_const (_, a, k) ->
    if k < 0 then invalid_arg "Ir.replace_kind: negative shift amount";
    a.swidth
  | Shift_var (_, a, b) -> same_circuit a b; a.swidth
  | Mux (sel, a, b) ->
    same_width "replace_kind" a b;
    same_circuit sel a;
    if sel.swidth <> 1 then
      invalid_arg "Ir.replace_kind: mux selector must be 1 bit";
    a.swidth
  | Concat (hi, lo) -> same_circuit hi lo; hi.swidth + lo.swidth
  | Select (s, hi, lo) ->
    if lo < 0 || hi >= s.swidth || hi < lo then
      invalid_arg "Ir.replace_kind: bad select bounds";
    hi - lo + 1

let replace_kind s k =
  (match s.knd with
   | Input _ | Reg _ ->
     invalid_arg "Ir.replace_kind: inputs and registers cannot be targets"
   | Const _ | Unop _ | Binop _ | Shift_const _ | Shift_var _ | Mux _
   | Concat _ | Select _ -> ());
  let w = kind_width k in
  (match k with
   | Const _ -> ()
   | Unop (_, a) | Shift_const (_, a, _) | Select (a, _, _) ->
     same_circuit s a
   | Binop (_, a, _) | Shift_var (_, a, _) | Mux (_, a, _) | Concat (a, _) ->
     same_circuit s a
   | Input _ | Reg _ -> assert false);
  if w <> s.swidth then
    invalid_arg
      (Printf.sprintf "Ir.replace_kind: width mismatch (%d vs %d)" w s.swidth);
  s.knd <- k

let set_reg_init c r init =
  if r.circ != c || not (is_reg r) then
    invalid_arg "Ir.set_reg_init: not a register of this circuit";
  if Bitvec.width init <> r.swidth then
    invalid_arg "Ir.set_reg_init: width mismatch";
  Hashtbl.replace c.reg_init_tbl r.sid init

(* ---- combinational constructors ---- *)

let unop c op a =
  let w = match op with Not | Neg -> a.swidth | Redand | Redor | Redxor -> 1 in
  fresh c w (Unop (op, a))

let binop c op a b =
  same_width "binop" a b;
  let w =
    match op with
    | Add | Sub | Mul | And | Or | Xor -> a.swidth
    | Eq | Ult | Ule | Slt | Sle -> 1
  in
  fresh c w (Binop (op, a, b))

let lognot a = unop a.circ Not a
let neg a = unop a.circ Neg a
let reduce_and a = unop a.circ Redand a
let reduce_or a = unop a.circ Redor a
let reduce_xor a = unop a.circ Redxor a

let add a b = binop a.circ Add a b
let sub a b = binop a.circ Sub a b
let mul a b = binop a.circ Mul a b
let logand a b = binop a.circ And a b
let logor a b = binop a.circ Or a b
let logxor a b = binop a.circ Xor a b

let eq a b = binop a.circ Eq a b
let ne a b = unop a.circ Not (eq a b)
let ult a b = binop a.circ Ult a b
let ule a b = binop a.circ Ule a b
let ugt a b = ult b a
let uge a b = ule b a
let slt a b = binop a.circ Slt a b
let sle a b = binop a.circ Sle a b

let shift_const op a k =
  if k < 0 then invalid_arg "Ir: negative shift amount";
  fresh a.circ a.swidth (Shift_const (op, a, k))

let sll a k = shift_const Sll a k
let srl a k = shift_const Srl a k
let sra a k = shift_const Sra a k

let shift_var op a b =
  same_circuit a b;
  fresh a.circ a.swidth (Shift_var (op, a, b))

let srlv a b = shift_var Srl a b

let mux sel a b =
  same_width "mux" a b;
  same_circuit sel a;
  if sel.swidth <> 1 then invalid_arg "Ir.mux: selector must be 1 bit";
  fresh sel.circ a.swidth (Mux (sel, a, b))

let concat hi lo =
  same_circuit hi lo;
  fresh hi.circ (hi.swidth + lo.swidth) (Concat (hi, lo))

let select s ~hi ~lo =
  if lo < 0 || hi >= s.swidth || hi < lo then
    invalid_arg "Ir.select: bad bounds";
  fresh s.circ (hi - lo + 1) (Select (s, hi, lo))

let bit s i = select s ~hi:i ~lo:i
let msb s = bit s (s.swidth - 1)
let lsb s = bit s 0

let zero_extend s w =
  if w < s.swidth then invalid_arg "Ir.zero_extend: narrower target";
  if w = s.swidth then s
  else concat (const s.circ (Bitvec.zero (w - s.swidth))) s

let sign_extend s w =
  if w < s.swidth then invalid_arg "Ir.sign_extend: narrower target";
  if w = s.swidth then s
  else
    let ext = List.init (w - s.swidth) (fun _ -> msb s) in
    List.fold_left (fun acc b -> concat b acc) s ext

let resize s w =
  if w = s.swidth then s
  else if w > s.swidth then zero_extend s w
  else select s ~hi:(w - 1) ~lo:0

let eq_const s n = eq s (constant s.circ ~width:s.swidth n)

let mux_n sel cases =
  let n = List.length cases in
  if n <> 1 lsl sel.swidth then
    invalid_arg "Ir.mux_n: case count must be 2^(width sel)";
  let rec build sel cases =
    match cases with
    | [ x ] -> x
    | _ ->
      let half = List.length cases / 2 in
      let rec split i acc = function
        | rest when i = half -> (List.rev acc, rest)
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> assert false
      in
      let lo_cases, hi_cases = split 0 [] cases in
      let top = msb sel in
      let sub =
        if sel.swidth = 1 then sel (* unused below when lists are singleton *)
        else select sel ~hi:(sel.swidth - 2) ~lo:0
      in
      if List.length lo_cases = 1 then
        mux top (List.hd hi_cases) (List.hd lo_cases)
      else mux top (build sub hi_cases) (build sub lo_cases)
  in
  build sel cases

let ( &&: ) a b = logand a b
let ( ||: ) a b = logor a b
let ( ^: ) a b = logxor a b
let not_ a = lognot a
let implies a b = logor (lognot a) b

let and_list c = function
  | [] -> vdd c
  | s :: rest -> List.fold_left logand s rest

let or_list c = function
  | [] -> gnd c
  | s :: rest -> List.fold_left logor s rest
