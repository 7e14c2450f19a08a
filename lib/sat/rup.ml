type verdict =
  | Valid
  | Invalid of int
  | Incomplete

(* Incremental chain-only RUP checker. Shares no code with [Solver]: it
   keeps no watch lists and never propagates on its own, so a solver bug
   cannot certify itself.

   The state is the clauses by proof id and a set of root facts. A root
   fact comes from a unit clause or an accepted unit step, and is never
   retracted. [check_step] assigns the negation of a candidate clause on
   top of the root facts, walks the step's chain over the stored clauses,
   and unwinds. The chain must close: a step it does not refute is
   rejected, however implied it may be. *)

(* Steps checked, and steps rejected because their chain did not close. *)
let m_steps = Telemetry.Counter.make "cert.rup_steps"
let m_rejected = Telemetry.Counter.make "cert.rup_rejected"

type checker = {
  mutable assign : int array;         (* var -> 0 unset / 1 true / -1 false *)
  mutable trail : int array;          (* a step's temporary assignment *)
  mutable trail_n : int;
  mutable clauses : int array array;  (* proof id -> clause, [||] if none *)
  mutable contra : bool;              (* formula refuted at the root *)
}

let create () =
  {
    assign = Array.make 16 0;
    trail = Array.make 16 0;
    trail_n = 0;
    clauses = Array.make 16 [||];
    contra = false;
  }

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let check_lits ck lits =
  List.iter
    (fun l ->
      if l = 0 then invalid_arg "Rup: zero literal";
      if abs l >= Array.length ck.assign then begin
        ck.assign <- grow ck.assign (abs l + 1) 0;
        ck.trail <- grow ck.trail (abs l + 1) 0
      end)
    lits

(* 1 = true, -1 = false, 0 = unassigned. *)
let value ck lit =
  let a = ck.assign.(abs lit) in
  if a = 0 then 0 else if (a > 0) = (lit > 0) then 1 else -1

let assign ck lit = ck.assign.(abs lit) <- (if lit > 0 then 1 else -1)

let add_clause ~id ck lits =
  check_lits ck lits;
  if id <= 0 then invalid_arg "Rup.add_clause: non-positive id";
  (* Sorted by variable, so a tautology shows as two adjacent literals. *)
  let lits =
    List.sort_uniq
      (fun a b ->
        let c = Int.compare (abs a) (abs b) in
        if c <> 0 then c else Int.compare a b)
      lits
  in
  let rec taut = function
    | a :: (b :: _ as rest) -> a = -b || taut rest
    | _ -> false
  in
  if not (ck.contra || taut lits) then
    match lits with
    | [] -> ck.contra <- true
    | [ l ] -> if value ck l = -1 then ck.contra <- true else assign ck l
    | _ ->
      if id >= Array.length ck.clauses then
        ck.clauses <- grow ck.clauses (id + 1) [||];
      ck.clauses.(id) <- Array.of_list lits

let contradictory ck = ck.contra

(* Under the current assignment: [0] when every literal of [c] is false,
   the literal when exactly one is unassigned and none true, [max_int]
   otherwise (satisfied, or still two open literals). *)
let forced ck c =
  let len = Array.length c in
  let unit_lit = ref 0 and i = ref 0 in
  while !i < len do
    let l = c.(!i) in
    incr i;
    match value ck l with
    | 1 ->
      unit_lit := max_int;
      i := len
    | 0 ->
      if !unit_lit = 0 then unit_lit := l
      else begin
        unit_lit := max_int;
        i := len
      end
    | _ -> ()
  done;
  !unit_lit

let push ck lit =
  assign ck lit;
  ck.trail.(ck.trail_n) <- lit;
  ck.trail_n <- ck.trail_n + 1

(* Walk a chain (its ids up to the first 0): pass over the named clauses,
   assigning each unit one, until one is falsified (the step is closed:
   [true]) or a whole pass assigns nothing. Ids naming no stored clause
   are skipped. *)
let walk_chain ck chain =
  let n = Array.length chain in
  let rec pass i progress =
    if i = n || chain.(i) = 0 then progress && pass 0 false
    else begin
      let id = chain.(i) in
      let c =
        if id > 0 && id < Array.length ck.clauses then ck.clauses.(id) else [||]
      in
      if Array.length c = 0 then pass (i + 1) progress
      else begin
        let l = forced ck c in
        if l = 0 then true
        else if l = max_int then pass (i + 1) progress
        else begin
          push ck l;
          pass (i + 1) true
        end
      end
    end
  in
  n > 0 && chain.(0) <> 0 && pass 0 false

let check_step ?(chain = [||]) ck step =
  ck.contra
  || begin
    check_lits ck step;
    Telemetry.Counter.incr m_steps;
    (* Assert the negation of every literal of the candidate clause. A
       literal already true (a root fact, or from an earlier assertion of
       this step — which is how a tautological step shows up) closes the
       step at once. Duplicate literals are skipped by the same value
       test, so the step needs no normalization. *)
    let rec negate = function
      | [] -> false
      | l :: rest -> (
          match value ck l with
          | 1 -> true
          | -1 -> negate rest
          | _ ->
            push ck (-l);
            negate rest)
    in
    let ok = negate step || walk_chain ck chain in
    for i = 0 to ck.trail_n - 1 do
      ck.assign.(abs ck.trail.(i)) <- 0
    done;
    ck.trail_n <- 0;
    if not ok then Telemetry.Counter.incr m_rejected;
    ok
  end

let add_step ~id ~chain ck step =
  let ok = check_step ~chain ck step in
  if ok then add_clause ~id ck step;
  ok

let check_solver_run cnf =
  let ck = create () in
  let steps = ref 0 and invalid = ref None in
  let s = Solver.create () in
  Solver.enable_proof s
    {
      Solver.on_clause = (fun id lits -> add_clause ~id ck lits);
      on_step =
        (fun id lits chain ->
          if !invalid = None then begin
            if not (add_step ~id ~chain ck lits) then invalid := Some !steps;
            incr steps
          end);
    };
  Dimacs.load_into s cnf;
  match Solver.solve s with
  | Solver.Sat -> Incomplete
  | Solver.Unsat -> (
      match !invalid with
      | Some i -> Invalid i
      | None -> if contradictory ck then Valid else Incomplete)
