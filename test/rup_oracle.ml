(* A deliberately naive RUP oracle for the tests. It keeps no watches and
   reads no chains: a step is judged by scanning every clause, again and
   again, until a scan finds a conflict or assigns nothing. It shares no
   code with {!Sat.Rup} or {!Sat.Solver} and is slow on purpose. Where
   the library checker asks whether a step's chain closes, this asks
   whether the step is RUP at all. *)

(* Asserting the negation of [step] and unit-propagating over [clauses]
   reaches a conflict. *)
let rup clauses step =
  let nvars =
    List.fold_left
      (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c)
      0 (step :: clauses)
  in
  let assign = Array.make (nvars + 1) 0 in
  let value l =
    let a = assign.(abs l) in
    if a = 0 then 0 else if (a > 0) = (l > 0) then 1 else -1
  in
  let set l = assign.(abs l) <- (if l > 0 then 1 else -1) in
  (* A literal true under the assertions so far: the step is a tautology. *)
  let rec negate = function
    | [] -> false
    | l :: rest ->
      value l = 1
      || begin
        set (-l);
        negate rest
      end
  in
  (* [0] when every literal of [c] is false, the literal when it is the
     only open one (however often it occurs) and none is true, [max_int]
     otherwise. *)
  let rec status u = function
    | [] -> u
    | l :: rest -> (
        match value l with
        | 1 -> max_int
        | 0 -> if u = 0 || u = l then status l rest else max_int
        | _ -> status u rest)
  in
  let rec scan () =
    let progress = ref false in
    List.exists
      (fun c ->
        let u = status 0 c in
        if u <> 0 && u <> max_int then begin
          set u;
          progress := true
        end;
        u = 0)
      clauses
    || (!progress && scan ())
  in
  negate step || scan ()

type verdict = Valid | Invalid of int | Incomplete

(* Every step of [proof] is RUP against the formula plus the steps before
   it ([Invalid i] names the first that is not), and the proof derives the
   empty clause. *)
let check (cnf : Sat.Dimacs.cnf) proof =
  let rec go clauses idx = function
    | [] -> if List.mem [] proof then Valid else Incomplete
    | step :: rest ->
      if rup clauses step then go (step :: clauses) (idx + 1) rest
      else Invalid idx
  in
  go cnf.Sat.Dimacs.clauses 0 proof
