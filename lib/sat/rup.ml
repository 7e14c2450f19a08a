type verdict =
  | Valid
  | Invalid of int
  | Incomplete

(* Incremental RUP checker with its own two-watched-literal propagation.
   Shares no code with [Solver]: the clause store, watch scheme and
   propagation loop are reimplemented from scratch so a solver bug cannot
   certify itself.

   The checker keeps a single root-level trail of permanently implied
   literals. [check_step] stacks the negation of a candidate clause on top
   of the root trail, propagates, and unwinds — root assignments are never
   undone, so satisfied clauses and falsified literals can be dropped at
   [add_clause] time (a temporary assignment never overrides a root one).

   A step may carry a hint chain: ids of stored clauses expected to become
   unit in turn. The checker walks it over its own copies of those clauses
   before falling back to full propagation, so a hint can only save work —
   a wrong or missing one never makes a step pass. *)

(* Steps closed by their hint chain, and steps that needed full
   propagation (unhinted, or their chain did not close). *)
let m_hinted = Telemetry.Counter.make "cert.rup_hinted"
let m_unhinted = Telemetry.Counter.make "cert.rup_unhinted"

type checker = {
  mutable nvars : int;
  mutable assign : int array;         (* var -> 0 unset / 1 true / -1 false *)
  mutable clauses : int array array;  (* clause store; c.(0), c.(1) watched *)
  mutable n_clauses : int;
  mutable watch : int array array;    (* lit_index -> clause ids watching it *)
  mutable watch_n : int array;
  mutable trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  mutable contra : bool;              (* formula refuted at the root *)
  mutable by_id : int array;          (* proof id -> clause store index, -1 *)
  mutable stamp : int array;          (* var -> generation, for tautologies *)
  mutable generation : int;
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let create ?(nvars = 0) () =
  let cap = max 16 (nvars + 1) in
  {
    nvars;
    assign = Array.make cap 0;
    clauses = Array.make 16 [||];
    n_clauses = 0;
    watch = Array.make ((2 * cap) + 2) [||];
    watch_n = Array.make ((2 * cap) + 2) 0;
    trail = Array.make cap 0;
    trail_n = 0;
    qhead = 0;
    contra = false;
    by_id = [||];
    stamp = Array.make cap 0;
    generation = 0;
  }

let ensure_var ck v =
  if v > ck.nvars then begin
    if v >= Array.length ck.assign then begin
      let cap = max (v + 1) (2 * Array.length ck.assign) in
      let grow a fill =
        let b = Array.make cap fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      ck.assign <- grow ck.assign 0;
      ck.trail <- grow ck.trail 0;
      ck.stamp <- grow ck.stamp 0;
      let wcap = (2 * cap) + 2 in
      let w = Array.make wcap [||] in
      Array.blit ck.watch 0 w 0 (Array.length ck.watch);
      ck.watch <- w;
      let wn = Array.make wcap 0 in
      Array.blit ck.watch_n 0 wn 0 (Array.length ck.watch_n);
      ck.watch_n <- wn
    end;
    ck.nvars <- v
  end

(* 1 = true, -1 = false, 0 = unassigned under the current trail. *)
let value ck lit =
  let a = ck.assign.(abs lit) in
  if a = 0 then 0 else if (a > 0) = (lit > 0) then 1 else -1

let enqueue ck lit =
  ck.trail.(ck.trail_n) <- lit;
  ck.trail_n <- ck.trail_n + 1;
  ck.assign.(abs lit) <- (if lit > 0 then 1 else -1)

let watch_add ck lit ci =
  let idx = lit_index lit in
  let n = ck.watch_n.(idx) in
  if n = Array.length ck.watch.(idx) then begin
    let a = Array.make (max 4 (2 * n)) 0 in
    Array.blit ck.watch.(idx) 0 a 0 n;
    ck.watch.(idx) <- a
  end;
  ck.watch.(idx).(n) <- ci;
  ck.watch_n.(idx) <- n + 1

(* Propagate every enqueued literal to fixpoint. Returns [true] on
   conflict. Standard scheme: when literal L becomes true, scan the clauses
   watching -L, compact the kept watches in place. *)
let propagate ck =
  let conflict = ref false in
  while (not !conflict) && ck.qhead < ck.trail_n do
    let lit = ck.trail.(ck.qhead) in
    ck.qhead <- ck.qhead + 1;
    let fl = -lit in
    let idx = lit_index fl in
    let ws = ck.watch.(idx) in
    let n = ck.watch_n.(idx) in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = ws.(!i) in
      incr i;
      let c = ck.clauses.(ci) in
      if c.(0) = fl then begin
        c.(0) <- c.(1);
        c.(1) <- fl
      end;
      let first = c.(0) in
      if value ck first = 1 then begin
        ws.(!keep) <- ci;
        incr keep
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && value ck c.(!k) = -1 do incr k done;
        if !k < len then begin
          (* New watch found; [watch_add] targets a different literal's
             list, so [ws] stays valid. *)
          c.(1) <- c.(!k);
          c.(!k) <- fl;
          watch_add ck c.(1) ci
        end
        else begin
          ws.(!keep) <- ci;
          incr keep;
          if value ck first = -1 then begin
            while !i < n do
              ws.(!keep) <- ws.(!i);
              incr keep;
              incr i
            done;
            conflict := true
          end
          else enqueue ck first
        end
      end
    done;
    ck.watch_n.(idx) <- !keep
  done;
  !conflict

let undo_to ck m =
  for i = ck.trail_n - 1 downto m do
    ck.assign.(abs ck.trail.(i)) <- 0
  done;
  ck.trail_n <- m;
  ck.qhead <- m

(* Sorted and deduplicated, or [None] for a tautology: after [sort_uniq] a
   variable seen twice occurs in both polarities. *)
let normalize_clause ck lits =
  List.iter
    (fun l ->
      if l = 0 then invalid_arg "Rup: zero literal";
      ensure_var ck (abs l))
    lits;
  let lits = List.sort_uniq Int.compare lits in
  ck.generation <- ck.generation + 1;
  let g = ck.generation in
  let rec taut = function
    | [] -> false
    | l :: rest ->
      let v = abs l in
      ck.stamp.(v) = g
      || begin
        ck.stamp.(v) <- g;
        taut rest
      end
  in
  if taut lits then None else Some lits

let register ck id ci =
  if id > 0 then begin
    let n = Array.length ck.by_id in
    if id >= n then begin
      let a = Array.make (max (id + 1) (2 * n)) (-1) in
      Array.blit ck.by_id 0 a 0 n;
      ck.by_id <- a
    end;
    ck.by_id.(id) <- ci
  end

let add_clause ?(id = 0) ck lits =
  if not ck.contra then
    match normalize_clause ck lits with
    | None -> ()  (* tautology: never propagates *)
    | Some lits ->
      let lits = List.filter (fun l -> value ck l <> -1) lits in
      if List.exists (fun l -> value ck l = 1) lits then ()
      else begin
        match lits with
        | [] -> ck.contra <- true
        | [ l ] ->
          enqueue ck l;
          if propagate ck then ck.contra <- true
        | l0 :: l1 :: _ ->
          let c = Array.of_list lits in
          if ck.n_clauses = Array.length ck.clauses then begin
            let a = Array.make (2 * ck.n_clauses) [||] in
            Array.blit ck.clauses 0 a 0 ck.n_clauses;
            ck.clauses <- a
          end;
          ck.clauses.(ck.n_clauses) <- c;
          let ci = ck.n_clauses in
          ck.n_clauses <- ck.n_clauses + 1;
          register ck id ci;
          watch_add ck l0 ci;
          watch_add ck l1 ci
      end

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

(* Walk a hint chain (its ids up to the first 0): pass over the named
   clauses, assigning each unit one, until one is falsified (the step is
   closed: [true]) or a whole pass assigns nothing. Ids with no stored
   clause — never registered, or dropped at the root when added — are
   skipped. *)
let walk_chain ck chain =
  let n = Array.length chain in
  let rec pass i progress =
    if i = n || chain.(i) = 0 then progress && pass 0 false
    else begin
      let id = chain.(i) in
      let ci =
        if id > 0 && id < Array.length ck.by_id then ck.by_id.(id) else -1
      in
      if ci < 0 then pass (i + 1) progress
      else begin
        let l = forced ck ck.clauses.(ci) in
        if l = 0 then true
        else if l = max_int then pass (i + 1) progress
        else begin
          enqueue ck l;
          pass (i + 1) true
        end
      end
    end
  in
  n > 0 && chain.(0) <> 0 && pass 0 false

let check_step ?(chain = [||]) ck step =
  if ck.contra then true
  else begin
    List.iter
      (fun l ->
        if l = 0 then invalid_arg "Rup: zero literal";
        ensure_var ck (abs l))
      step;
    let m = ck.trail_n in
    (* Assert the negation of every literal of the candidate clause. A
       literal already true (at the root, or from an earlier assertion of
       this step — which is how a tautological step shows up) conflicts
       with its asserted negation immediately. Duplicate literals are
       skipped by the same value test, so the step needs no
       normalization — this runs once per learned clause of a solver run,
       and the sort would dominate. *)
    let immediate = ref false in
    List.iter
      (fun l ->
        if not !immediate then
          match value ck l with
          | 1 -> immediate := true
          | -1 -> ()
          | _ -> enqueue ck (-l))
      step;
    (* The chain's assignments sit on the trail past [qhead], so the
       fallback propagation starts from everything the walk reached. *)
    let ok =
      !immediate
      || (walk_chain ck chain && (Telemetry.Counter.incr m_hinted; true))
      || (Telemetry.Counter.incr m_unhinted; propagate ck)
    in
    undo_to ck m;
    ok
  end

let add_step ?id ?chain ck step =
  let ok = check_step ?chain ck step in
  if ok then add_clause ?id ck step;
  ok

let check (cnf : Dimacs.cnf) proof =
  let ck = create ~nvars:cnf.Dimacs.nvars () in
  List.iter (add_clause ck) cnf.Dimacs.clauses;
  let rec go idx = function
    | [] -> if List.exists (fun c -> c = []) proof then Valid else Incomplete
    | step :: rest ->
      if add_step ck step then go (idx + 1) rest else Invalid idx
  in
  go 0 proof

let check_solver_run cnf =
  let ck = create ~nvars:cnf.Dimacs.nvars () in
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
