(* Randomized fuzzing of the CDCL solver against independent certificates.

   Every answer is checked by something that shares no code with the
   solver's search: a Sat answer must carry a model that satisfies the
   original clauses (and the assumptions), and an Unsat answer must be
   confirmed by {!Sat.Rup}, the reverse-unit-propagation checker, fed the
   solver's proof stream with its chains as the engine's certified mode
   does. In the one-shot rounds every step that checker accepts is also
   held to a naive oracle ({!Rup_oracle}) that reads no chains. The
   incremental fuzz interleaves clause additions,
   prefix-correlated assumption solves and {!Sat.Solver.simplify_inplace}
   calls, the exact shape of the BMC frame loop, and certifies each answer
   against the checker's state after it. Seeds are fixed (Testbench.Prng),
   so failures reproduce. *)

module S = Sat.Solver
module P = Testbench.Prng

let is_sat = function S.Sat -> true | S.Unsat -> false

(* Random 3-SAT; ratios around 4.26 clauses/var sit near the phase
   transition, where instances are hardest for their size and both Sat and
   Unsat outcomes occur. *)
let random_3sat rng ~nvars ~ratio =
  let nclauses = int_of_float (ratio *. float_of_int nvars) in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + P.below rng nvars in
          if P.bool rng then v else -v))

(* Binary-heavy instances: a random 3-SAT core over [nvars] variables in
   which each variable is split into [copies] copies chained by
   equivalences (two binary clauses per link), every core literal naming
   a random copy, and the whole shuffled. With 5 copies and a core ratio
   near 4.3, two clauses in three are binary: propagation runs mostly
   along the chains, binary clauses conflict and become reasons, and the
   learned clauses include binaries, while the core keeps the instance
   as hard, and as often Unsat, as its 3-SAT part. Returns the number of
   variables and the clauses. *)
let binary_heavy rng ~nvars ~copies ~ratio =
  let copy v k = v + (k * nvars) in
  let links =
    List.concat_map
      (fun v ->
        List.concat_map
          (fun k ->
            let a = copy v k and b = copy v (k + 1) in
            [ [ -a; b ]; [ a; -b ] ])
          (List.init (copies - 1) Fun.id))
      (List.init nvars (fun i -> i + 1))
  in
  let core =
    List.init (int_of_float (ratio *. float_of_int nvars)) (fun _ ->
        List.init 3 (fun _ ->
            let v = copy (1 + P.below rng nvars) (P.below rng copies) in
            if P.bool rng then v else -v))
  in
  let a = Array.of_list (links @ core) in
  for i = Array.length a - 1 downto 1 do
    let j = P.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  (nvars * copies, Array.to_list a)

(* A solver whose proof streams into a fresh checker. Each derived clause
   must be closed by its chain the moment it is sent ([rejected] keeps the
   index of the first that is not), and the stream is logged: the problem
   clauses, so a test can hold them to the ones it added (the checker's
   formula must be the test's, not the solver's say-so), and the accepted
   steps, for the oracle. *)
type certified = {
  ck : Sat.Rup.checker;
  mutable stream : (bool * int list) list;
      (* problem clauses (false) and accepted steps (true), latest first *)
  mutable steps : int;
  mutable last_step : int;  (* id of the latest step *)
  mutable rejected : int option;
}

let certified_solver ?reduce_first () =
  let s = S.create ?reduce_first () in
  let c =
    { ck = Sat.Rup.create (); stream = []; steps = 0; last_step = 0;
      rejected = None }
  in
  S.enable_proof s
    {
      S.on_clause =
        (fun id lits ->
          c.stream <- (false, lits) :: c.stream;
          Sat.Rup.add_clause ~id c.ck lits);
      on_step =
        (fun id lits chain ->
          if Sat.Rup.add_step ~id ~chain c.ck lits then
            c.stream <- (true, lits) :: c.stream
          else if c.rejected = None then c.rejected <- Some c.steps;
          c.steps <- c.steps + 1;
          c.last_step <- id);
    };
  (s, c)

(* The solver reported, in order, the clauses the test added — all of
   them, unless the formula was already refuted, after which the solver
   ignores further clauses. *)
let formula_is_input c added =
  let rec prefix = function
    | [], rest -> rest = [] || Sat.Rup.contradictory c.ck
    | r :: rs, a :: added -> r = a && prefix (rs, added)
    | _ :: _, [] -> false
  in
  let reported =
    List.filter_map (fun (step, lits) -> if step then None else Some lits)
      c.stream
  in
  prefix (List.rev reported, added)

(* The index (among accepted steps) of the first one the naive oracle
   finds not RUP over the problem clauses and accepted steps before it. *)
let oracle_rejects c =
  let rec go clauses i = function
    | [] -> None
    | (false, lits) :: rest -> go (lits :: clauses) i rest
    | (true, lits) :: rest ->
      if Rup_oracle.rup clauses lits then go (lits :: clauses) (i + 1) rest
      else Some i
  in
  go [] 0 (List.rev c.stream)

let solver_of ?reduce_first nvars clauses =
  let s, c = certified_solver ?reduce_first () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  (s, c)

let model_satisfies s clauses =
  List.for_all (List.exists (fun l -> S.lit_value s l)) clauses

(* [rounds] one-shot solves of the instances [instance rng] draws (the
   variable count and the clauses), each answer certified and, with
   [oracle], each accepted step confirmed by the naive oracle; returns
   the number of database reductions summed over the rounds. *)
let one_shot_rounds ?reduce_first ?(oracle = true) ~seed ~rounds ~instance ()
    =
  let rng = P.create seed in
  let reductions = ref 0 in
  for round = 1 to rounds do
    let nvars, clauses = instance rng in
    let s, c = solver_of ?reduce_first nvars clauses in
    let r = S.solve s in
    reductions := !reductions + (S.stats s).S.reductions;
    if oracle then
      Option.iter
        (Alcotest.failf "round %d (n=%d): accepted step %d is not RUP" round
           nvars)
        (oracle_rejects c);
    match r with
    | S.Sat ->
      if not (model_satisfies s clauses) then
        Alcotest.failf "round %d (n=%d): Sat model violates a clause" round
          nvars
    | S.Unsat -> (
        if not (formula_is_input c clauses) then
          Alcotest.failf "round %d (n=%d): checker formula is not the input"
            round nvars;
        match c.rejected with
        | Some i ->
          Alcotest.failf "round %d (n=%d): proof invalid at step %d" round
            nvars i
        | None ->
          if not (Sat.Rup.contradictory c.ck) then
            Alcotest.failf "round %d (n=%d): proof incomplete" round nvars)
  done;
  !reductions

(* Random 3-SAT over [min_vars + below spread_vars] variables at a ratio
   from [min_ratio] up. *)
let random_3sat_rounds ?reduce_first ~seed ~rounds ~min_vars ~spread_vars
    ~min_ratio () =
  one_shot_rounds ?reduce_first ~seed ~rounds
    ~instance:(fun rng ->
      let nvars = min_vars + P.below rng spread_vars in
      let ratio = min_ratio +. (float_of_int (P.below rng 10) /. 10.) in
      (nvars, random_3sat rng ~nvars ~ratio))
    ()

let test_random_3sat () =
  ignore
    (random_3sat_rounds ~seed:0xF00D ~rounds:50 ~min_vars:20 ~spread_vars:41
       ~min_ratio:3.8 ())

(* The rounds above stay below a hundred conflicts each, far short of the
   first database reduction. These run past a low [reduce_first] on
   instances near the threshold, so learned clauses are deleted above
   level 0 and the clause store is compacted while reasons are live — the
   bookkeeping a compaction must preserve — and every answer is still
   certified. *)
let test_random_3sat_reductions () =
  let reductions =
    random_3sat_rounds ~reduce_first:100 ~seed:0xD1CE ~rounds:8
      ~min_vars:130 ~spread_vars:40 ~min_ratio:3.9 ()
  in
  Alcotest.(check bool) "reductions happened" true (reductions > 0)

(* The incremental shape: clauses arrive in batches, solves run under
   assumption lists that share prefixes with the previous call (so the
   warm-start path is exercised), and inprocessing fires between solves.
   The RUP checker takes the stream as it comes — the problem clauses on
   trust, each derived clause only if its chain closes — and after every
   solve judges the answer: Unsat must refute the assumptions along the
   latest step (the solver's last word on a refuted assumption, or a root
   fact), Sat must not. *)
let random_lit rng nvars =
  let v = 1 + P.below rng nvars in
  if P.bool rng then v else -v

(* [rounds] incremental sessions of [steps] steps each over the session
   [instance rng] draws: its variable count, and the clauses each step
   adds. Returns the solver statistics summed over the rounds. *)
let incremental_rounds ?reduce_first ~seed ~rounds ~steps ~instance () =
  let rng = P.create seed in
  let reductions = ref 0 and vivified = ref 0 in
  for round = 1 to rounds do
    let nvars, batch = instance rng in
    let s, c = certified_solver ?reduce_first () in
    for _ = 1 to nvars do
      ignore (S.new_var s)
    done;
    let added = ref [] in
    let assumptions = ref [] in
    for step = 1 to steps do
      let batch = batch step in
      List.iter
        (fun c ->
          S.add_clause s c;
          added := c :: !added)
        batch;
      if P.chance rng 0.3 then S.simplify_inplace ~budget:2_000 s;
      (* Keep a random prefix of the previous assumptions, then extend —
         matched prefixes are exactly what the warm start keeps decided. *)
      let keep = P.below rng (List.length !assumptions + 1) in
      let tail = List.init (P.below rng 3) (fun _ -> random_lit rng nvars) in
      assumptions := List.filteri (fun i _ -> i < keep) !assumptions @ tail;
      let r = S.solve ~assumptions:!assumptions s in
      if not (formula_is_input c (List.rev !added)) then
        Alcotest.failf "round %d step %d: checker formula is not the input"
          round step;
      Option.iter
        (Alcotest.failf "round %d step %d: proof step #%d is not RUP" round
           step)
        c.rejected;
      let refuted =
        Sat.Rup.contradictory c.ck
        || Sat.Rup.check_step ~chain:[| c.last_step |] c.ck
             (List.map (fun a -> -a) !assumptions)
      in
      if is_sat r then begin
        if not (model_satisfies s !added) then
          Alcotest.failf "round %d step %d: model violates an added clause"
            round step;
        if not (List.for_all (fun a -> S.lit_value s a) !assumptions) then
          Alcotest.failf "round %d step %d: model violates an assumption"
            round step;
        if refuted then
          Alcotest.failf "round %d step %d: Sat, yet the checker refutes the \
                          assumptions" round step
      end
      else if not refuted then
        Alcotest.failf "round %d step %d: Unsat not confirmed by RUP" round
          step
    done;
    let st = S.stats s in
    reductions := !reductions + st.S.reductions;
    vivified := !vivified + st.S.vivified
  done;
  (!reductions, !vivified)

(* Sessions over [min_vars + below spread_vars] variables whose steps each
   add [batch rng] random clauses of [width rng] literals. *)
let random_batches ~min_vars ~spread_vars ~batch ~width rng =
  let nvars = min_vars + P.below rng spread_vars in
  ( nvars,
    fun _ ->
      List.init (batch rng) (fun _ ->
          List.init (width rng) (fun _ -> random_lit rng nvars)) )

let test_incremental_fuzz () =
  ignore
    (incremental_rounds ~seed:0xBEEF ~rounds:20 ~steps:25
       ~instance:
         (random_batches ~min_vars:12 ~spread_vars:17
            ~batch:(fun rng -> 1 + P.below rng 5)
            ~width:(fun rng -> 1 + P.below rng 3))
       ())

(* The same shape at a size where the searches run past a low
   [reduce_first]: a near-threshold 3-SAT formula arrives in batches, with
   the odd unit or binary clause so the root strip has literals to remove.
   Reductions then interleave with inprocessing and warm assumption
   prefixes, and both must happen. *)
let test_incremental_reductions () =
  let reductions, vivified =
    incremental_rounds ~reduce_first:100 ~seed:0xCAFE ~rounds:8 ~steps:24
      ~instance:
        (random_batches ~min_vars:200 ~spread_vars:40
           ~batch:(fun rng -> 25 + P.below rng 25)
           ~width:(fun rng ->
             if P.chance rng 0.005 then 1
             else if P.chance rng 0.05 then 2
             else 3))
      ()
  in
  Alcotest.(check bool) "reductions happened" true (reductions > 0);
  Alcotest.(check bool) "clauses vivified" true (vivified > 0)

(* Binary-heavy instances, one-shot and incremental, past a low
   [reduce_first], and through inprocessing in the incremental sessions:
   binary clauses implied or conflicting from their watch entries alone,
   binary reasons with the implied literal at position 1 while the arena
   is compacted, learned binaries, and clause minimization meeting
   poisoned walks. Every answer is certified: a model against the
   clauses, an Unsat by {!Sat.Rup} along the chains. *)
let binary_share clauses =
  let binaries = List.filter (fun c -> List.length c = 2) clauses in
  float_of_int (List.length binaries) /. float_of_int (List.length clauses)

let heavy_instance rng ~nvars ~ratio =
  let nvars, clauses = binary_heavy rng ~nvars ~copies:5 ~ratio in
  if binary_share clauses < 0.6 then
    Alcotest.failf "binary share %.2f < 0.6" (binary_share clauses);
  (nvars, clauses)

let test_binary_heavy_one_shot () =
  let reductions =
    one_shot_rounds ~reduce_first:100 ~oracle:false ~seed:0xB1 ~rounds:12
      ~instance:(fun rng ->
        heavy_instance rng ~nvars:(60 + P.below rng 90) ~ratio:4.3)
      ()
  in
  Alcotest.(check bool) "reductions happened" true (reductions > 0)

(* The clauses of one instance arrive in [steps] consecutive batches. *)
let test_binary_heavy_incremental () =
  let steps = 12 in
  let reductions, vivified =
    incremental_rounds ~reduce_first:100 ~seed:0xB2 ~rounds:6 ~steps
      ~instance:(fun rng ->
        let nvars, clauses =
          heavy_instance rng ~nvars:(60 + P.below rng 60) ~ratio:4.4
        in
        let a = Array.of_list clauses and n = List.length clauses in
        ( nvars,
          fun step ->
            let lo = (step - 1) * n / steps and hi = step * n / steps in
            Array.to_list (Array.sub a lo (hi - lo)) ))
      ()
  in
  Alcotest.(check bool) "reductions happened" true (reductions > 0);
  Alcotest.(check bool) "clauses vivified" true (vivified > 0)

(* A reliably UNSAT instance (pigeonhole) fed in two halves with
   inprocessing in between, under proof recording: the vivified and
   strengthened clauses simplify_inplace derives are recorded through the
   proof path, so the complete log must still replay as RUP against the
   original clauses. *)
let php_clauses pigeons holes =
  let v p h = ((p - 1) * holes) + h in
  let rows =
    List.init pigeons (fun p -> List.init holes (fun h -> v (p + 1) (h + 1)))
  in
  let conflicts = ref [] in
  for h = 1 to holes do
    for p1 = 1 to pigeons do
      for p2 = p1 + 1 to pigeons do
        conflicts := [ -v p1 h; -v p2 h ] :: !conflicts
      done
    done
  done;
  (pigeons * holes, rows @ !conflicts)

let test_unsat_proof_with_inprocessing () =
  let nvars, clauses = php_clauses 6 5 in
  let s, c = certified_solver () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  let n = List.length clauses in
  let first = List.filteri (fun i _ -> i < n / 2) clauses in
  let second = List.filteri (fun i _ -> i >= n / 2) clauses in
  List.iter (S.add_clause s) first;
  Alcotest.(check bool) "half the instance is SAT" true (is_sat (S.solve s));
  S.simplify_inplace s;
  List.iter (S.add_clause s) second;
  S.simplify_inplace s;
  Alcotest.(check bool) "php(6,5) UNSAT" false (is_sat (S.solve s));
  (* Inprocessing again after Unsat must be a harmless no-op. *)
  S.simplify_inplace s;
  Alcotest.(check bool) "checker formula is the input" true
    (formula_is_input c clauses);
  match c.rejected with
  | Some i -> Alcotest.failf "proof with inprocessing invalid at step %d" i
  | None ->
    if not (Sat.Rup.contradictory c.ck) then
      Alcotest.fail "proof with inprocessing incomplete"

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "random 3-SAT differential" `Quick test_random_3sat;
      Alcotest.test_case "incremental add/assume/simplify differential" `Quick
        test_incremental_fuzz;
      Alcotest.test_case "random 3-SAT through reductions" `Quick
        test_random_3sat_reductions;
      Alcotest.test_case "incremental through reductions" `Quick
        test_incremental_reductions;
      Alcotest.test_case "binary-heavy one-shot" `Quick
        test_binary_heavy_one_shot;
      Alcotest.test_case "binary-heavy incremental" `Quick
        test_binary_heavy_incremental;
      Alcotest.test_case "UNSAT proof survives inprocessing" `Quick
        test_unsat_proof_with_inprocessing;
    ] )
