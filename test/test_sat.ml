(* Unit and property tests for the CDCL solver and the DIMACS front end. *)

module S = Sat.Solver

let fresh_vars s n = List.init n (fun _ -> S.new_var s)

let solve_lists clauses nvars =
  let s = S.create () in
  ignore (fresh_vars s nvars);
  List.iter (S.add_clause s) clauses;
  (S.solve s, s)

let is_sat = function S.Sat -> true | S.Unsat -> false

let test_trivial () =
  let r, _ = solve_lists [] 0 in
  Alcotest.(check bool) "empty instance is SAT" true (is_sat r);
  let r, s = solve_lists [ [ 1 ] ] 1 in
  Alcotest.(check bool) "unit clause SAT" true (is_sat r);
  Alcotest.(check bool) "model value" true (S.value s 1);
  let r, _ = solve_lists [ [ 1 ]; [ -1 ] ] 1 in
  Alcotest.(check bool) "contradiction UNSAT" false (is_sat r);
  let r, _ = solve_lists [ [] ] 1 in
  Alcotest.(check bool) "empty clause UNSAT" false (is_sat r)

let test_implication_chain () =
  (* x1 -> x2 -> ... -> x20, x1 forced, -x20 forced: UNSAT. *)
  let n = 20 in
  let chain = List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]) in
  let r, _ = solve_lists ([ [ 1 ]; [ -n ] ] @ chain) n in
  Alcotest.(check bool) "chain UNSAT" false (is_sat r);
  let r, s = solve_lists ([ [ 1 ] ] @ chain) n in
  Alcotest.(check bool) "chain SAT" true (is_sat r);
  Alcotest.(check bool) "propagated to end" true (S.value s n)

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small UNSAT. *)
  let s = S.create () in
  let v = Array.init 5 (fun _ -> Array.make 4 0) in
  for p = 1 to 4 do
    for h = 1 to 3 do
      v.(p).(h) <- S.new_var s
    done
  done;
  for p = 1 to 4 do
    S.add_clause s [ v.(p).(1); v.(p).(2); v.(p).(3) ]
  done;
  for h = 1 to 3 do
    for p1 = 1 to 4 do
      for p2 = p1 + 1 to 4 do
        S.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(3) UNSAT" false (is_sat (S.solve s))

let test_assumptions () =
  let s = S.create () in
  ignore (fresh_vars s 3);
  S.add_clause s [ 1; 2 ];
  S.add_clause s [ -1; 3 ];
  Alcotest.(check bool) "base SAT" true (is_sat (S.solve s));
  Alcotest.(check bool) "assume -2 forces 1,3" true
    (is_sat (S.solve ~assumptions:[ -2 ] s));
  Alcotest.(check bool) "value under assumption" true (S.value s 3);
  Alcotest.(check bool) "conflicting assumptions UNSAT" false
    (is_sat (S.solve ~assumptions:[ -2; -1 ] s));
  (* Solver is reusable after UNSAT-under-assumptions. *)
  Alcotest.(check bool) "still SAT afterwards" true (is_sat (S.solve s))

let test_incremental () =
  let s = S.create () in
  ignore (fresh_vars s 2);
  S.add_clause s [ 1; 2 ];
  Alcotest.(check bool) "sat 1" true (is_sat (S.solve s));
  S.add_clause s [ -1 ];
  Alcotest.(check bool) "sat 2" true (is_sat (S.solve s));
  Alcotest.(check bool) "forced 2" true (S.value s 2);
  S.add_clause s [ -2 ];
  Alcotest.(check bool) "now unsat" false (is_sat (S.solve s));
  (* Once unsatisfiable, stays unsatisfiable. *)
  Alcotest.(check bool) "sticky unsat" false (is_sat (S.solve s))

let test_tautology_dedup () =
  let s = S.create () in
  ignore (fresh_vars s 2);
  S.add_clause s [ 1; -1 ];          (* tautology: dropped *)
  S.add_clause s [ 2; 2; 2 ];        (* duplicates collapse to unit *)
  Alcotest.(check bool) "sat" true (is_sat (S.solve s));
  Alcotest.(check bool) "unit propagated" true (S.value s 2)

let test_stats () =
  let s = S.create () in
  ignore (fresh_vars s 2);
  S.add_clause s [ 1; 2 ];
  ignore (S.solve s);
  let st = S.stats s in
  Alcotest.(check int) "max_var" 2 st.S.max_var;
  Alcotest.(check bool) "clauses counted" true (st.S.clauses >= 1)

let test_bad_literal () =
  let s = S.create () in
  ignore (fresh_vars s 1);
  Alcotest.check_raises "unallocated var rejected"
    (Invalid_argument "Solver.add_clause: literal over unallocated variable")
    (fun () -> S.add_clause s [ 5 ])

(* ---- modern-CDCL machinery ---- *)

(* Streams the solver's proof into a list (chains dropped) and returns its
   reader: the derived clauses in derivation order, for the naive oracle
   ({!Rup_oracle.check}). *)
let recorded_proof s =
  let steps = ref [] in
  S.enable_proof s
    { S.on_clause = (fun _ _ -> ());
      on_step = (fun _ lits _ -> steps := lits :: !steps) };
  fun () -> List.rev !steps

let php_solver ?(restarts = S.Luby) ?restart_base ?reduce_first
    pigeons holes =
  let s = S.create ~restarts ?restart_base ?reduce_first () in
  let proof = recorded_proof s in
  let v = Array.init (pigeons + 1) (fun _ -> Array.make (holes + 1) 0) in
  for p = 1 to pigeons do
    for h = 1 to holes do
      v.(p).(h) <- S.new_var s
    done
  done;
  for p = 1 to pigeons do
    S.add_clause s (List.init holes (fun h -> v.(p).(h + 1)))
  done;
  for h = 1 to holes do
    for p1 = 1 to pigeons do
      for p2 = p1 + 1 to pigeons do
        S.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  (s, proof, { Sat.Dimacs.nvars = pigeons * holes;
        clauses =
          List.init pigeons (fun p ->
              List.init holes (fun h -> v.(p + 1).(h + 1)))
          @ List.concat_map
              (fun h ->
                List.concat_map
                  (fun p1 ->
                    List.filter_map
                      (fun p2 ->
                        if p2 > p1 then Some [ -v.(p1).(h); -v.(p2).(h) ]
                        else None)
                      (List.init pigeons (fun p -> p + 1)))
                  (List.init pigeons (fun p -> p + 1)))
              (List.init holes (fun h -> h + 1)) })

let test_tiered_reduction () =
  (* A low [reduce_first] forces database reductions during a conflict-heavy
     search; deleting learned clauses must not disturb the verdict or the
     recorded proof (deleted clauses remain implied, so the checker keeps
     them as premises). *)
  let s, proof, cnf = php_solver ~reduce_first:100 7 6 in
  Alcotest.(check bool) "php(7,6) UNSAT" true (S.solve s = S.Unsat);
  let st = S.stats s in
  Alcotest.(check bool) "reductions happened" true (st.S.reductions >= 1);
  Alcotest.(check bool) "tiers account for every learnt" true
    (st.S.lbd_core + st.S.lbd_mid + st.S.lbd_local = st.S.learned);
  Alcotest.(check bool) "proof valid across reductions" true
    (Rup_oracle.check cnf (proof ()) = Rup_oracle.Valid)

(* Pins the exact search on one deterministic instance that goes through
   every clause-store maintenance path. php(8,7) arrives in parts: with
   hole 7 unconstrained it is SAT; the unit "pigeon 1 in hole 1" then
   makes the root strip shorten every other pigeon's row (shortened
   clauses are allocated afresh, away from their list position);
   constraining hole 7 leaves php(7,6), refuted first under an assumption
   and, after inprocessing has vivified the learned clauses, outright —
   with learned clauses reduced from 100 conflicts on. Verdicts alone
   would not notice a bookkeeping slip that only perturbs the search (a
   clause lost in a compaction, a stale reason keeping a clause alive), so
   the counts are checked exactly. A change of memory layout or
   bookkeeping must leave them as they are; only a deliberate search
   change (say, separate binary watch lists) may update them. *)
let test_search_pinned () =
  let pigeons = 8 and holes = 7 in
  let s = S.create ~reduce_first:100 () in
  let v = Array.init (pigeons + 1) (fun _ -> Array.make (holes + 1) 0) in
  for p = 1 to pigeons do
    for h = 1 to holes do
      v.(p).(h) <- S.new_var s
    done
  done;
  for p = 1 to pigeons do
    S.add_clause s (List.init holes (fun h -> v.(p).(h + 1)))
  done;
  let at_most_one h =
    for p1 = 1 to pigeons do
      for p2 = p1 + 1 to pigeons do
        S.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  in
  for h = 1 to holes - 1 do at_most_one h done;
  Alcotest.(check bool) "hole 7 shared: SAT" true (is_sat (S.solve s));
  S.add_clause s [ v.(1).(1) ];
  (* A zero budget stops vivification after one probe, which leaves the
     rows to the root strip. *)
  S.simplify_inplace ~budget:0 s;
  at_most_one holes;
  Alcotest.(check bool) "UNSAT under an assumption" false
    (is_sat (S.solve ~assumptions:[ v.(2).(2) ] s));
  S.simplify_inplace s;
  Alcotest.(check bool) "php(8,7) UNSAT" false (is_sat (S.solve s));
  let st = S.stats s in
  Alcotest.(check bool) "reductions happened" true (st.S.reductions > 0);
  Alcotest.(check bool) "clauses vivified" true (st.S.vivified > 0);
  Alcotest.(check (list int)) "conflicts, decisions, propagations"
    [ 849; 1022; 17012 ]
    [ st.S.conflicts; st.S.decisions; st.S.propagations ]

(* The same pin on a binary-heavy search (two clauses in three binary,
   {!Test_fuzz.binary_heavy}): most implications and many conflicts come
   from binary clauses, binary reasons survive compaction, and learned
   binaries join the database. Two thirds of the clauses are solved
   first, inprocessing runs, and the rest refute the formula; the proof
   streams into {!Sat.Rup}, whose chains must all close. *)
let test_binary_search_pinned () =
  let nvars, clauses =
    Test_fuzz.binary_heavy (Testbench.Prng.create 0x2B1) ~nvars:150 ~copies:5
      ~ratio:4.3
  in
  let ck = Sat.Rup.create () and rejected = ref 0 in
  let s = S.create ~reduce_first:100 () in
  S.enable_proof s
    { S.on_clause = (fun id lits -> Sat.Rup.add_clause ~id ck lits);
      on_step =
        (fun id lits chain ->
          if not (Sat.Rup.add_step ~id ~chain ck lits) then incr rejected) };
  ignore (fresh_vars s nvars);
  let first = List.length clauses * 2 / 3 in
  List.iteri (fun i c -> if i < first then S.add_clause s c) clauses;
  Alcotest.(check bool) "two thirds: SAT" true (is_sat (S.solve s));
  S.simplify_inplace s;
  List.iteri (fun i c -> if i >= first then S.add_clause s c) clauses;
  Alcotest.(check bool) "all: UNSAT" false (is_sat (S.solve s));
  Alcotest.(check int) "every chain closes" 0 !rejected;
  Alcotest.(check bool) "refuted" true (Sat.Rup.contradictory ck);
  let st = S.stats s in
  Alcotest.(check bool) "reductions happened" true (st.S.reductions > 0);
  Alcotest.(check (list int)) "conflicts, decisions, propagations"
    [ 2276; 3040; 372343 ]
    [ st.S.conflicts; st.S.decisions; st.S.propagations ]

let test_ema_restarts () =
  (* The EMA strategy must reach the same verdicts; on a conflict-heavy
     UNSAT instance it actually restarts. *)
  let s, proof, cnf = php_solver ~restarts:S.Ema ~restart_base:50 6 5 in
  Alcotest.(check bool) "php(6,5) UNSAT under EMA" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "ema proof valid" true
    (Rup_oracle.check cnf (proof ()) = Rup_oracle.Valid);
  let sat = S.create ~restarts:S.Ema () in
  ignore (fresh_vars sat 3);
  S.add_clause sat [ 1; 2 ];
  S.add_clause sat [ -1; 3 ];
  Alcotest.(check bool) "ema SAT" true (is_sat (S.solve sat));
  Alcotest.(check bool) "ema model" true
    (List.for_all (List.exists (S.lit_value sat)) [ [ 1; 2 ]; [ -1; 3 ] ])

let test_vivification () =
  (* Probing r in [r;t;u] under (p v q), (-p v r), (-q v r) conflicts
     immediately: assuming -r forces -p and -q, emptying (p v q). So the
     clause vivifies to the unit [r]. *)
  let s = S.create () in
  let proof = recorded_proof s in
  ignore (fresh_vars s 5);
  let p = 1 and q = 2 and r = 3 and t = 4 and u = 5 in
  S.add_clause s [ p; q ];
  S.add_clause s [ -p; r ];
  S.add_clause s [ -q; r ];
  S.add_clause s [ r; t; u ];
  S.simplify_inplace s;
  let st = S.stats s in
  Alcotest.(check bool) "clause vivified" true (st.S.vivified >= 1);
  Alcotest.(check bool) "unit r recorded in proof" true
    (List.mem [ r ] (proof ()));
  Alcotest.(check bool) "still SAT" true (is_sat (S.solve s));
  Alcotest.(check bool) "r forced at root" true (S.value s r)

let test_warm_assumptions () =
  (* Repeated solves whose assumption lists share prefixes: the warm start
     keeps the matching prefix decided, and results must be exactly those
     of independent solves. *)
  let s = S.create () in
  ignore (fresh_vars s 6);
  S.add_clause s [ -1; 4 ];
  S.add_clause s [ -2; 5 ];
  S.add_clause s [ -3; 6 ];
  Alcotest.(check bool) "first solve SAT" true
    (is_sat (S.solve ~assumptions:[ 1; 2; 3 ] s));
  Alcotest.(check bool) "implications hold" true
    (S.value s 4 && S.value s 5 && S.value s 6);
  (* Shared prefix [1; 2], diverging tail. *)
  Alcotest.(check bool) "warm prefix solve SAT" true
    (is_sat (S.solve ~assumptions:[ 1; 2; -6 ] s));
  Alcotest.(check bool) "tail implication" true (not (S.value s 3));
  Alcotest.(check bool) "back to original assumptions" true
    (is_sat (S.solve ~assumptions:[ 1; 2; 3 ] s));
  Alcotest.(check bool) "implication restored" true (S.value s 6);
  (* Adding a clause resets the warm trail; solves stay sound. *)
  S.add_clause s [ -4; -5 ];
  Alcotest.(check bool) "conflicting prefix now UNSAT" false
    (is_sat (S.solve ~assumptions:[ 1; 2 ] s));
  Alcotest.(check bool) "shorter prefix still SAT" true
    (is_sat (S.solve ~assumptions:[ 1 ] s))

(* ---- brute-force cross-check ---- *)

let brute nvars clauses =
  let rec go v assign =
    if v > nvars then
      List.for_all
        (List.exists (fun l ->
             let b = assign.(abs l) in
             if l > 0 then b else not b))
        clauses
    else begin
      assign.(v) <- true;
      go (v + 1) assign
      ||
      (assign.(v) <- false;
       go (v + 1) assign)
    end
  in
  go 1 (Array.make (nvars + 1) false)

let arb_cnf =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun nvars ->
      list_size (int_range 1 24)
        (list_size (int_range 1 3)
           (map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool))
      >>= fun clauses -> return (nvars, clauses))
  in
  let print (nvars, clauses) =
    Printf.sprintf "vars=%d %s" nvars
      (String.concat " | "
         (List.map (fun c -> String.concat "," (List.map string_of_int c)) clauses))
  in
  QCheck.make ~print gen

let prop_matches_brute_force =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:300 arb_cnf
    (fun (nvars, clauses) ->
      let r, _ = solve_lists clauses nvars in
      is_sat r = brute nvars clauses)

let prop_models_are_models =
  QCheck.Test.make ~name:"SAT answers carry a satisfying model" ~count:300
    arb_cnf (fun (nvars, clauses) ->
      let r, s = solve_lists clauses nvars in
      (not (is_sat r))
      || List.for_all (List.exists (fun l -> S.lit_value s l)) clauses)

let prop_assumptions_sound =
  QCheck.Test.make ~name:"assumptions behave like unit clauses" ~count:200
    (QCheck.pair arb_cnf (QCheck.list_of_size (QCheck.Gen.return 2) QCheck.(int_range 1 8)))
    (fun ((nvars, clauses), assum_vars) ->
      let assums =
        List.filteri (fun i _ -> i < 2) assum_vars
        |> List.map (fun v -> (v mod nvars) + 1)
      in
      let r, _ = solve_lists clauses nvars in
      ignore r;
      let s = S.create () in
      ignore (fresh_vars s nvars);
      List.iter (S.add_clause s) clauses;
      let got = is_sat (S.solve ~assumptions:assums s) in
      let want = brute nvars (List.map (fun a -> [ a ]) assums @ clauses) in
      got = want)

(* ---- proof logging and RUP checking ---- *)

let test_proof_unsat_certified () =
  let cnf =
    { Sat.Dimacs.nvars = 3;
      clauses = [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ]; [ 3 ] ] }
  in
  Alcotest.(check bool) "unsat proof validates" true
    (Sat.Rup.check_solver_run cnf = Sat.Rup.Valid)

let test_proof_sat_nothing_to_certify () =
  let cnf = { Sat.Dimacs.nvars = 2; clauses = [ [ 1; 2 ] ] } in
  Alcotest.(check bool) "sat => incomplete" true
    (Sat.Rup.check_solver_run cnf = Sat.Rup.Incomplete)

let test_proof_tampering_detected () =
  (* A fabricated step that is not implied: x1 alone is not RUP for this
     formula. *)
  let cnf = { Sat.Dimacs.nvars = 2; clauses = [ [ 1; 2 ] ] } in
  (match Rup_oracle.check cnf [ [ 1 ]; [] ] with
   | Rup_oracle.Invalid 0 -> ()
   | Rup_oracle.Invalid i -> Alcotest.fail (Printf.sprintf "wrong index %d" i)
   | Rup_oracle.Valid | Rup_oracle.Incomplete ->
     Alcotest.fail "tampered proof accepted");
  (* A truncated proof (no empty clause) is incomplete, not valid. *)
  let cnf2 =
    { Sat.Dimacs.nvars = 1; clauses = [ [ 1 ]; [ -1 ] ] }
  in
  Alcotest.(check bool) "truncated proof incomplete" true
    (Rup_oracle.check cnf2 [] = Rup_oracle.Incomplete)

let prop_proofs_check =
  QCheck.Test.make ~name:"every UNSAT run yields a valid RUP proof"
    ~count:150 arb_cnf (fun (nvars, clauses) ->
      let cnf = { Sat.Dimacs.nvars = nvars; clauses } in
      match Sat.Rup.check_solver_run cnf with
      | Sat.Rup.Valid | Sat.Rup.Incomplete -> true
      | Sat.Rup.Invalid _ -> false)

let test_rup_incremental () =
  (* The incremental checker the BMC engine drives frame by frame, over
     #1 (x1 v x2), #2 (-x1 v x2), #3 (x1 v -x2), #4 (-x1 v -x2). *)
  let ck = Sat.Rup.create () in
  List.iteri
    (fun i c -> Sat.Rup.add_clause ~id:(i + 1) ck c)
    [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ];
  Alcotest.(check bool) "before any step, not contradictory" false
    (Sat.Rup.contradictory ck);
  (* [x2]: under -x2, #1 forces x1 and #2 is falsified. The accepted unit
     step becomes a root fact; the checker propagates nothing further on
     its own. *)
  Alcotest.(check bool) "implied step accepted" true
    (Sat.Rup.add_step ~id:5 ~chain:[| 1; 2 |] ck [ 2 ]);
  Alcotest.(check bool) "a root fact refutes nothing by itself" false
    (Sat.Rup.contradictory ck);
  (* The empty clause: on top of x2, #3 forces x1 and #4 is falsified. *)
  Alcotest.(check bool) "refutation accepted" true
    (Sat.Rup.add_step ~id:6 ~chain:[| 3; 4 |] ck []);
  Alcotest.(check bool) "formula now contradictory" true
    (Sat.Rup.contradictory ck);
  Alcotest.(check bool) "everything follows from a contradiction" true
    (Sat.Rup.check_step ck [ ]);
  (* A step that is not implied is rejected and not installed. *)
  let ck2 = Sat.Rup.create () in
  Sat.Rup.add_clause ~id:1 ck2 [ 1; 2 ];
  Alcotest.(check bool) "non-implied step rejected" false
    (Sat.Rup.check_step ~chain:[| 1 |] ck2 [ 1 ]);
  Alcotest.(check bool) "empty clause not implied" false
    (Sat.Rup.check_step ~chain:[| 1 |] ck2 [])

(* Chains are replayed, never trusted. Formula, with proof ids:
   #1 (x1 v x2), #2 (-x1 v x3), #3 (-x2 v x3), #4 (x4 v x5). Under -x3,
   #2 forces -x1, #3 forces -x2 and #1 is falsified: [x3] is RUP, with
   chain [2; 3; 1]. [x4] is not RUP: under -x4 only #4 fires. *)
let chain_checker () =
  let ck = Sat.Rup.create () in
  List.iteri
    (fun i c -> Sat.Rup.add_clause ~id:(i + 1) ck c)
    [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ 4; 5 ] ];
  ck

let test_chain_cannot_admit () =
  let rejects name chain step =
    Alcotest.(check bool) name false
      (Sat.Rup.check_step ~chain (chain_checker ()) step)
  in
  rejects "no chain" [||] [ 4 ];
  rejects "unknown ids" [| 7; 99; -3; 0 |] [ 4 ];
  rejects "real clauses, none unit" [| 1; 2; 3 |] [ 4 ];
  rejects "a unit clause that closes nothing" [| 4 |] [ 4 ];
  rejects "the RUP step's chain on a non-RUP step" [| 2; 3; 1 |] [ 1 ];
  rejects "empty clause, full chain" [| 2; 3; 1; 4 |] [];
  (* A rejected step is not installed: its id names nothing afterwards,
     so a step that would follow from it alone is rejected too. *)
  let ck = chain_checker () in
  Alcotest.(check bool) "non-RUP step refused" false
    (Sat.Rup.add_step ~id:10 ~chain:[| 4 |] ck [ 4 ]);
  Alcotest.(check bool) "its id names nothing" false
    (Sat.Rup.check_step ~chain:[| 10 |] ck [ 4; 1 ])

let test_closing_chains_accept () =
  let accepts name chain =
    Alcotest.(check bool) name true
      (Sat.Rup.check_step ~chain (chain_checker ()) [ 3 ])
  in
  accepts "exact chain" [| 2; 3; 1 |];
  accepts "misordered chain" [| 1; 3; 2 |];
  accepts "closing chain among unknown ids" [| 99; 2; -5; 3; 4; 1 |];
  (* An accepted step is installed under its id and serves later chains. *)
  let ck = chain_checker () in
  Alcotest.(check bool) "step installed" true
    (Sat.Rup.add_step ~id:5 ~chain:[| 2; 3; 1 |] ck [ 3; 4 ]);
  Alcotest.(check bool) "later chain through it" true
    (Sat.Rup.check_step ~chain:[| 5 |] ck [ 3; 4 ])

(* [x3] is RUP (the oracle confirms it), but a chain that leaves out a
   clause the refutation needs does not close, and there is no fallback
   to full propagation: the step is rejected. *)
let test_short_chain_rejected () =
  let formula = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ 4; 5 ] ] in
  Alcotest.(check bool) "x3 is RUP" true (Rup_oracle.rup formula [ 3 ]);
  let rejects name chain =
    Alcotest.(check bool) name false
      (Sat.Rup.check_step ~chain (chain_checker ()) [ 3 ])
  in
  rejects "without the falsified clause" [| 2; 3 |];
  rejects "without a forcing clause" [| 2; 1 |];
  rejects "no chain" [||];
  let ck = chain_checker () in
  Alcotest.(check bool) "short chain refused" false
    (Sat.Rup.add_step ~id:5 ~chain:[| 2 |] ck [ 3 ]);
  Alcotest.(check bool) "its id names nothing" false
    (Sat.Rup.check_step ~chain:[| 5 |] ck [ 3 ])

(* Every check bumps [cert.rup_steps], a rejected one [cert.rup_rejected]
   too; a 0 ends the chain, so a reused buffer's stale tail is never
   read. *)
let test_chain_counters () =
  let get name = Telemetry.Counter.get (Telemetry.Counter.make name) in
  let counted chain =
    let n = get "cert.rup_steps" and r = get "cert.rup_rejected" in
    let ok = Sat.Rup.check_step ~chain (chain_checker ()) [ 3 ] in
    (ok, get "cert.rup_steps" - n, get "cert.rup_rejected" - r)
  in
  let check name want chain =
    Alcotest.(check (triple bool int int)) name want (counted chain)
  in
  check "exact chain: closed" (true, 1, 0) [| 2; 3; 1 |];
  check "misordered chain: closed" (true, 1, 0) [| 1; 3; 2 |];
  check "partial chain: rejected" (false, 1, 1) [| 2 |];
  check "a 0 ends the chain" (false, 1, 1) [| 2; 0; 3; 1 |]

(* Tautologies are dropped, duplicates merged, and a unit clause becomes a
   root fact that chains walk on. *)
let test_rup_normalize () =
  let ck = Sat.Rup.create () in
  Sat.Rup.add_clause ~id:1 ck [ 1; 2; -1 ];
  Alcotest.(check bool) "tautology adds nothing" false
    (Sat.Rup.check_step ~chain:[| 1 |] ck [ 2 ]);
  Sat.Rup.add_clause ~id:2 ck [ -3; 2; -3 ];
  Alcotest.(check bool) "duplicates merged into a binary clause" true
    (Sat.Rup.check_step ~chain:[| 2 |] ck [ -3; 2 ]);
  Sat.Rup.add_clause ~id:3 ck [ 3; 3 ];
  Alcotest.(check bool) "duplicated unit is a root fact" true
    (Sat.Rup.check_step ~chain:[| 2 |] ck [ 2 ]);
  Alcotest.(check bool) "a root fact closes a step at once" true
    (Sat.Rup.check_step ck [ 3; 4 ]);
  Alcotest.(check bool) "not contradictory" false (Sat.Rup.contradictory ck);
  Sat.Rup.add_clause ~id:4 ck [ -3 ];
  Alcotest.(check bool) "a unit against a root fact refutes" true
    (Sat.Rup.contradictory ck)

let test_solve_limited () =
  (* A definite answer within the budget is returned; a hard instance under
     a one-conflict budget gives up with [None]. *)
  let s = S.create () in
  ignore (fresh_vars s 2);
  S.add_clause s [ 1; 2 ];
  (match S.solve_limited ~conflicts:1000 s with
   | Some S.Sat -> ()
   | Some S.Unsat | None -> Alcotest.fail "easy SAT within budget");
  let hard = S.create () in
  let v = Array.init 7 (fun _ -> Array.make 6 0) in
  for p = 1 to 6 do
    for h = 1 to 5 do
      v.(p).(h) <- S.new_var hard
    done
  done;
  for p = 1 to 6 do
    S.add_clause hard (List.init 5 (fun h -> v.(p).(h + 1)))
  done;
  for h = 1 to 5 do
    for p1 = 1 to 6 do
      for p2 = p1 + 1 to 6 do
        S.add_clause hard [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(5) exceeds a 1-conflict budget" true
    (S.solve_limited ~conflicts:1 hard = None);
  (* The same solver finishes once given room. *)
  Alcotest.(check bool) "php(5) UNSAT with a real budget" true
    (S.solve hard = S.Unsat)

let test_subsume_cleanup () =
  (* [1] kills its supersets; self-subsumption strengthens [-1;2] to [2],
     which then kills [2;3]. *)
  let out = Sat.Simplify.subsume [ [ 1; 2 ]; [ 1 ]; [ -1; 2 ]; [ 2; 3 ] ] in
  Alcotest.(check bool) "unit kept" true (List.mem [ 1 ] out);
  Alcotest.(check bool) "superset gone" false (List.mem [ 1; 2 ] out);
  Alcotest.(check bool) "strengthened" true (List.mem [ 2 ] out);
  Alcotest.(check bool) "strengthened superset gone" false
    (List.mem [ 2; 3 ] out)

let prop_subsume_equivalent =
  (* Unlike variable elimination, subsumption + strengthening preserves the
     set of models exactly, not just satisfiability. *)
  QCheck.Test.make ~name:"subsume preserves every assignment's verdict"
    ~count:250 arb_cnf (fun (nvars, clauses) ->
      let out = Sat.Simplify.subsume clauses in
      let eval cls assign =
        List.for_all
          (List.exists (fun l ->
               let b = assign.(abs l) in
               if l > 0 then b else not b))
          cls
      in
      let rec go v assign =
        if v > nvars then eval clauses assign = eval out assign
        else begin
          assign.(v) <- true;
          go (v + 1) assign
          && (assign.(v) <- false;
              go (v + 1) assign)
        end
      in
      go 1 (Array.make (nvars + 1) false))

(* ---- DIMACS ---- *)

let test_dimacs_parse () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Sat.Dimacs.parse_string text in
  Alcotest.(check int) "nvars" 3 cnf.Sat.Dimacs.nvars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Sat.Dimacs.clauses);
  Alcotest.(check (list (list int))) "content" [ [ 1; -2 ]; [ 2; 3 ] ]
    cnf.Sat.Dimacs.clauses

let test_dimacs_roundtrip () =
  let cnf = { Sat.Dimacs.nvars = 4; clauses = [ [ 1; 2 ]; [ -3; 4 ]; [ -1 ] ] } in
  let cnf' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
  Alcotest.(check int) "nvars" cnf.Sat.Dimacs.nvars cnf'.Sat.Dimacs.nvars;
  Alcotest.(check (list (list int))) "clauses" cnf.Sat.Dimacs.clauses
    cnf'.Sat.Dimacs.clauses

let test_dimacs_solve () =
  let r, model = Sat.Dimacs.solve { Sat.Dimacs.nvars = 2; clauses = [ [ 1 ]; [ -1; 2 ] ] } in
  Alcotest.(check bool) "sat" true (r = S.Sat);
  Alcotest.(check bool) "v1" true model.(1);
  Alcotest.(check bool) "v2" true model.(2)

let test_dimacs_errors () =
  Alcotest.check_raises "clause before header"
    (Failure "Dimacs: line 1: clause before problem line") (fun () ->
      ignore (Sat.Dimacs.parse_string "1 2 0\n"));
  Alcotest.check_raises "literal out of range"
    (Failure "Dimacs: line 2: literal 9 out of range") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 2 1\n9 0\n"))

let test_dimacs_strictness () =
  (* A final clause with no terminating 0 used to be dropped silently; the
     error points at the line the dangling literals started on. *)
  Alcotest.check_raises "unterminated final clause"
    (Failure "Dimacs: line 2: final clause not terminated by 0") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 2 1\n1 2\n"));
  (* The declared clause count is enforced in both directions. *)
  Alcotest.check_raises "fewer clauses than declared"
    (Failure "Dimacs: declared 2 clauses but found 1") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 2 2\n1 0\n"));
  Alcotest.check_raises "more clauses than declared"
    (Failure "Dimacs: declared 1 clauses but found 2") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 2 1\n1 0\n2 0\n"));
  (* A second problem line used to overwrite the first silently. *)
  Alcotest.check_raises "duplicate problem line"
    (Failure "Dimacs: line 2: duplicate problem line") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 2 1\np cnf 3 1\n1 0\n"));
  Alcotest.check_raises "missing problem line"
    (Failure "Dimacs: missing problem line") (fun () ->
      ignore (Sat.Dimacs.parse_string "c only a comment\n"));
  (* Still accepted: a clause spanning lines, terminated later. *)
  let cnf = Sat.Dimacs.parse_string "p cnf 3 1\n1 2\n3 0\n" in
  Alcotest.(check (list (list int))) "multi-line clause" [ [ 1; 2; 3 ] ]
    cnf.Sat.Dimacs.clauses

(* to_string declares the exact clause count and terminates every clause,
   so the strict parser accepts its own output bit-for-bit. *)
let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs to_string/parse_string round-trip"
    ~count:200 arb_cnf (fun (nvars, clauses) ->
      let cnf = { Sat.Dimacs.nvars; clauses } in
      let cnf' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
      cnf'.Sat.Dimacs.nvars = nvars && cnf'.Sat.Dimacs.clauses = clauses)

let suite =
  ( "sat",
    [
      Alcotest.test_case "trivial instances" `Quick test_trivial;
      Alcotest.test_case "implication chain" `Quick test_implication_chain;
      Alcotest.test_case "pigeonhole UNSAT" `Quick test_pigeonhole;
      Alcotest.test_case "assumptions" `Quick test_assumptions;
      Alcotest.test_case "incremental solving" `Quick test_incremental;
      Alcotest.test_case "tautology and duplicates" `Quick test_tautology_dedup;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "bad literal rejected" `Quick test_bad_literal;
      Alcotest.test_case "tiered reduction under proof" `Quick
        test_tiered_reduction;
      Alcotest.test_case "search pinned across maintenance" `Quick
        test_search_pinned;
      Alcotest.test_case "binary-heavy search pinned" `Quick
        test_binary_search_pinned;
      Alcotest.test_case "EMA restarts" `Quick test_ema_restarts;
      Alcotest.test_case "clause vivification" `Quick test_vivification;
      Alcotest.test_case "warm assumption prefixes" `Quick
        test_warm_assumptions;
      Alcotest.test_case "proof certifies unsat" `Quick test_proof_unsat_certified;
      Alcotest.test_case "proof on sat instance" `Quick test_proof_sat_nothing_to_certify;
      Alcotest.test_case "proof tampering detected" `Quick test_proof_tampering_detected;
      Alcotest.test_case "incremental RUP checker" `Quick test_rup_incremental;
      Alcotest.test_case "chains cannot admit a non-RUP step" `Quick
        test_chain_cannot_admit;
      Alcotest.test_case "closing chains accept a RUP step" `Quick
        test_closing_chains_accept;
      Alcotest.test_case "short chain rejects a RUP step" `Quick
        test_short_chain_rejected;
      Alcotest.test_case "chain counters and terminator" `Quick
        test_chain_counters;
      Alcotest.test_case "RUP clause normalization" `Quick test_rup_normalize;
      QCheck_alcotest.to_alcotest prop_proofs_check;
      Alcotest.test_case "solve_limited conflict budget" `Quick test_solve_limited;
      Alcotest.test_case "subsume cleanup" `Quick test_subsume_cleanup;
      QCheck_alcotest.to_alcotest prop_subsume_equivalent;
      Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
      Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
      Alcotest.test_case "dimacs solve" `Quick test_dimacs_solve;
      Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
      Alcotest.test_case "dimacs strictness" `Quick test_dimacs_strictness;
      QCheck_alcotest.to_alcotest prop_dimacs_roundtrip;
      QCheck_alcotest.to_alcotest prop_matches_brute_force;
      QCheck_alcotest.to_alcotest prop_models_are_models;
      QCheck_alcotest.to_alcotest prop_assumptions_sound;
    ] )
