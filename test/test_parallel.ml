(* Tests for the parallel verification subsystem: the work-stealing domain
   pool, the portfolio BMC mode, the single-flight cache, and the solver's
   cancellation/re-entry contract. The structural guarantee under test
   throughout: parallelism changes wall time, never results. *)

module Ir = Rtl.Ir
module Solver = Sat.Solver

(* ---- pool ---- *)

let test_pool_map_order () =
  Parallel.Pool.with_pool ~workers:4 (fun p ->
      let xs = List.init 100 (fun i -> i) in
      (* Uneven work so completion order differs from submission order. *)
      let f i =
        let acc = ref 0 in
        for k = 0 to (i * 37) mod 400 do acc := !acc + k done;
        ignore !acc;
        i * i
      in
      let got = Parallel.Pool.map_list p f xs in
      Alcotest.(check (list int)) "positional order" (List.map f xs) got)

let test_pool_exception () =
  Parallel.Pool.with_pool ~workers:2 (fun p ->
      let fut = Parallel.Pool.submit p (fun () -> failwith "boom") in
      Alcotest.check_raises "re-raised at await" (Failure "boom") (fun () ->
          ignore (Parallel.Pool.await fut));
      (* The pool survives a failed task. *)
      let ok = Parallel.Pool.submit p (fun () -> 41 + 1) in
      Alcotest.(check int) "still alive" 42 (Parallel.Pool.await ok))

let test_pool_nested_await () =
  (* A task that fans out subtasks and awaits them, on a single worker:
     only possible because [await] lends the blocked worker to the queue. *)
  Parallel.Pool.with_pool ~workers:1 (fun p ->
      let fut =
        Parallel.Pool.submit p (fun () ->
            let subs =
              List.init 5 (fun i -> Parallel.Pool.submit p (fun () -> i + 1))
            in
            List.fold_left (fun a f -> a + Parallel.Pool.await f) 0 subs)
      in
      Alcotest.(check int) "nested fan-out" 15 (Parallel.Pool.await fut))

let test_pool_shutdown_rejects () =
  let p = Parallel.Pool.create ~workers:1 () in
  Parallel.Pool.shutdown p;
  Parallel.Pool.shutdown p (* idempotent *);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (match Parallel.Pool.submit p (fun () -> ()) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- cache ---- *)

let no_cancel = Atomic.make false

let test_cache_basic () =
  let c = Parallel.Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; !calls * 10 in
  let find k = Parallel.Cache.find_or_compute c k ~cancel:no_cancel compute in
  let hit1, v1 = find "k" in
  let hit2, v2 = find "k" in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "same value" v1 v2;
  let hit3, _ = find "other" in
  Alcotest.(check bool) "another key is a miss" false hit3;
  Alcotest.(check int) "computed for the new key" 2 !calls

let test_cache_failure_not_cached () =
  let c = Parallel.Cache.create () in
  (try
     ignore
       (Parallel.Cache.find_or_compute c 1 ~cancel:no_cancel (fun () ->
            failwith "no"))
   with Failure _ -> ());
  let hit, v =
    Parallel.Cache.find_or_compute c 1 ~cancel:no_cancel (fun () -> 7)
  in
  Alcotest.(check bool) "retried after failure" false hit;
  Alcotest.(check int) "value" 7 v

let test_cache_single_flight () =
  (* Many workers asking for the same key at once: one computation. *)
  let c = Parallel.Cache.create () in
  let calls = Atomic.make 0 in
  Parallel.Pool.with_pool ~workers:4 (fun p ->
      let results =
        Parallel.Pool.map_list p
          (fun _ ->
            snd
              (Parallel.Cache.find_or_compute c "shared" ~cancel:no_cancel
                 (fun () ->
                   ignore (Atomic.fetch_and_add calls 1);
                   (* Give the other workers time to pile onto the key. *)
                   let t = Unix.gettimeofday () in
                   while Unix.gettimeofday () -. t < 0.05 do () done;
                   123)))
          (List.init 8 (fun i -> i))
      in
      List.iter (Alcotest.(check int) "same value" 123) results);
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get calls)

let test_cache_waiter_cancel () =
  (* A waiter on an in-flight key leaves with [Cancelled] once its own
     flag is set and the cache is woken; the computation goes on and
     publishes for everyone else. *)
  let c = Parallel.Cache.create () in
  let started = Atomic.make false and release = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        Parallel.Cache.find_or_compute c "k" ~cancel:no_cancel (fun () ->
            Atomic.set started true;
            (* Bounded, so a waiter that cannot leave fails the test
               instead of hanging it. *)
            let t = Unix.gettimeofday () in
            while (not (Atomic.get release)) && Unix.gettimeofday () -. t < 2.
            do Domain.cpu_relax () done;
            42))
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  let cancel = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        match Parallel.Cache.find_or_compute c "k" ~cancel (fun () -> 0) with
        | _ -> false
        | exception Parallel.Cache.Cancelled -> true)
  in
  Unix.sleepf 0.05;
  Atomic.set cancel true;
  Parallel.Cache.wake c;
  Alcotest.(check bool) "the waiter left cancelled" true (Domain.join waiter);
  Atomic.set release true;
  Alcotest.(check (pair bool int)) "the leader still computed" (false, 42)
    (Domain.join leader);
  Alcotest.(check (pair bool int)) "its value answers later lookups"
    (true, 42)
    (Parallel.Cache.find_or_compute c "k" ~cancel (fun () -> 0))

(* ---- batch driver vs sequential (the echo design, kept cheap) ---- *)

let echo ?(twist = false) () =
  let c = Ir.create "echo_par" in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:4 ()
  in
  let have = Ir.reg0 c "have" 1 in
  let value = Ir.reg0 c "value" 4 in
  let parity = Ir.reg0 c "parity" 1 in
  let in_ready = Ir.lognot have in
  let in_fire = Ir.logand in_valid in_ready in
  let out_fire = Ir.logand have out_ready in
  let base = Ir.add in_data (Ir.constant c ~width:4 3) in
  let stored =
    if twist then Ir.mux parity (Ir.logxor base (Ir.constant c ~width:4 1)) base
    else base
  in
  Ir.connect c value (Ir.mux in_fire stored value);
  Ir.connect c have (Ir.mux in_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));
  Ir.connect c parity (Ir.mux in_fire (Ir.lognot parity) parity);
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid:have
    ~out_data:value ~out_ready ()

let seed_obligations () =
  [
    Aqed.Check.prepare_fc ~name:"echo-twist/FC" ~max_depth:10
      (fun () -> echo ~twist:true ());
    Aqed.Check.prepare_fc ~name:"echo-clean/FC" ~max_depth:6 (fun () -> echo ());
    Aqed.Check.prepare_rb ~name:"echo-twist/RB" ~max_depth:8 ~tau:4
      (fun () -> echo ~twist:true ());
    Aqed.Check.prepare_rb ~name:"echo-clean/RB" ~max_depth:8 ~tau:4
      (fun () -> echo ());
  ]

let same_verdict (a : Aqed.Check.report) (b : Aqed.Check.report) =
  match (a.Aqed.Check.verdict, b.Aqed.Check.verdict) with
  | Aqed.Check.Bug t1, Aqed.Check.Bug t2 ->
    Bmc.Trace.length t1 = Bmc.Trace.length t2
  | Aqed.Check.No_bug_up_to k1, Aqed.Check.No_bug_up_to k2 -> k1 = k2
  | _, _ -> false

let test_batch_matches_sequential () =
  let sequential =
    List.map Aqed.Check.run_obligation (seed_obligations ())
  in
  List.iter
    (fun jobs ->
      let batch = Aqed.Check.run_batch ~jobs (seed_obligations ()) in
      Alcotest.(check int)
        (Printf.sprintf "-j %d result count" jobs)
        (List.length sequential)
        (List.length batch.Aqed.Check.entries);
      List.iter2
        (fun seq (e : Aqed.Check.batch_entry) ->
          Alcotest.(check bool)
            (Printf.sprintf "-j %d verdict %s" jobs e.Aqed.Check.entry_name)
            true
            (same_verdict seq e.Aqed.Check.entry_report);
          Alcotest.(check string)
            (Printf.sprintf "-j %d check kind" jobs)
            seq.Aqed.Check.check
            e.Aqed.Check.entry_report.Aqed.Check.check)
        sequential batch.Aqed.Check.entries)
    [ 1; 2; 4 ]

let test_portfolio_matches_single () =
  let single =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ~twist:true ()))
  in
  let raced =
    Aqed.Check.run_obligation ~portfolio:3
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ~twist:true ()))
  in
  Alcotest.(check bool) "portfolio bug verdict matches" true
    (same_verdict single raced);
  Alcotest.(check (option int)) "portfolio cex depth matches"
    (Aqed.Check.trace_length single)
    (Aqed.Check.trace_length raced);
  let clean_single =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () -> echo ()))
  in
  let clean_raced =
    Aqed.Check.run_obligation ~portfolio:3
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () -> echo ()))
  in
  Alcotest.(check bool) "portfolio clean verdict matches" true
    (same_verdict clean_single clean_raced)

let test_obligation_key_structural () =
  let key_of build =
    let iface = build () in
    let monitor = Aqed.Fc_monitor.add ~cnt_width:5 iface in
    Bmc.Engine.obligation_key iface.Aqed.Iface.circuit
      ~prop:monitor.Aqed.Fc_monitor.prop
  in
  let k1 = key_of (fun () -> echo ()) in
  let k2 = key_of (fun () -> echo ()) in
  let k3 = key_of (fun () -> echo ~twist:true ()) in
  Alcotest.(check string) "same build, same key" k1 k2;
  Alcotest.(check bool) "different logic, different key" true (k1 <> k3)

(* ---- solver cancellation and re-entry (satellite regression) ---- *)

(* Pigeonhole n+1 into n: small, UNSAT, and thousands of conflicts — ample
   iterations for the periodic cancellation poll to fire. *)
let pigeonhole s n =
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Solver.new_var s)) in
  for i = 0 to n do
    Solver.add_clause s (Array.to_list (Array.map (fun x -> x) v.(i)))
  done;
  for j = 0 to n - 1 do
    for i = 0 to n do
      for k = i + 1 to n do
        Solver.add_clause s [ -v.(i).(j); -v.(k).(j) ]
      done
    done
  done

let test_cancelled_resolve () =
  let s = Solver.create () in
  pigeonhole s 6;
  let flag = Atomic.make true in
  Solver.set_cancel s [ flag ];
  Alcotest.(check bool) "pre-set flag cancels the solve" true
    (match Solver.solve s with
     | _ -> false
     | exception Solver.Cancelled -> true);
  (* Re-entry after cancellation: same instance, flag released. *)
  Atomic.set flag false;
  Alcotest.(check bool) "re-solve finds unsat" true (Solver.solve s = Solver.Unsat)

let test_cancelled_resolve_with_assumptions () =
  (* A satisfiable instance cancelled mid-solve under assumptions, then
     re-solved with different assumptions: the assumption-related transient
     state (decision levels, propagation queue) must have been reset. *)
  let s = Solver.create () in
  let rng = Testbench.Prng.create 5 in
  for _ = 1 to 80 do ignore (Solver.new_var s) done;
  for _ = 1 to 300 do
    Solver.add_clause s
      (List.init 3 (fun _ ->
           let v = 1 + Testbench.Prng.below rng 80 in
           if Testbench.Prng.bool rng then v else -v))
  done;
  let flag = Atomic.make true in
  Solver.set_cancel s [ flag ];
  (match Solver.solve ~assumptions:[ 1; 2; 3 ] s with
   | _ -> ()   (* solved before the first poll: also fine *)
   | exception Solver.Cancelled -> ());
  Atomic.set flag false;
  (* Reference: a fresh solver on the same clauses and assumptions. *)
  let fresh = Solver.create () in
  let rng = Testbench.Prng.create 5 in
  for _ = 1 to 80 do ignore (Solver.new_var fresh) done;
  for _ = 1 to 300 do
    Solver.add_clause fresh
      (List.init 3 (fun _ ->
           let v = 1 + Testbench.Prng.below rng 80 in
           if Testbench.Prng.bool rng then v else -v))
  done;
  let want = Solver.solve ~assumptions:[ -1; 4 ] fresh in
  let got = Solver.solve ~assumptions:[ -1; 4 ] s in
  Alcotest.(check bool) "cancelled solver agrees with fresh solver" true
    (got = want);
  (match got with
   | Solver.Sat ->
     Alcotest.(check bool) "assumption -1 honoured" false (Solver.value s 1);
     Alcotest.(check bool) "assumption 4 honoured" true (Solver.value s 4)
   | Solver.Unsat -> ())

(* The portfolio's external cancel path: every member polls the caller's
   flag beside the race flag, so a pre-set flag stops the whole race, and a
   normal win trips only the race flag, never the caller's. *)
let test_portfolio_external_cancel () =
  let c = Ir.create "count_par" in
  let en = Ir.input c "en" 1 in
  let cnt =
    Ir.reg_fb c "cnt" ~init:(Bitvec.create ~width:4 0) (fun r ->
        Ir.mux en (Ir.add r (Ir.constant c ~width:4 1)) r)
  in
  let p = Bmc.Engine.prepare c ~prop:(Ir.ne cnt (Ir.constant c ~width:4 5)) in
  let cancel = Atomic.make true in
  Alcotest.(check bool) "pre-set flag raises Cancelled" true
    (match Bmc.Engine.check_prepared ~max_depth:8 ~portfolio:2 ~cancel p with
     | _ -> false
     | exception Solver.Cancelled -> true);
  Atomic.set cancel false;
  let r = Bmc.Engine.check_prepared ~max_depth:8 ~portfolio:2 ~cancel p in
  Alcotest.(check (option int)) "race finds the 6-frame counterexample"
    (Some 6)
    (match r.Bmc.Engine.outcome with
     | Bmc.Engine.Cex t -> Some (Bmc.Trace.length t)
     | Bmc.Engine.Bounded_ok _ -> None);
  Alcotest.(check bool) "a win leaves the caller's flag false" false
    (Atomic.get cancel)

let test_solver_config_knobs_same_result () =
  (* Diversified configurations must agree on satisfiability. *)
  let build config_i =
    let s =
      match config_i with
      | 0 -> Solver.create ()
      | 1 -> Solver.create ~seed:7 ~restart_base:50 ~phase_init:true ()
      | _ -> Solver.create ~seed:13 ~restart_base:400 ~phase_saving:false ()
    in
    pigeonhole s 5;
    Solver.solve s
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "config %d finds unsat" i)
        true
        (build i = Solver.Unsat))
    [ 0; 1; 2 ]

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool map order" `Quick test_pool_map_order;
      Alcotest.test_case "pool exception" `Quick test_pool_exception;
      Alcotest.test_case "pool nested await" `Quick test_pool_nested_await;
      Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown_rejects;
      Alcotest.test_case "cache basic" `Quick test_cache_basic;
      Alcotest.test_case "cache failure not cached" `Quick
        test_cache_failure_not_cached;
      Alcotest.test_case "cache single flight" `Quick test_cache_single_flight;
      Alcotest.test_case "batch matches sequential (-j 1 2 4)" `Slow
        test_batch_matches_sequential;
      Alcotest.test_case "portfolio matches single solver" `Slow
        test_portfolio_matches_single;
      Alcotest.test_case "obligation key structural" `Quick
        test_obligation_key_structural;
      Alcotest.test_case "cancelled re-solve" `Quick test_cancelled_resolve;
      Alcotest.test_case "cancelled re-solve with assumptions" `Quick
        test_cancelled_resolve_with_assumptions;
      Alcotest.test_case "portfolio external cancel" `Quick
        test_portfolio_external_cancel;
      Alcotest.test_case "config knobs agree" `Quick
        test_solver_config_knobs_same_result;
      Alcotest.test_case "cache waiter leaves on cancel" `Quick
        test_cache_waiter_cancel;
    ] )
