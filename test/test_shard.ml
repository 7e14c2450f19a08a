(* The fleet executor, in-process half: client-protocol parity with the
   in-process executor (verdicts, keys, certificates vs a direct solve),
   worker-side deadlines, a fleet that never forms at all, the pending
   queue's lease order, and the latency of a cached repeat. In every
   scenario the drain accounting must balance exactly: accepted =
   completed + timeouts + errors. test_serve.ml runs the service's
   client-facing cases against both executors.

   Workers here are threads over the real [Shard.Worker.run] lease loop,
   each with its own domain pool. The process-level failure scenarios —
   a worker SIGKILLed mid-solve, a worker that leases and then falls
   silent — need real fork'd children and live in test_proc.ml, a
   separate test executable: Unix.fork is forbidden once any domain has
   been spawned, and this runner's suites create pools. *)

module Ir = Rtl.Ir

let echo ?(twist = false) () =
  let c = Ir.create "echo_shard" in
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

let ob_fc ?(twist = false) ~depth () =
  Aqed.Check.prepare_fc ~max_depth:depth ~cnt_width:8 (fun () ->
      echo ~twist ())

(* The healthy worker's resolver. *)
let resolve (spec : Serve.job_spec) =
  let depth = spec.Serve.sj_depth in
  match spec.Serve.sj_design with
  | "echo" -> Ok ("echo", ob_fc ~depth ())
  | "echo-twist" -> Ok ("echo-twist", ob_fc ~twist:true ~depth ())
  | "aes-deep" ->
    Ok
      ( "aes-deep",
        Aqed.Check.prepare_fc ~max_depth:depth
          ~shared:Accel.Aes.shared_key (fun () -> Accel.Aes.build ()) )
  | d -> Error (Printf.sprintf "unknown design %s" d)

let tmp_path label =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "aqed_shard_%d_%s" (Unix.getpid ()) label)

(* A server over a fresh fleet with one worker thread per name in
   [workers], each running the real lease loop: run [f sock], drain,
   join the workers, and return [f]'s value, the drain summary and the
   fleet's counters. *)
let with_coord ?(capacity = 8) ?pending_grace_s ?(workers = []) label f =
  let sock = tmp_path (label ^ ".sock") in
  let fleet = Shard.Fleet.create ?pending_grace_s () in
  let srv =
    Serve.start ~executor:(Shard.Fleet.executor fleet)
      (Serve.config ~capacity ~job_timeout_s:120. ~idle_timeout_s:10.
         ~resolve sock)
  in
  let worker name () =
    try ignore (Shard.Worker.run (Shard.Worker.config ~name ~resolve sock))
    with _ -> ()
  in
  let workers = List.map (fun n -> Thread.create (worker n) ()) workers in
  let finish () =
    Serve.stop srv;
    let summary = Serve.wait srv in
    List.iter Thread.join workers;
    (summary, Shard.Fleet.stats fleet)
  in
  match f sock with
  | v ->
    let summary, stats = finish () in
    (v, summary, stats)
  | exception e ->
    ignore (finish ());
    raise e

let with_client sock f =
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let submit_ok c spec =
  match Serve.Client.submit c spec with
  | Serve.Client.Completed (_, _, o) -> o
  | Serve.Client.Timed_out (j, w) ->
    Alcotest.failf "job %d unexpectedly timed out after %.3fs" j w
  | Serve.Client.Busy (a, cap) ->
    Alcotest.failf "unexpectedly busy (%d/%d)" a cap
  | Serve.Client.Refused m -> Alcotest.failf "refused: %s" m

let check_balance (s : Serve.summary) =
  Alcotest.(check int) "accepted = completed + timeouts + errors"
    s.Serve.sm_accepted
    (s.Serve.sm_completed + s.Serve.sm_timeouts + s.Serve.sm_errors)

(* ---- protocol parity: the client cannot tell the executors apart ---- *)

let test_fleet_parity_vs_direct () =
  let direct =
    Aqed.Check.run_obligation ~certify:true (ob_fc ~twist:true ~depth:10 ())
  in
  let (o : Report.Journal.obligation), summary, stats =
    with_coord ~workers:[ "p1"; "p2" ] "parity" (fun sock ->
        with_client sock (fun c ->
            let o =
              submit_ok c
                (Serve.job_spec ~check:"fc" ~depth:10 ~certify:true
                   "echo-twist")
            in
            ignore (submit_ok c (Serve.job_spec ~depth:8 "echo"));
            (* The status frame advertises the fleet. *)
            let st = Serve.Client.status c in
            Alcotest.(check int) "two workers visible" 2
              (Report.Json.int_or 0 (Report.Json.member "workers" st));
            o))
  in
  Alcotest.(check string) "verdict" "bug" o.Report.Journal.ob_verdict;
  Alcotest.(check string) "structural key parity" direct.Aqed.Check.key
    o.Report.Journal.ob_key;
  (match direct.Aqed.Check.certificate with
   | Aqed.Check.Replayed k ->
     Alcotest.(check string) "certificate parity"
       (Printf.sprintf "replayed:%d" k)
       o.Report.Journal.ob_certificate
   | _ -> Alcotest.fail "direct certified bug must carry a replay cert");
  Alcotest.(check int) "two accepted" 2 summary.Serve.sm_accepted;
  Alcotest.(check int) "two completed" 2 summary.Serve.sm_completed;
  Alcotest.(check int) "two leases" 2 stats.Shard.Fleet.st_leases;
  Alcotest.(check int) "no deaths" 0 stats.Shard.Fleet.st_worker_deaths;
  check_balance summary

(* ---- worker-side deadline: typed timeout, fleet survives ---- *)

let test_worker_deadline_typed_timeout () =
  let (), summary, stats =
    with_coord ~workers:[ "t1" ] "timeout" (fun sock ->
        with_client sock (fun c ->
            (match
               Serve.Client.submit c
                 (Serve.job_spec ~depth:24 ~timeout_s:0.3 "aes-deep")
             with
             | Serve.Client.Timed_out (_, wall) ->
               Alcotest.(check bool) "took at least its deadline" true
                 (wall >= 0.3)
             | Serve.Client.Completed _ ->
               Alcotest.fail "deep AES cannot finish in 0.3s"
             | Serve.Client.Busy _ | Serve.Client.Refused _ ->
               Alcotest.fail "expected a typed timeout frame");
            (* Same fleet, same connection: the worker must still solve —
               cancellation, not death. *)
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "clean after timeout" "clean"
              o.Report.Journal.ob_verdict))
  in
  Alcotest.(check int) "one timeout" 1 summary.Serve.sm_timeouts;
  Alcotest.(check int) "one completed" 1 summary.Serve.sm_completed;
  Alcotest.(check int) "worker survived its own timeout" 0
    stats.Shard.Fleet.st_worker_deaths;
  check_balance summary

(* ---- no fleet: pending jobs get a typed error, not a hang ---- *)

let test_no_worker_pending_grace () =
  let (), summary, _ =
    with_coord ~pending_grace_s:0.5 "noworker" (fun sock ->
        with_client sock (fun c ->
            Serve.Client.send c
              (Serve.json_of_job_spec (Serve.job_spec ~depth:6 "echo"));
            ignore (Serve.Client.recv c) (* accepted *);
            let terminal = Serve.Client.recv c in
            Alcotest.(check string) "typed error frame" "error"
              (Report.Json.str_or ""
                 (Report.Json.member "frame" terminal));
            let msg =
              Report.Json.str_or ""
                (Report.Json.member "message" terminal)
            in
            Alcotest.(check bool) "message names the missing fleet" true
              (String.length msg > 0)))
  in
  Alcotest.(check int) "one error" 1 summary.Serve.sm_errors;
  Alcotest.(check int) "nothing completed" 0 summary.Serve.sm_completed;
  check_balance summary

(* ---- a cached repeat pays no per-job heartbeat floor ---- *)

let test_cached_repeat_latency () =
  let wall, _, _ =
    with_coord ~workers:[ "c1" ] "cached" (fun sock ->
        with_client sock (fun c ->
            let spec = Serve.job_spec ~depth:8 "echo" in
            ignore (submit_ok c spec);
            match Serve.Client.submit c spec with
            | Serve.Client.Completed (_, wall, o) ->
              Alcotest.(check bool) "answered from the worker's cache" true
                o.Report.Journal.ob_cached;
              wall
            | _ -> Alcotest.fail "expected the repeat to complete"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cached repeat wall_s %.4f < 0.025" wall)
    true (wall < 0.025)

(* ---- pending queue: re-queued first, then fresh oldest first ---- *)

let test_pending_order () =
  let q = Shard.Pending.create () in
  let rec drain acc =
    match Shard.Pending.pop q with
    | Some x -> drain (x :: acc)
    | None -> List.rev acc
  in
  List.iter (Shard.Pending.push q) [ 1; 2; 3 ];
  Shard.Pending.requeue q 10;
  Shard.Pending.requeue q 11;
  Alcotest.(check int) "length counts both ends" 5 (Shard.Pending.length q);
  Alcotest.(check (list int)) "re-queued (latest first), then fresh FIFO"
    [ 11; 10; 1; 2; 3 ] (drain []);
  Alcotest.(check int) "empty" 0 (Shard.Pending.length q);
  Shard.Pending.push q 4;
  Shard.Pending.requeue q 12;
  Shard.Pending.push q 5;
  Alcotest.(check (list int)) "order holds after interleaving" [ 12; 4; 5 ]
    (drain [])

let suite =
  ( "shard",
    [
      Alcotest.test_case "fleet parity vs direct solve (daemon client)"
        `Quick test_fleet_parity_vs_direct;
      Alcotest.test_case "worker-side deadline is a typed timeout" `Quick
        test_worker_deadline_typed_timeout;
      Alcotest.test_case "no worker: pending job gets a typed error" `Quick
        test_no_worker_pending_grace;
      Alcotest.test_case "cached repeat pays no heartbeat floor" `Quick
        test_cached_repeat_latency;
      Alcotest.test_case "pending queue: re-queued first, then FIFO" `Quick
        test_pending_order;
    ] )
