(* The verification service, run once per executor — in-process and a
   fleet of two [Shard.Worker.run] threads: submit/complete verdict
   parity against a direct solve, per-job wall-clock timeouts with a
   surviving executor, malformed-frame connection isolation, client
   disconnects mid-job, SIGTERM drain flushing the store and journal,
   bounded-admission backpressure, and the spec cache: a repeat is
   answered without a build, one fresh spec solves once, a timeout is
   never cached, the key folds the check's case but keeps the depth, and
   a job waiting on another's solve of its spec leaves on its own
   deadline.

   Cheap jobs use the 4-bit echo design (as in test_store); the "slow"
   job is a deep AES FC obligation, which reliably outlives a
   sub-second deadline. *)

module Ir = Rtl.Ir

let echo ?(twist = false) () =
  let c = Ir.create "echo_serve" in
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

(* Calls of any resolved obligation's build, across every server and
   worker thread: the spec-cache cases read its deltas. *)
let builds = Atomic.make 0

let counted build () =
  Atomic.incr builds;
  build ()

let ob_fc ?(twist = false) ~depth () =
  Aqed.Check.prepare_fc ~max_depth:depth ~cnt_width:8
    (counted (fun () -> echo ~twist ()))

(* The test-side resolver: two cheap echo designs plus a deliberately
   expensive deep AES obligation for timeout/backpressure scenarios. *)
let resolve (spec : Serve.job_spec) =
  let depth = spec.Serve.sj_depth in
  match spec.Serve.sj_design with
  | "echo" -> Ok ("echo", ob_fc ~depth ())
  | "echo-twist" -> Ok ("echo-twist", ob_fc ~twist:true ~depth ())
  | "aes-deep" ->
    Ok
      ( "aes-deep",
        Aqed.Check.prepare_fc ~max_depth:depth
          ~shared:Accel.Aes.shared_key
          (counted (fun () -> Accel.Aes.build ())) )
  | d -> Error (Printf.sprintf "unknown design %s" d)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_path label =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "aqed_serve_%d_%s" (Unix.getpid ()) label)

type executor = In_process | Fleet

(* Start a server over [executor], run [f srv sock], [drain] it, and
   return [f]'s value and the drain summary. The fleet brings
   [fleet_workers] worker threads running the real lease loop, sharing
   [store]. *)
let with_server ?store ?journal ?(capacity = 4) ?(drain = Serve.stop)
    ?(fleet_workers = 2) executor label f =
  let label = (if executor = Fleet then "fleet_" else "") ^ label in
  let sock = tmp_path (label ^ ".sock") in
  let executor, workers =
    match executor with
    | In_process -> (Serve.in_process ?store ~workers:2 (), 0)
    | Fleet -> (Shard.Fleet.executor (Shard.Fleet.create ()), fleet_workers)
  in
  let srv =
    Serve.start ~executor
      (Serve.config ?journal ~capacity ~job_timeout_s:120.
         ~idle_timeout_s:10. ~resolve sock)
  in
  let worker i () =
    let name = Printf.sprintf "%s%d" label i in
    let cfg = Shard.Worker.config ~name ?store ~resolve sock in
    try ignore (Shard.Worker.run cfg) with _ -> ()
  in
  let workers = List.init workers (fun i -> Thread.create (worker i) ()) in
  let finish () =
    drain srv;
    let summary = Serve.wait srv in
    List.iter Thread.join workers;
    summary
  in
  match f srv sock with
  | v ->
    let summary = finish () in
    (v, summary)
  | exception e ->
    ignore (finish ());
    raise e

let with_client sock f =
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let completed = function
  | Serve.Client.Completed (_, _, o) -> o
  | Serve.Client.Timed_out (j, w) ->
    Alcotest.failf "job %d unexpectedly timed out after %.3fs" j w
  | Serve.Client.Busy (a, cap) ->
    Alcotest.failf "unexpectedly busy (%d/%d)" a cap
  | Serve.Client.Refused m -> Alcotest.failf "refused: %s" m

let submit_ok c spec = completed (Serve.Client.submit c spec)

(* Every spec submitted at once, one client thread and connection each;
   the answers come back in spec order. A transport failure in a thread
   becomes a refusal, so the caller's checks report it. *)
let submit_all sock specs =
  let submit spec cell () =
    cell :=
      try with_client sock (fun c -> Serve.Client.submit c spec)
      with e -> Serve.Client.Refused (Printexc.to_string e)
  in
  List.map
    (fun spec ->
      let cell = ref (Serve.Client.Refused "no reply") in
      (Thread.create (submit spec cell) (), cell))
    specs
  |> List.map (fun (th, cell) ->
         Thread.join th;
         completed !cell)

(* ---- submit/complete parity against a direct solve ---- *)

let test_submit_parity executor () =
  let direct =
    Aqed.Check.run_obligation ~certify:true (ob_fc ~twist:true ~depth:10 ())
  in
  let (o : Report.Journal.obligation), summary =
    with_server executor "parity" (fun _ sock ->
        with_client sock (fun c ->
            submit_ok c
              (Serve.job_spec ~check:"fc" ~depth:10 ~certify:true
                 "echo-twist")))
  in
  Alcotest.(check string) "verdict" "bug" o.Report.Journal.ob_verdict;
  (match direct.Aqed.Check.verdict with
   | Aqed.Check.Bug t ->
     Alcotest.(check int) "depth parity" (Bmc.Trace.length t)
       o.Report.Journal.ob_depth
   | _ -> Alcotest.fail "direct solve should find the twist bug");
  Alcotest.(check string) "structural key parity" direct.Aqed.Check.key
    o.Report.Journal.ob_key;
  (match direct.Aqed.Check.certificate with
   | Aqed.Check.Replayed k ->
     Alcotest.(check string) "certificate parity"
       (Printf.sprintf "replayed:%d" k)
       o.Report.Journal.ob_certificate
   | _ -> Alcotest.fail "direct certified bug must carry a replay cert");
  Alcotest.(check int) "one accepted" 1 summary.Serve.sm_accepted;
  Alcotest.(check int) "one completed" 1 summary.Serve.sm_completed;
  Alcotest.(check int) "no timeouts" 0 summary.Serve.sm_timeouts

(* ---- concurrent clients over a store filled by the direct path ---- *)

let test_concurrent_store_hits executor () =
  let dir = tmp_path "warm_store" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_store dir in
  (* Every echo-twist depth is past the bug, so all three solves write
     the same counterexample entry and any lookup of it is a hit. *)
  let specs =
    [ Serve.job_spec ~depth:8 "echo";
      Serve.job_spec ~depth:8 "echo-twist";
      Serve.job_spec ~depth:10 "echo-twist";
      Serve.job_spec ~depth:12 "echo-twist" ]
  in
  let direct =
    Aqed.Check.run_batch ~store
      (List.map (fun spec -> snd (Result.get_ok (resolve spec))) specs)
  in
  let served, summary =
    with_server ~store executor "warm" (fun _ sock -> submit_all sock specs)
  in
  List.iter2
    (fun (spec, (e : Aqed.Check.batch_entry)) (o : Report.Journal.obligation) ->
      let d =
        Report.Journal.of_report ~design:spec.Serve.sj_design
          e.Aqed.Check.entry_report
      in
      let what =
        Printf.sprintf "%s@%d " spec.Serve.sj_design spec.Serve.sj_depth
      in
      Alcotest.(check string) (what ^ "verdict") d.Report.Journal.ob_verdict
        o.Report.Journal.ob_verdict;
      Alcotest.(check int) (what ^ "depth") d.Report.Journal.ob_depth
        o.Report.Journal.ob_depth;
      Alcotest.(check string) (what ^ "key") d.Report.Journal.ob_key
        o.Report.Journal.ob_key;
      Alcotest.(check string) (what ^ "certificate")
        d.Report.Journal.ob_certificate o.Report.Journal.ob_certificate;
      Alcotest.(check bool) (what ^ "answered from the store") true
        o.Report.Journal.ob_cached)
    (List.combine specs direct.Aqed.Check.entries)
    served;
  let n = List.length specs in
  Alcotest.(check int) "all accepted" n summary.Serve.sm_accepted;
  Alcotest.(check int) "all completed" n summary.Serve.sm_completed;
  Alcotest.(check int) "no timeouts" 0 summary.Serve.sm_timeouts;
  Alcotest.(check int) "none rejected" 0 summary.Serve.sm_rejected;
  Alcotest.(check int) "no errors" 0 summary.Serve.sm_errors

(* ---- per-job timeout: typed reply, daemon and pool survive ---- *)

let test_timeout_keeps_pool_usable executor () =
  let (), summary =
    with_server executor "timeout" (fun _ sock ->
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
            (* Same daemon, same connection: the pool must still solve. *)
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "clean after timeout" "clean"
              o.Report.Journal.ob_verdict))
  in
  Alcotest.(check int) "two accepted" 2 summary.Serve.sm_accepted;
  Alcotest.(check int) "one timeout" 1 summary.Serve.sm_timeouts;
  Alcotest.(check int) "one completed" 1 summary.Serve.sm_completed

(* ---- malformed frame: that connection dies, the daemon does not ---- *)

let test_malformed_frame_isolation executor () =
  let (), _summary =
    with_server executor "malformed" (fun _ sock ->
        (* Raw socket, bypassing the typed client. *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let garbage = Bytes.of_string "this is not json\n" in
            ignore (Unix.write fd garbage 0 (Bytes.length garbage));
            let buf = Bytes.create 4096 in
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            let reply = Bytes.sub_string buf 0 n in
            let j = Report.Json.of_string (String.trim reply) in
            Alcotest.(check string) "typed error frame" "error"
              (Report.Json.str_or "" (Report.Json.member "frame" j));
            (* The server closes this connection... *)
            Alcotest.(check int) "connection closed" 0
              (Unix.read fd buf 0 (Bytes.length buf)));
        (* ...but keeps serving new ones. *)
        with_client sock (fun c ->
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "daemon survived" "clean"
              o.Report.Journal.ob_verdict))
  in
  ()

(* ---- client disconnect mid-job: EPIPE, not SIGPIPE; slots freed ---- *)

let test_client_disconnect_mid_job executor () =
  let (), summary =
    with_server executor "disconnect" (fun _ sock ->
        (* Two clients vanish right after submitting — one job that will
           complete, one that will time out. Every later frame write to
           their sockets (accepted, done, timeout) hits a dead peer: it
           must surface as a swallowed EPIPE, not a SIGPIPE that kills
           the daemon, and both jobs must still release their capacity
           slots and be accounted. *)
        let c1 = Serve.Client.connect sock in
        Serve.Client.send c1
          (Serve.json_of_job_spec (Serve.job_spec ~depth:10 "echo-twist"));
        Serve.Client.close c1;
        let c2 = Serve.Client.connect sock in
        Serve.Client.send c2
          (Serve.json_of_job_spec
             (Serve.job_spec ~depth:24 ~timeout_s:1.0 "aes-deep"));
        Serve.Client.close c2;
        (* Let the daemon admit both before racing it with a live one. *)
        Thread.delay 0.3;
        with_client sock (fun c ->
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "daemon survived the disconnects"
              "clean" o.Report.Journal.ob_verdict))
  in
  Alcotest.(check int) "all three admitted" 3 summary.Serve.sm_accepted;
  Alcotest.(check int) "orphaned completion still accounted" 2
    summary.Serve.sm_completed;
  Alcotest.(check int) "orphaned timeout still accounted" 1
    summary.Serve.sm_timeouts;
  Alcotest.(check int) "no errors" 0 summary.Serve.sm_errors

(* ---- SIGTERM drain: store and journal are flushed, nothing is lost ---- *)

let test_sigterm_drain_flushes executor () =
  let dir = tmp_path "drain_store" in
  let journal_path = tmp_path "drain.jsonl" in
  rm_rf dir;
  rm_rf journal_path;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      rm_rf dir;
      rm_rf journal_path)
    (fun () ->
      let meta =
        {
          Report.Journal.created_s = 0.;
          command = "serve";
          design = "serve";
          git_rev = "";
          jobs = 2;
          seed = 0;
          flags = [];
          fingerprint = "test;serve";
        }
      in
      let (), summary =
        (* The real drain path: the signal, not a direct call. *)
        with_server ~store:(Store.open_store dir)
          ~journal:(journal_path, meta)
          ~drain:(fun _ -> Unix.kill (Unix.getpid ()) Sys.sigterm)
          executor "drain" (fun srv sock ->
            Sys.set_signal Sys.sigterm
              (Sys.Signal_handle (fun _ -> Serve.stop srv));
            let o =
              with_client sock (fun c ->
                  submit_ok c (Serve.job_spec ~depth:10 "echo-twist"))
            in
            Alcotest.(check string) "bug via service" "bug"
              o.Report.Journal.ob_verdict)
      in
      Alcotest.(check int) "accepted" 1 summary.Serve.sm_accepted;
      Alcotest.(check int) "completed — drain lost nothing" 1
        summary.Serve.sm_completed;
      (* Store flushed: a fresh open (the "restart") sees the entry. *)
      let stats = Store.stats (Store.open_store dir) in
      Alcotest.(check int) "store holds the solved entry" 1
        stats.Store.n_entries;
      (* Journal flushed as one well-formed run. *)
      let j = Report.Journal.load journal_path in
      Alcotest.(check int) "one run" 1 (List.length j.Report.Journal.runs);
      Alcotest.(check int) "one obligation" 1
        (List.length j.Report.Journal.obligations);
      (match j.Report.Journal.meta with
       | [ m ] ->
         Alcotest.(check string) "serve meta" "serve"
           m.Report.Journal.command
       | _ -> Alcotest.fail "expected exactly one meta line"))

(* ---- backpressure: typed busy at capacity, recovery after release ---- *)

let test_backpressure_busy executor () =
  let (), summary =
    with_server ~capacity:1 executor "busy" (fun _ sock ->
        with_client sock (fun c1 ->
            with_client sock (fun c2 ->
                (* Occupy the single slot with a job that will run for a
                   couple of seconds before its deadline cancels it. *)
                Serve.Client.send c1
                  (Serve.json_of_job_spec
                     (Serve.job_spec ~depth:24 ~timeout_s:2.0 "aes-deep"));
                let accepted = Serve.Client.recv c1 in
                Alcotest.(check string) "slot taken" "accepted"
                  (Report.Json.str_or ""
                     (Report.Json.member "frame" accepted));
                (* Second client is shed with a typed busy reply. *)
                (match
                   Serve.Client.submit c2 (Serve.job_spec ~depth:8 "echo")
                 with
                 | Serve.Client.Busy (active, capacity) ->
                   Alcotest.(check int) "capacity reported" 1 capacity;
                   Alcotest.(check int) "slot accounted" 1 active
                 | _ -> Alcotest.fail "expected busy at capacity");
                (* The occupying job ends in a timeout frame... *)
                let terminal = Serve.Client.recv c1 in
                Alcotest.(check string) "occupier timed out" "timeout"
                  (Report.Json.str_or ""
                     (Report.Json.member "frame" terminal));
                (* ...which frees the slot for the shed client. *)
                let o = submit_ok c2 (Serve.job_spec ~depth:8 "echo") in
                Alcotest.(check string) "recovered" "clean"
                  o.Report.Journal.ob_verdict)))
  in
  Alcotest.(check int) "one rejected" 1 summary.Serve.sm_rejected;
  Alcotest.(check int) "two accepted" 2 summary.Serve.sm_accepted

(* ---- the spec cache ---- *)

(* Each fleet worker keeps its own spec cache, so a repeat skips the
   build only on a worker that answered the spec before. The cases that
   count builds therefore run the fleet with a single worker: every job
   then meets the one cache, as every in-process job does. *)
let cache_server executor label f =
  with_server ~fleet_workers:1 executor label f

let record_json o =
  Report.Json.to_string (Report.Journal.json_of_obligation o)

let builds_during f =
  let b0 = Atomic.get builds in
  let v = f () in
  (v, Atomic.get builds - b0)

let test_repeat_skips_build executor () =
  let spec = Serve.job_spec ~depth:10 ~certify:true "echo-twist" in
  let (), summary =
    cache_server executor "repeat" (fun _ sock ->
        with_client sock (fun c ->
            let first, b1 = builds_during (fun () -> submit_ok c spec) in
            let again, b2 = builds_during (fun () -> submit_ok c spec) in
            Alcotest.(check int) "the first answer builds once" 1 b1;
            Alcotest.(check int) "the repeat builds nothing" 0 b2;
            Alcotest.(check bool) "first answer solved" false
              first.Report.Journal.ob_cached;
            Alcotest.(check bool) "repeat answered cached" true
              again.Report.Journal.ob_cached;
            Alcotest.(check string) "same record but for [cached]"
              (record_json first)
              (record_json { again with Report.Journal.ob_cached = false })))
  in
  Alcotest.(check int) "both completed" 2 summary.Serve.sm_completed

let test_fresh_spec_solves_once executor () =
  let spec = Serve.job_spec ~depth:12 "echo-twist" in
  let served, summary =
    cache_server executor "single_flight" (fun _ sock ->
        builds_during (fun () -> submit_all sock [ spec; spec ]))
  in
  let records, b = served in
  Alcotest.(check int) "exactly one build" 1 b;
  Alcotest.(check int) "exactly one uncached record" 1
    (List.length
       (List.filter (fun o -> not o.Report.Journal.ob_cached) records));
  (match records with
   | [ a; b ] ->
     Alcotest.(check string) "both answers agree"
       (record_json { a with Report.Journal.ob_cached = false })
       (record_json { b with Report.Journal.ob_cached = false })
   | _ -> Alcotest.fail "expected two answers");
  Alcotest.(check int) "both completed" 2 summary.Serve.sm_completed

let test_timeout_never_cached executor () =
  let spec = Serve.job_spec ~depth:24 ~timeout_s:0.3 "aes-deep" in
  let timed_out c =
    match Serve.Client.submit c spec with
    | Serve.Client.Timed_out (_, wall) ->
      Alcotest.(check bool) "waited out its own deadline" true (wall >= 0.3)
    | _ -> Alcotest.fail "expected a typed timeout frame"
  in
  let (), summary =
    with_server executor "timeout_uncached" (fun _ sock ->
        with_client sock (fun c ->
            timed_out c;
            let (), b = builds_during (fun () -> timed_out c) in
            Alcotest.(check int) "the resubmission built again" 1 b))
  in
  Alcotest.(check int) "two timeouts" 2 summary.Serve.sm_timeouts;
  Alcotest.(check int) "nothing completed" 0 summary.Serve.sm_completed

let test_spec_key executor () =
  let (), _summary =
    cache_server executor "spec_key" (fun _ sock ->
        with_client sock (fun c ->
            let submit check depth =
              builds_during (fun () ->
                  submit_ok c (Serve.job_spec ~check ~depth "echo"))
            in
            let upper, b1 = submit "FC" 8 in
            let lower, b2 = submit "fc" 8 in
            let deeper, b3 = submit "fc" 10 in
            Alcotest.(check (list int)) "builds per submit" [ 1; 0; 1 ]
              [ b1; b2; b3 ];
            Alcotest.(check (list bool)) "cached per submit"
              [ false; true; false ]
              (List.map
                 (fun o -> o.Report.Journal.ob_cached)
                 [ upper; lower; deeper ]);
            Alcotest.(check int) "the deeper bound is its own answer" 10
              deeper.Report.Journal.ob_depth))
  in
  ()

(* A job waiting on another's in-flight solve of its spec still leaves on
   its own deadline, long before the leader's; neither timeout is cached,
   so a resubmission builds again. *)
let test_waiter_own_deadline executor () =
  let spec timeout_s = Serve.job_spec ~depth:24 ~timeout_s "aes-deep" in
  let (), summary =
    with_server executor "waiter" (fun _ sock ->
        let submit timeout_s =
          let r =
            try
              with_client sock (fun c ->
                  Serve.Client.submit c (spec timeout_s))
            with e -> Serve.Client.Refused (Printexc.to_string e)
          in
          (r, Unix.gettimeofday ())
        in
        let leader = ref (Serve.Client.Refused "no reply", 0.) in
        let th = Thread.create (fun () -> leader := submit 2.5) () in
        (* Let the leader's solve get under way before the waiter joins. *)
        Thread.delay 0.2;
        let waiter, waiter_done = submit 0.3 in
        Thread.join th;
        let leader, leader_done = !leader in
        (match waiter with
         | Serve.Client.Timed_out (_, wall) ->
           Alcotest.(check bool)
             (Printf.sprintf "the waiter left on its own deadline (%.2fs)" wall)
             true
             (wall >= 0.3 && wall < 1.5)
         | _ -> Alcotest.fail "the waiter expected a typed timeout frame");
        (match leader with
         | Serve.Client.Timed_out (_, wall) ->
           Alcotest.(check bool) "the leader ran to its own deadline" true
             (wall >= 2.5)
         | _ -> Alcotest.fail "the leader expected a typed timeout frame");
        Alcotest.(check bool) "the waiter answered well before the leader"
          true
          (leader_done -. waiter_done > 1.0);
        let (), b =
          builds_during (fun () ->
              match fst (submit 0.3) with
              | Serve.Client.Timed_out _ -> ()
              | _ -> Alcotest.fail "the resubmission expected a timeout")
        in
        Alcotest.(check int) "no timeout was cached: it built again" 1 b)
  in
  Alcotest.(check int) "three timeouts" 3 summary.Serve.sm_timeouts;
  Alcotest.(check int) "nothing completed" 0 summary.Serve.sm_completed

let cases executor =
  [
    Alcotest.test_case "submit/complete parity vs direct solve" `Quick
      (test_submit_parity executor);
    Alcotest.test_case "concurrent clients all hit a direct-filled store"
      `Quick (test_concurrent_store_hits executor);
    Alcotest.test_case "job timeout is typed and pool survives" `Quick
      (test_timeout_keeps_pool_usable executor);
    Alcotest.test_case "malformed frame closes one connection only" `Quick
      (test_malformed_frame_isolation executor);
    Alcotest.test_case "client disconnect mid-job cannot kill the daemon"
      `Quick (test_client_disconnect_mid_job executor);
    Alcotest.test_case "SIGTERM drain flushes store and journal" `Quick
      (test_sigterm_drain_flushes executor);
    Alcotest.test_case "backpressure: typed busy at capacity" `Quick
      (test_backpressure_busy executor);
    Alcotest.test_case "repeated spec answered without a build" `Quick
      (test_repeat_skips_build executor);
    Alcotest.test_case "one fresh spec from two clients solves once" `Quick
      (test_fresh_spec_solves_once executor);
    Alcotest.test_case "a timeout is never cached" `Quick
      (test_timeout_never_cached executor);
    Alcotest.test_case "spec key folds check case, keeps depth" `Quick
      (test_spec_key executor);
    Alcotest.test_case "a waiter leaves on its own deadline" `Quick
      (test_waiter_own_deadline executor);
  ]

let suite = ("serve", cases In_process)
let fleet_suite = ("fleet", cases Fleet)
