(* Multi-process suites: scenarios that need real [Unix.fork] children —
   SIGKILLing a shard worker mid-solve, a worker that leases and falls
   silent, the store's cross-process advisory lock, gc racing a
   concurrent writer, and two processes hammering one store key.

   This is a separate test executable from test_aqed because OCaml
   forbids [Unix.fork] once any domain has been spawned in the process,
   and the main runner's suites create domain pools. Discipline here:
   the PARENT process never creates a domain — solves happen in forked
   children (each child may build its own pool), and the server under
   test runs the fleet executor, which is threads-only. Children communicate verdicts through
   exit codes and never print (a fork'd copy of a parent thread's held
   channel lock would deadlock them). *)

module Ir = Rtl.Ir

let echo ?(twist = false) () =
  let c = Ir.create "echo_proc" in
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
    (Printf.sprintf "aqed_proc_%d_%s" (Unix.getpid ()) label)

let with_store label f =
  let dir = tmp_path ("store_" ^ label) in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      f (Store.open_store dir))

let counter name = Telemetry.Counter.get (Telemetry.Counter.make name)

let fork_child f =
  match Unix.fork () with
  | 0 ->
    let code = try f () with _ -> 97 in
    Unix._exit code
  | pid -> pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + s

(* ==== store: cross-process advisory lock and contention ==== *)

(* A synthetic entry, cheap enough to hammer in a loop. *)
let zsolver =
  {
    Sat.Solver.decisions = 0; propagations = 0; conflicts = 0;
    restarts = 0; learned = 0; max_var = 0; clauses = 0; lbd_core = 0;
    lbd_mid = 0; lbd_local = 0; reductions = 0; vivified = 0;
  }

let synth_entry ~key =
  {
    Store.e_key = key;
    e_fingerprint =
      Store.fingerprint
        ~config:
          (Store.config_fingerprint ~reduce:true ~sweep:false
             ~certify:false ~solver_label:"test")
        ~check:"FC";
    e_check = "FC";
    e_verdict = Store.Clean 5;
    e_cert = Store.Cert_rup 5;
    e_frames = 5;
    e_aig_nodes = 7;
    e_aig_nodes_raw = 7;
    e_winner = "test";
    e_wall = 0.01;
    e_reduce = None;
    e_solver = zsolver;
    e_created_s = Unix.gettimeofday ();
  }

let test_locked_blocks_cross_process_writer () =
  with_store "flock" (fun store ->
      let dir = Store.dir store in
      (* While this process holds the advisory lock, a child's publish
         (tmp write, then locked rename) must block at the rename: the
         entry appears only after the lock is released. *)
      let pid =
        Store.locked store (fun () ->
            let pid =
              fork_child (fun () ->
                  Store.store (Store.open_store dir) (synth_entry ~key:"k");
                  0)
            in
            Thread.delay 0.6;
            Alcotest.(check int) "no entry published while lock held" 0
              (Store.stats store).Store.n_entries;
            pid)
      in
      Alcotest.(check int) "writer child exited cleanly" 0 (wait_exit pid);
      Alcotest.(check int) "entry published after release" 1
        (Store.stats store).Store.n_entries;
      match Store.scan store with
      | [ { Store.s_entry = Ok e; _ } ] ->
        Alcotest.(check string) "published entry parses" "k" e.Store.e_key
      | _ -> Alcotest.fail "expected exactly one well-formed entry")

let test_gc_vs_writer_two_processes () =
  with_store "gc_race" (fun store ->
      let dir = Store.dir store in
      (* The regression the store lock exists for: rename preserves the
         temp file's mtime, which can predate a concurrent gc pass's
         directory scan — an unlocked gc could reap a just-published
         entry as "oldest". A child publishes in a tight loop while the
         parent runs max_entries:1 collections against it; every scan in
         between must parse, and the final pass must keep exactly one
         well-formed writer entry. *)
      let pid =
        fork_child (fun () ->
            let s = Store.open_store dir in
            for i = 1 to 40 do
              let key = if i land 1 = 0 then "k-even" else "k-odd" in
              Store.store s (synth_entry ~key)
            done;
            0)
      in
      for _ = 1 to 40 do
        ignore (Store.gc ~max_entries:1 store);
        List.iter
          (fun (i : Store.scan_item) ->
            match i.Store.s_entry with
            | Ok _ -> ()
            | Error e ->
              Alcotest.fail ("gc raced the writer into a torn entry: " ^ e))
          (Store.scan store);
        Thread.delay 0.005
      done;
      Alcotest.(check int) "writer child exited cleanly" 0 (wait_exit pid);
      let r = Store.gc ~max_entries:1 store in
      Alcotest.(check int) "final pass keeps exactly one" 1 r.Store.gc_kept;
      match Store.scan store with
      | [ { Store.s_entry = Ok e; _ } ] ->
        Alcotest.(check bool) "survivor is a writer entry" true
          (e.Store.e_key = "k-even" || e.Store.e_key = "k-odd")
      | items ->
        Alcotest.failf "expected exactly 1 entry, got %d" (List.length items))

let test_forked_processes_same_key_one_write () =
  with_store "contend" (fun store ->
      let dir = Store.dir store in
      (* Two real processes hammer the same obligation (same store key).
         The first to solve writes once; every later solve in either
         process must be a revalidated hit — never a duplicate write.
         Children report their counter deltas through the exit code
         (Telemetry counters are per-process, so each child observes
         exactly its own traffic). *)
      let child ~delay () =
        Unix.sleepf delay;
        let s = Store.open_store dir in
        let h0 = counter "store.hits" in
        let m0 = counter "store.misses" in
        let w0 = counter "store.writes" in
        let clean = ref true in
        for _ = 1 to 3 do
          let r = Aqed.Check.run_obligation ~store:s (ob_fc ~depth:6 ()) in
          match r.Aqed.Check.verdict with
          | Aqed.Check.No_bug_up_to 6 -> ()
          | _ -> clean := false
        done;
        let hits = counter "store.hits" - h0 in
        let misses = counter "store.misses" - m0 in
        let writes = counter "store.writes" - w0 in
        if not !clean then 3
        else if writes <> misses then 4 (* every miss writes exactly once *)
        else if hits + misses <> 3 then 5
        else if writes > 1 then 6
        else if hits < 2 then 7 (* at worst the first solve missed *)
        else 0
      in
      let a = fork_child (child ~delay:0.) in
      (* The second process starts after the first has certainly
         published: all three of its solves should revalidate. *)
      let b = fork_child (child ~delay:1.0) in
      Alcotest.(check int) "first process: one write then hits" 0
        (wait_exit a);
      Alcotest.(check int) "second process: hits only" 0 (wait_exit b);
      Alcotest.(check int) "one entry for the shared key" 1
        (Store.stats store).Store.n_entries;
      List.iter
        (fun (i : Store.scan_item) ->
          match i.Store.s_entry with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("contended entry torn: " ^ e))
        (Store.scan store))

(* ==== shard: worker processes crashing and going silent ==== *)

(* The healthy resolver. *)
let resolve (spec : Serve.job_spec) =
  let depth = spec.Serve.sj_depth in
  match spec.Serve.sj_design with
  | "echo" -> Ok ("echo", ob_fc ~depth ())
  | d -> Error (Printf.sprintf "unknown design %s" d)

(* A resolver whose *builder* stalls: the obligation is forced inside
   run_batch, so the worker is genuinely mid-solve — lease held,
   heartbeats flowing — when the test kills its process. *)
let resolve_stall_in_solve spec =
  Result.map
    (fun (d, _) ->
      ( d,
        Aqed.Check.prepare_fc ~max_depth:6 ~cnt_width:8 (fun () ->
            Unix.sleepf 30.;
            echo ()) ))
    (resolve spec)

(* A resolver that hangs before the solve even starts: the worker never
   makes the lease current for its heartbeat ticker, so the server sees
   a lease with total silence — the heartbeat-grace re-queue path. *)
let resolve_stall_silent spec =
  Unix.sleepf 30.;
  resolve spec

(* A threads-only server over a fresh fleet (no domain in this
   process): run [f sock fleet], drain, and return [f]'s value, the
   drain summary and the fleet's counters. *)
let with_coord ?heartbeat_grace_s label f =
  let sock = tmp_path (label ^ ".sock") in
  let fleet = Shard.Fleet.create ?heartbeat_grace_s () in
  let srv =
    Serve.start ~executor:(Shard.Fleet.executor fleet)
      (Serve.config ~capacity:8 ~job_timeout_s:120. ~idle_timeout_s:10.
         ~resolve sock)
  in
  let finish () =
    Serve.stop srv;
    let summary = Serve.wait srv in
    (summary, Shard.Fleet.stats fleet)
  in
  match f sock fleet with
  | v ->
    let summary, stats = finish () in
    (v, summary, stats)
  | exception e ->
    ignore (finish ());
    raise e

(* A worker as a real child process. The child runs the full lease loop
   (building its own pool — domains in the child are fine) and exits on
   drain; saboteurs are killed by the test instead. *)
let fork_worker ~name ~resolve sock =
  fork_child (fun () ->
      ignore (Shard.Worker.run (Shard.Worker.config ~name ~resolve sock));
      0)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let rec wait_for ?(timeout = 15.) ?(what = "condition") pred =
  if pred () then ()
  else if timeout <= 0. then Alcotest.failf "timed out waiting for %s" what
  else begin
    Thread.delay 0.05;
    wait_for ~timeout:(timeout -. 0.05) ~what pred
  end

let with_client sock f =
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let check_balance (s : Serve.summary) =
  Alcotest.(check int) "accepted = completed + timeouts + errors"
    s.Serve.sm_accepted
    (s.Serve.sm_completed + s.Serve.sm_timeouts + s.Serve.sm_errors)

(* ---- the tentpole scenario: SIGKILL a worker mid-solve ---- *)

let test_worker_crash_requeues_and_completes () =
  let rescuer, summary, stats =
    with_coord "crash" (fun sock fleet ->
        (* The saboteur leases first: its builder stalls inside
           run_batch, heartbeats flowing, so the lease is held when we
           kill it. *)
        let victim =
          fork_worker ~name:"victim" ~resolve:resolve_stall_in_solve sock
        in
        Fun.protect ~finally:(fun () -> reap victim) @@ fun () ->
        with_client sock (fun c ->
            Serve.Client.send c
              (Serve.json_of_job_spec (Serve.job_spec ~depth:6 "echo"));
            let accepted = Serve.Client.recv c in
            Alcotest.(check string) "admitted" "accepted"
              (Report.Json.str_or "" (Report.Json.member "frame" accepted));
            wait_for ~what:"the victim to hold the lease" (fun () ->
                List.exists
                  (fun (l : Shard.Fleet.lease_view) ->
                    l.Shard.Fleet.lv_worker = "victim")
                  (Shard.Fleet.leases fleet));
            Unix.kill victim Sys.sigkill;
            (* A healthy worker joins and steals the re-queued job. *)
            let rescuer = fork_worker ~name:"rescuer" ~resolve sock in
            let terminal = Serve.Client.recv c in
            Alcotest.(check string) "crashed job still completed" "done"
              (Report.Json.str_or "" (Report.Json.member "frame" terminal));
            rescuer))
  in
  reap rescuer;
  Alcotest.(check int) "zero lost jobs" 1 summary.Serve.sm_completed;
  Alcotest.(check int) "one re-queue" 1 stats.Shard.Fleet.st_requeued;
  Alcotest.(check int) "one steal" 1 stats.Shard.Fleet.st_steals;
  Alcotest.(check bool) "the death was seen" true
    (stats.Shard.Fleet.st_worker_deaths >= 1);
  Alcotest.(check int) "two leases for one job" 2
    stats.Shard.Fleet.st_leases;
  check_balance summary

(* ---- heartbeat silence: a wedged (not dead) worker loses its lease ---- *)

let test_silent_worker_loses_lease () =
  let rescuer, summary, stats =
    with_coord ~heartbeat_grace_s:0.8 "silent" (fun sock _ ->
        (* This saboteur leases and then hangs before its ticker has a
           lease to beat for: the process is alive, the connection open,
           but the server hears nothing. *)
        let mute =
          fork_worker ~name:"mute" ~resolve:resolve_stall_silent sock
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill mute Sys.sigkill with Unix.Unix_error _ -> ());
            reap mute)
        @@ fun () ->
        with_client sock (fun c ->
            Serve.Client.send c
              (Serve.json_of_job_spec (Serve.job_spec ~depth:6 "echo"));
            ignore (Serve.Client.recv c) (* accepted *);
            (* Give the mute worker time to take the lease, then let the
               grace expire and a healthy worker finish the job. *)
            Thread.delay 0.3;
            let rescuer = fork_worker ~name:"rescuer2" ~resolve sock in
            let terminal = Serve.Client.recv c in
            Alcotest.(check string) "job survived the silent worker" "done"
              (Report.Json.str_or "" (Report.Json.member "frame" terminal));
            rescuer))
  in
  reap rescuer;
  Alcotest.(check int) "completed exactly once" 1 summary.Serve.sm_completed;
  Alcotest.(check bool) "silence re-queued the lease" true
    (stats.Shard.Fleet.st_requeued >= 1);
  Alcotest.(check bool) "silent worker presumed dead" true
    (stats.Shard.Fleet.st_worker_deaths >= 1);
  check_balance summary

let () =
  Alcotest.run "aqed-proc"
    [
      ( "store-proc",
        [
          Alcotest.test_case "advisory lock blocks a cross-process publish"
            `Quick test_locked_blocks_cross_process_writer;
          Alcotest.test_case "gc never reaps a concurrent writer's entry"
            `Quick test_gc_vs_writer_two_processes;
          Alcotest.test_case "two processes, one key: one write then hits"
            `Quick test_forked_processes_same_key_one_write;
        ] );
      ( "shard-proc",
        [
          Alcotest.test_case "SIGKILLed worker: job re-queued, zero lost"
            `Quick test_worker_crash_requeues_and_completes;
          Alcotest.test_case "silent worker loses its lease after the grace"
            `Quick test_silent_worker_loses_lease;
        ] );
    ]
