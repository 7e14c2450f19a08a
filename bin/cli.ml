(* Command-line front end for the A-QED library. Lives in a library (Cli)
   so the test suite can drive the exact command surface through
   [run ~argv] and pin the exit-code contract; bin/aqed_cli.ml is the
   one-line executable wrapper.

     aqed_cli list                         enumerate designs and bugs
     aqed_cli check -d fifo -b fifo_clock_gate -c fc [-k 14] [-j 4]
     aqed_cli verify -d fifo [-b bug] [-j 4] [-p 2]   full flow, domain pool
     aqed_cli mutate -d fifo [--ops ...] [--seed N] [-j 4]   fault campaign
     aqed_cli sim -d aes -n 5              quick transaction-level run
     aqed_cli sat file.cnf                 solve a DIMACS instance
     aqed_cli store {stats,gc,verify} DIR  verdict-store maintenance
     aqed_cli serve --socket P [-j N]      verification service daemon
     aqed_cli submit --socket P -d aes     queue one job on a daemon
     aqed_cli status --socket P            one daemon status line

   Incremental re-verification (check, verify and mutate): --store DIR
   consults a persistent content-addressed verdict store before solving
   and writes certified results back. Unchanged obligations answer from
   revalidated entries (counterexample replay / RUP acceptance); changed
   ones — whose structural key differs — are the only re-solves.

   -j N on `check` races N diversified solver configurations (portfolio
   BMC); on `verify` it sizes the worker pool the FC/RB/SAC obligations are
   fanned across (-p additionally races a portfolio inside each obligation).

   Observability (check and verify): --trace FILE writes a Chrome
   trace_event JSON of solver/BMC/pool/check spans (load in Perfetto),
   --progress streams rate-limited progress lines to stderr during long
   solves, --stats prints per-check solver statistics after each report
   and the metrics registry (store./cache. counters included) on stderr.

   Certification (check and verify): --certify cross-checks every verdict
   through an independent mechanism — counterexamples are replayed (and
   shrunk) on the cycle-accurate simulator, clean BMC frames are
   RUP-checked against the proof the solver streams. A certified run exits 0
   whatever the verdict (the exit code then reports certification, and the
   report line carries the certificate); a divergence between the solver
   and the checker prints both sides and exits 2. *)

module M = Accel.Memctrl

type design = {
  name : string;
  description : string;
  bugs : string list;
  build : ?bug:string -> unit -> Aqed.Iface.t;
  build_rb : ?bug:string -> unit -> Aqed.Iface.t;
  tau : int;
  spec : (Rtl.Ir.signal -> Rtl.Ir.signal) option;
  shared : (Aqed.Iface.t -> Rtl.Ir.signal) option;
  golden_one : int -> int;   (* per-transaction reference for sim *)
  sim_extra : (string * int) list;
}

let memctrl_design cfg =
  let bugs =
    List.filter (fun b -> M.bug_config b = cfg) M.all_bugs
    |> List.map M.bug_name
  in
  let parse_bug = function
    | None -> None
    | Some name -> (
        match List.find_opt (fun b -> M.bug_name b = name) M.all_bugs with
        | Some b when M.bug_config b = cfg -> Some b
        | Some _ | None ->
          failwith (Printf.sprintf "no bug %s in configuration %s" name
                      (M.config_name cfg)))
  in
  {
    name = "memctrl-" ^ M.config_name cfg;
    description =
      Printf.sprintf "memory-controller unit, %s configuration"
        (M.config_name cfg);
    bugs;
    build = (fun ?bug () -> M.build ?bug:(parse_bug bug) cfg ());
    build_rb =
      (fun ?bug () -> M.build ?bug:(parse_bug bug) ~assume_enabled:true cfg ());
    tau = M.tau cfg;
    spec = Some (M.spec_rtl cfg);
    shared = None;
    golden_one =
      (fun d ->
        match M.golden cfg [ d ] with [ o ] -> o | _ -> 0);
    sim_extra = [ ("clock_enable", 1) ];
  }

let aes_design =
  let parse_bug = function
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some v when String.length s = 2 && s.[0] = 'v' && v >= 1 && v <= 4 ->
          Some v
        | Some _ | None -> failwith "AES bugs are v1, v2, v3, v4")
  in
  {
    name = "aes";
    description = "abstracted AES encryption (HLS flow, shared key)";
    bugs = [ "v1"; "v2"; "v3"; "v4" ];
    build = (fun ?bug () -> Accel.Aes.build ?version:(parse_bug bug) ());
    build_rb = (fun ?bug () -> Accel.Aes.build ?version:(parse_bug bug) ());
    tau = Accel.Aes.tau;
    spec = None;
    shared = Some Accel.Aes.shared_key;
    golden_one = (fun d -> Accel.Aes.reference ~block:d ~key:0);
    sim_extra = [ ("key", 0) ];
  }

let simple_design name description ~build ~tau ~golden_one =
  let parse_bug = function
    | None -> false
    | Some "bug" -> true
    | Some other -> failwith (Printf.sprintf "unknown bug %s (use: bug)" other)
  in
  {
    name;
    description;
    bugs = [ "bug" ];
    build = (fun ?bug () -> build ~bug:(parse_bug bug) ());
    build_rb = (fun ?bug () -> build ~bug:(parse_bug bug) ());
    tau;
    spec = None;
    shared = None;
    golden_one;
    sim_extra = [];
  }

let designs =
  [
    memctrl_design M.Fifo_mode;
    memctrl_design M.Double_buffer;
    memctrl_design M.Line_buffer;
    aes_design;
    simple_design "gsm" "abstracted GSM LPC kernel (HLS flow)"
      ~build:(fun ~bug () -> Accel.Gsm.build ~bug ())
      ~tau:Accel.Gsm.tau ~golden_one:Accel.Gsm.reference;
    simple_design "dataflow" "credit-based dataflow pipeline"
      ~build:(fun ~bug () -> Accel.Dataflow.build ~bug ())
      ~tau:Accel.Dataflow.tau ~golden_one:Accel.Dataflow.reference;
    simple_design "optflow" "optical-flow window gradient"
      ~build:(fun ~bug () -> Accel.Optflow.build ~bug ())
      ~tau:Accel.Optflow.tau ~golden_one:Accel.Optflow.reference;
    simple_design "simd" "2-lane batch accelerator (cross-lane bug)"
      ~build:(fun ~bug () -> Accel.Simd.build ~bug ())
      ~tau:Accel.Simd.tau ~golden_one:Accel.Simd.reference_batch;
    simple_design "fig2" "the paper's Fig. 2 motivating example"
      ~build:(fun ~bug () -> Accel.Fig2.build ~bug ())
      ~tau:8 ~golden_one:Accel.Fig2.f;
    simple_design "dualpath" "self-checking dual-datapath accelerator"
      ~build:(fun ~bug () -> Accel.Dualpath.build ~bug ())
      ~tau:Accel.Dualpath.tau ~golden_one:Accel.Dualpath.reference;
  ]

let find_design name =
  match List.find_opt (fun d -> d.name = name) designs with
  | Some d -> d
  | None ->
    failwith
      (Printf.sprintf "unknown design %s (see `aqed_cli list`)" name)

(* ---- commands ---- *)

let cmd_list () =
  print_endline "designs:";
  List.iter
    (fun d ->
      Printf.printf "  %-22s %s\n" d.name d.description;
      Printf.printf "  %-22s bugs: %s\n" "" (String.concat ", " d.bugs))
    designs;
  0

(* The argv the current [run] was invoked with, recorded so journal meta
   lines can carry the exact flags without threading argv through every
   cmdliner term. *)
let current_argv = ref [||]

let current_flags () =
  match Array.to_list !current_argv with
  | _prog :: _cmd :: rest -> rest
  | _ -> []

let git_rev () =
  match
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev -> rev
    | _ -> ""
  with
  | rev -> rev
  | exception _ -> ""

let journal_meta ~command ~design ~jobs ~seed ~fingerprint =
  {
    Report.Journal.created_s = Unix.gettimeofday ();
    command;
    design;
    git_rev = git_rev ();
    jobs;
    seed;
    flags = current_flags ();
    fingerprint;
  }

(* Telemetry wiring shared by check, verify and mutate: --trace enables
   span recording and exports the buffers on the way out, --progress
   installs a stderr reporter sampled from the CDCL loop and between BMC
   frames, --journal turns on the solver time-series sampler feeding the
   run ledger, and --stats prints the global metrics snapshot (counters
   plus histogram percentiles). The finish step runs on the failure path
   too, so a crashed or nonzero run still flushes its trace and metrics —
   exactly the runs worth diagnosing. *)
let with_telemetry ?(stats = false) ?(journal = None) ~trace ~progress f =
  if trace <> None then Telemetry.enable ();
  if journal <> None then Telemetry.Series.configure ();
  if progress then
    Telemetry.Progress.configure ~interval:0.5 (fun line ->
        Printf.eprintf "[aqed] %s\n%!" line);
  let finish () =
    if progress then Telemetry.Progress.disable ();
    Telemetry.Series.disable ();
    if stats then begin
      Format.eprintf "metrics:@.";
      (* store./cache. counters are the cache-effectiveness report; print
         them even at zero — on an all-hit run "store.misses 0" is the
         headline, and suppressing zero-delta counters hid it. *)
      let prefixed p name =
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p
      in
      let always name = prefixed "store." name || prefixed "cache." name in
      List.iter
        (fun (name, v) ->
          match v with
          | Telemetry.Counter n | Telemetry.Gauge n ->
            if n <> 0 || always name then Format.eprintf "  %-28s %d@." name n
          | Telemetry.Histogram h ->
            if h.Telemetry.count > 0 then
              Format.eprintf "  %-28s %a@." name
                Telemetry.pp_histogram_snapshot h)
        (Telemetry.metrics ())
    end;
    match trace with
    | None -> ()
    | Some path ->
      Telemetry.disable ();
      Telemetry.export_file path;
      Printf.eprintf
        "trace: %d events written to %s (load in Perfetto or chrome://tracing)\n%!"
        (Telemetry.nb_events ()) path
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Solver-side speed knobs (--restarts, --no-inprocess). Every
   configuration returns the same verdict at the same depth, so these only
   move wall time. *)
let solver_config restarts no_inprocess =
  { Bmc.Engine.default_config with
    restarts; inprocess = not no_inprocess }

(* The design identity journals join on: the clean design and each injected
   bug are distinct obligations. *)
let design_label d bug =
  match bug with None -> d.name | Some b -> d.name ^ "+" ^ b

(* The cache-relevant config fingerprint recorded in every journal meta
   line (store or no store), so [report --compare] can refuse to compare
   wall times across configurations. Store-mediated solves force
   certification, hence the [certify || store] term. *)
let config_fp ~reduce ~sweep ~certify ~solver ~store =
  Store.config_fingerprint ~reduce ~sweep
    ~certify:(certify || store <> None)
    ~solver_label:(Bmc.Engine.config_label solver)

(* One deterministic line of store traffic after a --store run. The
   counters are process-global and a CLI process runs one command, so they
   are exactly this run's traffic. *)
let store_summary () =
  let get name = Telemetry.Counter.get (Telemetry.Counter.make name) in
  Printf.printf
    "store: %d hits (%d revalidated, %d warm starts), %d misses, %d \
     invalid, %d writes\n"
    (get "store.hits") (get "store.revalidated") (get "store.warm_starts")
    (get "store.misses") (get "store.invalid") (get "store.writes")

let cmd_check design_name bug check depth jobs stats no_reduce sweep certify
    restarts no_inprocess journal store_dir =
  let d = find_design design_name in
  let portfolio = max 1 jobs in
  let reduce = not no_reduce in
  let solver = solver_config restarts no_inprocess in
  let store = Option.map Store.open_store store_dir in
  let report =
    match String.lowercase_ascii check with
    | "fc" ->
      Aqed.Check.functional_consistency ~max_depth:depth ?shared:d.shared
        ~portfolio ~certify ~solver ?store ~reduce ~sweep
        (fun () -> d.build ?bug ())
    | "rb" ->
      Aqed.Check.response_bound ~max_depth:depth ~tau:d.tau ~portfolio
        ~certify ~solver ?store ~reduce ~sweep
        (fun () -> d.build_rb ?bug ())
    | "sac" -> (
        match d.spec with
        | Some spec ->
          Aqed.Check.single_action ~max_depth:depth ~spec ~portfolio ~certify
            ~solver ?store ~reduce ~sweep
            (fun () -> d.build ?bug ())
        | None -> failwith "this design has no registered SAC spec")
    | other -> failwith (Printf.sprintf "unknown check %s (fc|rb|sac)" other)
  in
  Format.printf "%a@." Aqed.Check.pp_report report;
  if stats then begin
    Format.printf "  solver: %a@." Sat.Solver.pp_stats
      report.Aqed.Check.solver_stats;
    match report.Aqed.Check.reduce_stats with
    | None -> ()
    | Some s ->
      Format.printf
        "  reduce: nodes %d -> %d, latches %d -> %d (coi -%d, const %d), \
         sweep %d/%d merged (%d classes, %d limited)@."
        s.Logic.Reduce.nodes_before s.Logic.Reduce.nodes_after
        s.Logic.Reduce.latches_before s.Logic.Reduce.latches_after
        s.Logic.Reduce.coi_dropped_latches s.Logic.Reduce.const_latches
        s.Logic.Reduce.sweep_merged s.Logic.Reduce.sweep_queries
        s.Logic.Reduce.sweep_classes s.Logic.Reduce.sweep_limited
  end;
  (match report.Aqed.Check.verdict with
   | Aqed.Check.Bug t -> Format.printf "%a@." Bmc.Trace.pp t
   | Aqed.Check.No_bug_up_to _ -> ());
  if store <> None then store_summary ();
  (match journal with
   | None -> ()
   | Some path ->
     let design = design_label d bug in
     let fingerprint = config_fp ~reduce ~sweep ~certify ~solver ~store in
     Report.Journal.append path
       [ Report.Journal.Meta
           (journal_meta ~command:"check" ~design ~jobs ~seed:0 ~fingerprint);
         Report.Journal.Obligation (Report.Journal.of_report ~design report)
       ]);
  (* With --certify the exit code reports certification (a confirmed bug
     is a success; a divergence raised before reaching here and exits 2). *)
  if Aqed.Check.found_bug report && not certify then 1 else 0

(* The full flow as a batch: FC, RB and (when a spec is registered) SAC as
   independent obligations fanned across the domain pool. Unlike
   [Check.verify] this does not stop at the first bug — all checks run. *)
let cmd_verify design_name bug depth jobs portfolio stats no_reduce sweep
    certify restarts no_inprocess journal store_dir =
  let d = find_design design_name in
  let reduce = not no_reduce in
  let solver = solver_config restarts no_inprocess in
  let store = Option.map Store.open_store store_dir in
  let obligations =
    [
      Aqed.Check.prepare_fc ~max_depth:depth ?shared:d.shared ~reduce ~sweep
        (fun () -> d.build ?bug ());
      Aqed.Check.prepare_rb ~max_depth:depth ~tau:d.tau ~reduce ~sweep
        (fun () -> d.build_rb ?bug ());
    ]
    @ (match d.spec with
       | Some spec ->
         [ Aqed.Check.prepare_sac ~max_depth:depth ~spec ~reduce ~sweep
             (fun () -> d.build ?bug ()) ]
       | None -> [])
  in
  let batch =
    Aqed.Check.run_batch ~jobs:(max 1 jobs) ~portfolio:(max 1 portfolio)
      ~certify ~solver ?store obligations
  in
  Format.printf "%a@." Aqed.Check.pp_batch batch;
  if stats then begin
    List.iter
      (fun (e : Aqed.Check.batch_entry) ->
        Format.printf "  %-28s %a@." e.Aqed.Check.entry_name
          Sat.Solver.pp_stats
          e.Aqed.Check.entry_report.Aqed.Check.solver_stats)
      batch.Aqed.Check.entries
  end;
  let reports = Aqed.Check.batch_reports batch in
  List.iter
    (fun r ->
      match r.Aqed.Check.verdict with
      | Aqed.Check.Bug t -> Format.printf "%a@." Bmc.Trace.pp t
      | Aqed.Check.No_bug_up_to _ -> ())
    reports;
  if store <> None then store_summary ();
  (match journal with
   | None -> ()
   | Some path ->
     let design = design_label d bug in
     let fingerprint = config_fp ~reduce ~sweep ~certify ~solver ~store in
     Report.Journal.append path
       (Report.Journal.Meta
          (journal_meta ~command:"verify" ~design ~jobs ~seed:0 ~fingerprint)
        :: List.map
             (fun o -> Report.Journal.Obligation o)
             (Report.Journal.of_batch ~design batch)));
  if List.exists Aqed.Check.found_bug reports && not certify then 1 else 0

(* The mutation campaign runs on the clean design (no -b): injected faults
   replace the hand-written bug registry. Exit code 0 means every checked
   mutant was killed; 1 means survivors exist (verification gaps — their
   mutation sites are listed); 2 is an error. *)
let cmd_mutate design_name ops seed limit budget depth jobs journal store_dir
    =
  let d = find_design design_name in
  let store = Option.map Store.open_store store_dir in
  let ops =
    match ops with
    | [] -> Mutate.all_ops
    | names ->
      List.map
        (fun n ->
          match Mutate.op_of_name n with
          | Some op -> op
          | None ->
            failwith
              (Printf.sprintf "unknown mutation operator %s (use: %s)" n
                 (String.concat ", " (List.map Mutate.op_name Mutate.all_ops))))
        names
  in
  let target =
    {
      Mutate.target_name = d.name;
      build = (fun () -> d.build ());
      build_rb = (fun () -> d.build_rb ());
      tau = d.tau;
      spec = d.spec;
      shared = d.shared;
    }
  in
  let campaign =
    Mutate.run ~ops ~seed ~limit ~budget ~max_depth:depth ~jobs:(max 1 jobs)
      ?store target
  in
  Format.printf "%a@." Mutate.pp_campaign campaign;
  if store <> None then store_summary ();
  (match journal with
   | None -> ()
   | Some path ->
     let fingerprint =
       (* mutate runs the checks with their defaults: reduction on, sweep
          off, the default solver config. *)
       config_fp ~reduce:true ~sweep:false ~certify:false
         ~solver:Bmc.Engine.default_config ~store
     in
     Report.Journal.append path
       (Report.Journal.Meta
          (journal_meta ~command:"mutate" ~design:d.name ~jobs ~seed
             ~fingerprint)
        :: List.map
             (fun m -> Report.Journal.Mutant m)
             (Report.Journal.of_campaign ~design:d.name campaign)));
  if Mutate.survivors campaign = [] then 0 else 1

let cmd_sim design_name bug count =
  let d = find_design design_name in
  let iface = d.build ?bug () in
  let h = Aqed.Harness.create iface in
  List.iter
    (fun (n, v) ->
      try Rtl.Sim.set_input_int (Aqed.Harness.sim h) n v
      with Not_found -> ())
    d.sim_extra;
  let w = Rtl.Ir.width iface.Aqed.Iface.in_data in
  let rng = Testbench.Prng.create 99 in
  let inputs =
    List.init count (fun _ -> Testbench.Prng.below rng (1 lsl min w 20))
  in
  let outs =
    Aqed.Harness.run h (List.map (fun v -> Aqed.Harness.txn v) inputs)
  in
  let ok = ref true in
  List.iteri
    (fun i input ->
      let got = List.nth_opt outs i in
      let want = d.golden_one input in
      let mark =
        match got with
        | Some g when g = want -> "ok"
        | Some _ -> ok := false; "MISMATCH"
        | None -> ok := false; "MISSING"
      in
      Printf.printf "  in=%-6d out=%-8s golden=%-6d %s\n" input
        (match got with Some g -> string_of_int g | None -> "-")
        want mark)
    inputs;
  if !ok then 0 else 1

(* Render one or more journals into a self-contained HTML dashboard and/or
   a plain-text summary, or (--compare) diff two journals for regressions.
   Compare exit codes: 0 clean, 1 soft (time regression beyond the factor),
   2 hard (verdict/depth divergence or a mutant kill regression). *)
let cmd_report paths output summary compare time_factor min_seconds =
  if compare then begin
    match paths with
    | [ a; b ] ->
      let ja = Report.Journal.load a and jb = Report.Journal.load b in
      let r = Report.Compare.run ~time_factor ~min_seconds ja jb in
      Format.printf "%a" Report.Compare.pp r;
      Report.Compare.exit_code r
    | _ -> failwith "report --compare takes exactly two journal files"
  end
  else begin
    if paths = [] then failwith "report: no journal files given";
    let journals = List.map Report.Journal.load paths in
    (match output with
     | Some path ->
       let html = Report.Html.render journals in
       let oc = open_out path in
       output_string oc html;
       close_out oc;
       Printf.eprintf "report: wrote %s (%d bytes)\n%!" path
         (String.length html)
     | None -> ());
    if summary || output = None then
      print_string (Report.Html.summary journals);
    0
  end

(* Maintenance on a persistent verdict store directory. [store verify] is
   codec-level: every entry must parse and checksum; certificate
   revalidation (replay / RUP acceptance) needs the design and happens at
   lookup time in the checks. *)
let cmd_store_stats dir =
  let s = Store.stats (Store.open_store dir) in
  Printf.printf "store %s: %d entries, %d bytes\n" dir s.Store.n_entries
    s.Store.n_bytes;
  0

let cmd_store_gc dir max_bytes max_entries =
  if max_bytes = None && max_entries = None then
    failwith "store gc: give --max-bytes and/or --max-entries";
  let r = Store.gc ?max_bytes ?max_entries (Store.open_store dir) in
  Printf.printf "store %s: kept %d, removed %d, %d bytes, %d tmp orphans\n"
    dir r.Store.gc_kept r.Store.gc_removed r.Store.gc_bytes
    r.Store.gc_tmp_removed;
  0

let cmd_store_verify dir =
  let items = Store.scan (Store.open_store dir) in
  let bad = ref 0 in
  List.iter
    (fun (i : Store.scan_item) ->
      match i.Store.s_entry with
      | Ok e ->
        Printf.printf "  ok   %s %s %s\n" i.Store.s_file e.Store.e_check
          (match e.Store.e_verdict with
           | Store.Bug t -> Printf.sprintf "bug@%d" (Bmc.Trace.length t)
           | Store.Clean d -> Printf.sprintf "clean@%d" d)
      | Error reason ->
        incr bad;
        Printf.printf "  BAD  %s: %s\n" i.Store.s_file reason)
    items;
  Printf.printf "store %s: %d entries, %d invalid\n" dir (List.length items)
    !bad;
  if !bad = 0 then 0 else 1

(* ---- verification service (serve / submit / status) ---- *)

(* The daemon-side job resolver: maps a wire job spec onto the design
   registry, producing the journal design label and a prepared-able
   obligation. Every failure is an [Error] that becomes a typed error
   frame for the submitting client — never an exception in the daemon. *)
let resolve_job (spec : Serve.job_spec) =
  match
    let d = find_design spec.Serve.sj_design in
    let bug = spec.Serve.sj_bug in
    let depth = spec.Serve.sj_depth in
    let ob =
      match String.lowercase_ascii spec.Serve.sj_check with
      | "fc" ->
        Aqed.Check.prepare_fc ~max_depth:depth ?shared:d.shared
          (fun () -> d.build ?bug ())
      | "rb" ->
        Aqed.Check.prepare_rb ~max_depth:depth ~tau:d.tau
          (fun () -> d.build_rb ?bug ())
      | "sac" -> (
          match d.spec with
          | Some spec_fn ->
            Aqed.Check.prepare_sac ~max_depth:depth ~spec:spec_fn
              (fun () -> d.build ?bug ())
          | None -> failwith "this design has no registered SAC spec")
      | other ->
        failwith (Printf.sprintf "unknown check %s (fc|rb|sac)" other)
    in
    (* Validate the bug name now, on the daemon's request path, so a typo
       is a typed rejection instead of a solve-time failure on a worker. *)
    ignore (d.build ?bug ());
    (design_label d bug, ob)
  with
  | v -> Ok v
  | exception Failure m -> Error m

let serve_journal ~store ~jobs journal =
  Option.map
    (fun path ->
      let fingerprint =
        config_fp ~reduce:true ~sweep:false ~certify:false
          ~solver:Bmc.Engine.default_config ~store
      in
      ( path,
        journal_meta ~command:"serve" ~design:"serve" ~jobs ~seed:0
          ~fingerprint ))
    journal

(* The service front end over one of two executors: in-process (one
   shared pool of -j domains) or, with --workers N, a fleet of N
   auto-spawned worker processes (plus any standalone [aqed_cli worker]
   that joins later). The drain line is the same in both modes; the
   fleet adds one [shard:] line. *)
let cmd_serve socket store_dir jobs workers capacity timeout idle journal =
  let store = Option.map Store.open_store store_dir in
  let fleet = if workers > 0 then Some (Shard.Fleet.create ()) else None in
  let executor =
    match fleet with
    | Some f -> Shard.Fleet.executor f
    | None -> Serve.in_process ?store ~workers:(max 1 jobs) ()
  in
  let cfg =
    Serve.config ~capacity ~job_timeout_s:timeout ~idle_timeout_s:idle
      ?journal:(serve_journal ~store ~jobs journal) ~resolve:resolve_job socket
  in
  let srv = Serve.start ~executor cfg in
  let drain _ = Serve.stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  (* Fleet workers are full processes (fork+exec of this executable),
     each with its own domain pool, all sharing the socket and the
     on-disk store. Safe here: the fleet executor runs no Pool, so there
     are no live domains to fork across. *)
  let spawn i =
    let args =
      [ Sys.executable_name; "worker"; "--socket"; socket;
        "--name"; Printf.sprintf "w%d" (i + 1);
        "-j"; string_of_int (max 1 jobs) ]
      @ (match store_dir with Some d -> [ "--store"; d ] | None -> [])
    in
    Unix.create_process Sys.executable_name (Array.of_list args)
      Unix.stdin Unix.stdout Unix.stderr
  in
  let pids =
    match fleet with
    | None ->
      Printf.eprintf "serve: listening on %s (%d workers, capacity %d)\n%!"
        socket (max 1 jobs) cfg.Serve.capacity;
      []
    | Some _ ->
      let pids = List.init workers spawn in
      Printf.eprintf
        "serve: coordinating on %s (%d workers spawned, capacity %d)\n%!"
        socket workers cfg.Serve.capacity;
      pids
  in
  let s = Serve.wait srv in
  (* Workers see the drain frame (or the closed socket) and exit; reap
     them so no zombies outlive the drain line. *)
  List.iter
    (fun pid ->
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids;
  Printf.printf
    "serve: drained — %d accepted, %d completed, %d timeouts, %d rejected, \
     %d errors\n"
    s.Serve.sm_accepted s.Serve.sm_completed s.Serve.sm_timeouts
    s.Serve.sm_rejected s.Serve.sm_errors;
  Option.iter
    (fun f ->
      let st = Shard.Fleet.stats f in
      Printf.printf
        "serve: shard — %d leases, %d steals, %d requeued, %d worker deaths, \
         %d stale results\n"
        st.Shard.Fleet.st_leases st.Shard.Fleet.st_steals
        st.Shard.Fleet.st_requeued st.Shard.Fleet.st_worker_deaths
        st.Shard.Fleet.st_stale_results)
    fleet;
  0

(* aqed_cli worker: join an existing coordinator's fleet. Exit 0 on a
   clean drain; Failure (exit 2 via [wrap]) when the coordinator cannot
   be reached within the connect budget. *)
let cmd_worker socket store_dir jobs name =
  let store = Option.map Store.open_store store_dir in
  let cfg =
    Shard.Worker.config ?name ?store ~pool_workers:(max 1 jobs)
      ~resolve:resolve_job socket
  in
  let s = Shard.Worker.run cfg in
  Printf.printf
    "worker %s: %d leases — %d completed, %d timeouts, %d errors\n"
    cfg.Shard.Worker.name s.Shard.Worker.wk_leases
    s.Shard.Worker.wk_completed s.Shard.Worker.wk_timeouts
    s.Shard.Worker.wk_errors;
  0

let connect_client socket =
  try Serve.Client.connect socket
  with Unix.Unix_error (e, _, _) ->
    failwith
      (Printf.sprintf "cannot connect to %s: %s" socket
         (Unix.error_message e))

let cmd_submit socket design bug check depth certify timeout =
  let c = connect_client socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let spec =
    Serve.job_spec ?bug ~check ~depth ~certify ?timeout_s:timeout design
  in
  match Serve.Client.submit c spec with
  | Serve.Client.Completed (job, wall, o) ->
    Printf.printf "job %d: %s/%s %s %s@%d%s (%.3fs server wall)%s\n" job
      o.Report.Journal.ob_design o.Report.Journal.ob_name
      o.Report.Journal.ob_check o.Report.Journal.ob_verdict
      o.Report.Journal.ob_depth
      (if o.Report.Journal.ob_certificate = "none" then ""
       else " [" ^ o.Report.Journal.ob_certificate ^ "]")
      wall
      (if o.Report.Journal.ob_cached then " (cached)" else "");
    if o.Report.Journal.ob_verdict = "bug" && not certify then 1 else 0
  | Serve.Client.Timed_out (job, wall) ->
    Printf.eprintf "job %d: TIMEOUT after %.3fs\n" job wall;
    2
  | Serve.Client.Busy (active, capacity) ->
    Printf.eprintf "busy: %d/%d jobs in flight, retry later\n" active
      capacity;
    2
  | Serve.Client.Refused msg -> failwith msg

let cmd_status socket =
  let c = connect_client socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let j = Serve.Client.status c in
  let i k = Report.Json.int_or 0 (Report.Json.member k j) in
  Printf.printf
    "serve %s: %d active (%d queued) of %d capacity; %d accepted, %d \
     completed, %d timeouts, %d rejected, %d errors%s\n"
    socket (i "active") (i "queued") (i "capacity") (i "accepted")
    (i "completed") (i "timeouts") (i "rejected") (i "errors")
    (if Report.Json.bool_or false (Report.Json.member "draining" j) then
       " (draining)"
     else "");
  (* A shard coordinator's status frame is the daemon's plus fleet
     fields; their presence is how a client can tell the modes apart. *)
  (match Report.Json.member "workers" j with
   | Report.Json.Null -> ()
   | _ ->
     Printf.printf
       "shard: %d workers, %d leased; %d leases, %d steals, %d requeued, \
        %d worker deaths, %d stale results\n"
       (i "workers") (i "leased") (i "leases") (i "steals") (i "requeued")
       (i "worker_deaths") (i "stale_results"));
  0

let cmd_sat certify path =
  let cnf = Sat.Dimacs.parse_file path in
  let t0 = Unix.gettimeofday () in
  (* Standalone CNF cleanup before solving. It preserves every model, so the
     model below satisfies the input formula too; --certify checks it there,
     and re-solves the input formula for an UNSAT proof. *)
  let cleaned = Sat.Simplify.subsume cnf.Sat.Dimacs.clauses in
  let n_before = List.length cnf.Sat.Dimacs.clauses in
  let n_after = List.length cleaned in
  if n_after < n_before then
    Printf.printf "c subsume: %d -> %d clauses\n" n_before n_after;
  let cnf' = { cnf with Sat.Dimacs.clauses = cleaned } in
  let result, model = Sat.Dimacs.solve cnf' in
  let certified =
    match result with
    | Sat.Solver.Sat ->
      print_endline "s SATISFIABLE";
      let b = Buffer.create 256 in
      Buffer.add_string b "v ";
      for v = 1 to cnf.Sat.Dimacs.nvars do
        Buffer.add_string b (string_of_int (if model.(v) then v else -v));
        Buffer.add_char b ' '
      done;
      Buffer.add_char b '0';
      print_endline (Buffer.contents b);
      if not certify then true
      else begin
        let holds l = if l > 0 then model.(l) else not model.(-l) in
        match
          List.find_index
            (fun c -> not (List.exists holds c))
            cnf.Sat.Dimacs.clauses
        with
        | None ->
          print_endline "c model: VALID (checked against the input)";
          true
        | Some i ->
          Printf.printf "c model: INVALID (input clause %d unsatisfied)\n"
            (i + 1);
          false
      end
    | Sat.Solver.Unsat ->
      print_endline "s UNSATISFIABLE";
      if not certify then true
      else begin
        (* [Incomplete] also covers a re-solve of the input formula that
           comes back SAT, disagreeing with the answer above. *)
        match Sat.Rup.check_solver_run cnf with
        | Sat.Rup.Valid ->
          print_endline "c proof: VALID (RUP-checked)";
          true
        | Sat.Rup.Invalid i ->
          Printf.printf "c proof: INVALID at step %d\n" i;
          false
        | Sat.Rup.Incomplete ->
          print_endline "c proof: incomplete";
          false
      end
  in
  Printf.printf "c %.3fs\n" (Unix.gettimeofday () -. t0);
  if certified then 0 else 2

(* ---- cmdliner wiring ---- *)

open Cmdliner

let design_arg =
  Arg.(required & opt (some string) None & info [ "d"; "design" ] ~doc:"Design name (see list).")

let bug_arg =
  Arg.(value & opt (some string) None & info [ "b"; "bug" ] ~doc:"Bug to inject (see list).")

let depth_arg =
  Arg.(value & opt int 14 & info [ "k"; "depth" ] ~doc:"BMC bound (frames).")

let check_arg =
  Arg.(value & opt string "fc" & info [ "c"; "check" ] ~doc:"Check: fc, rb or sac.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ]
           ~doc:"Parallelism: portfolio width for check, pool workers for verify.")

let portfolio_arg =
  Arg.(value & opt int 1
       & info [ "p"; "portfolio" ]
           ~doc:"Race N diversified solver configurations inside each \
                 obligation (portfolio BMC), on top of the -j worker pool.")

let count_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of random transactions.")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print solver statistics after each report, and the \
                 metrics registry on stderr.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace_event JSON of solver, BMC, pool and \
                 check spans to $(docv) (load in Perfetto).")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Stream rate-limited progress lines (conflicts/sec, current \
                 BMC frame) to stderr during long solves.")

let no_reduce_arg =
  Arg.(value & flag
       & info [ "no-reduce" ]
           ~doc:"Skip the structural reduction pipeline (COI, constant \
                 propagation, SAT sweeping) and encode the raw bit-blasted \
                 relation. Verdicts and counterexample depths are identical \
                 either way; this is the A/B escape hatch.")

let sweep_arg =
  Arg.(value & flag
       & info [ "sweep" ]
           ~doc:"Enable SAT sweeping (fraiging) inside the reduction \
                 pipeline. Equivalence-preserving, but the few proven merges \
                 can perturb the solver enough to cost more than they save \
                 on some obligations, so it is off by default. Ignored with \
                 $(b,--no-reduce).")

let restarts_arg =
  let styles =
    [ ("luby", Sat.Solver.Luby); ("ema", Sat.Solver.Ema) ]
  in
  Arg.(value & opt (enum styles) Sat.Solver.Luby
       & info [ "restarts" ] ~docv:"STYLE"
           ~doc:"Restart strategy: $(b,luby) (budgeted, the default) or \
                 $(b,ema) (Glucose-style dynamic restarts driven by \
                 learned-clause glue). A speed knob only — every strategy \
                 returns the same verdict at the same depth.")

let no_inprocess_arg =
  Arg.(value & flag
       & info [ "no-inprocess" ]
           ~doc:"Skip between-frame inprocessing (budgeted clause \
                 vivification and root-level database simplification). \
                 Verdicts and counterexample depths are identical either \
                 way; this is the solver-side A/B escape hatch.")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Append one JSONL record per solved obligation (or mutant) \
                 to $(docv): verdict, certificate, reduce and solver \
                 statistics, sampled solver time-series, and run metadata \
                 (git rev, jobs, flags). Render or diff the ledger with \
                 $(b,aqed_cli report).")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Persistent verdict store: consult $(docv) before solving \
                 and write certified results back. Hits are revalidated \
                 (counterexample replay / RUP acceptance) before being \
                 trusted; corrupted or stale entries degrade to a re-solve. \
                 Implies certification of store-mediated verdicts. Maintain \
                 the directory with $(b,aqed_cli store).")

let certify_arg =
  Arg.(value & flag
       & info [ "certify" ]
           ~doc:"Cross-check every verdict: replay (and shrink) \
                 counterexamples on the cycle-accurate simulator, RUP-check \
                 each clean BMC frame against the proof the solver \
                 streams. The exit code then reports certification — 0 \
                 whatever the verdict, 2 on any divergence between solver \
                 and checker (both sides are printed).")

let wrap f =
  try f () with
  | Failure msg | Sys_error msg -> prerr_endline ("error: " ^ msg); 2
  | Bmc.Engine.Certification_failed msg ->
    prerr_endline ("certification FAILED: " ^ msg);
    2

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List designs and their injectable bugs")
    Term.(const (fun () -> wrap cmd_list) $ const ())

let check_cmd =
  let run d b c k j stats trace progress no_reduce sweep certify restarts
      no_inprocess journal store =
    wrap (fun () ->
        with_telemetry ~stats ~journal ~trace ~progress (fun () ->
            cmd_check d b c k j stats no_reduce sweep certify restarts
              no_inprocess journal store))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run an A-QED check (exit code 1 when a bug is found; with \
             $(b,--certify), 0 on a certified verdict and 2 on divergence)")
    Term.(const run $ design_arg $ bug_arg $ check_arg $ depth_arg $ jobs_arg
          $ stats_arg $ trace_arg $ progress_arg $ no_reduce_arg $ sweep_arg
          $ certify_arg $ restarts_arg $ no_inprocess_arg $ journal_arg
          $ store_arg)

let verify_cmd =
  let run d b k j p stats trace progress no_reduce sweep certify restarts
      no_inprocess journal store =
    wrap (fun () ->
        with_telemetry ~stats ~journal ~trace ~progress (fun () ->
            cmd_verify d b k j p stats no_reduce sweep certify restarts
              no_inprocess journal store))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the full A-QED flow (FC, RB, SAC) on the parallel batch \
             driver (exit code 1 when any check finds a bug; with \
             $(b,--certify), 0 on certified verdicts and 2 on divergence)")
    Term.(const run $ design_arg $ bug_arg $ depth_arg $ jobs_arg
          $ portfolio_arg $ stats_arg $ trace_arg $ progress_arg
          $ no_reduce_arg $ sweep_arg $ certify_arg $ restarts_arg
          $ no_inprocess_arg $ journal_arg $ store_arg)

let mutate_cmd =
  let ops_arg =
    Arg.(value & opt (list string) []
         & info [ "ops" ] ~docv:"OPS"
             ~doc:"Comma-separated mutation operators to enable (default \
                   all): binop, operand, const, stuck, mux, reset, offby1.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~doc:"Sampling seed; the same (design, ops, seed, \
                                 limit) always names the same mutants.")
  in
  let limit_arg =
    Arg.(value & opt int 64
         & info [ "limit" ] ~doc:"Maximum mutants to draw from the candidate \
                                  space.")
  in
  let budget_arg =
    Arg.(value & opt int 2000
         & info [ "budget" ]
             ~doc:"Conflict budget for the equivalence-screen miter; \
                   inconclusive miters keep the mutant.")
  in
  let run d ops seed limit budget k j trace progress journal store =
    wrap (fun () ->
        with_telemetry ~journal ~trace ~progress (fun () ->
            cmd_mutate d ops seed limit budget k j journal store))
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Run a mutation fault-injection campaign: generate semantic \
             faults, screen out provably-equivalent mutants, and run the \
             FC/RB/SAC flow on the rest (exit code 1 when any mutant \
             survives every check)")
    Term.(const run $ design_arg $ ops_arg $ seed_arg $ limit_arg $ budget_arg
          $ depth_arg $ jobs_arg $ trace_arg $ progress_arg $ journal_arg
          $ store_arg)

let sim_cmd =
  let run d b n = wrap (fun () -> cmd_sim d b n) in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate random transactions against the golden model")
    Term.(const run $ design_arg $ bug_arg $ count_arg)

let report_cmd =
  let paths =
    Arg.(value & pos_all file [] & info [] ~docv:"JOURNAL"
         ~doc:"Journal files written by $(b,--journal).")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write a self-contained HTML dashboard (per-obligation \
                   cost breakdown, solver time-series sparklines, mutation \
                   kill tables; no scripts, no external references) to \
                   $(docv).")
  in
  let summary =
    Arg.(value & flag
         & info [ "summary" ]
             ~doc:"Print the plain-text summary to stdout (the default when \
                   no $(b,-o) is given).")
  in
  let compare =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Diff two journals per obligation key instead of \
                   rendering: exit 0 when clean, 1 on a wall-time \
                   regression beyond $(b,--time-factor), 2 on a verdict or \
                   depth divergence (or a mutant that was killed before \
                   and now survives).")
  in
  let time_factor =
    Arg.(value & opt float 1.5
         & info [ "time-factor" ] ~docv:"F"
             ~doc:"Wall-time regression threshold for $(b,--compare): flag \
                   an obligation only when the new time exceeds $(docv) \
                   times the old.")
  in
  let min_seconds =
    Arg.(value & opt float 0.05
         & info [ "min-seconds" ] ~docv:"S"
             ~doc:"Noise floor for $(b,--compare): obligations faster than \
                   $(docv) seconds on either side never flag a time \
                   regression.")
  in
  let run paths output summary compare time_factor min_seconds =
    wrap (fun () ->
        cmd_report paths output summary compare time_factor min_seconds)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render verification run journals into a self-contained HTML \
             dashboard or a text summary, or ($(b,--compare)) detect \
             regressions between two journals")
    Term.(const run $ paths $ output $ summary $ compare $ time_factor
          $ min_seconds)

let store_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Verdict store directory.")
  in
  let stats_c =
    Cmd.v
      (Cmd.info "stats" ~doc:"Print entry count and on-disk size")
      Term.(const (fun d -> wrap (fun () -> cmd_store_stats d)) $ dir_pos)
  in
  let gc_c =
    let max_bytes =
      Arg.(value & opt (some int) None
           & info [ "max-bytes" ] ~docv:"N"
               ~doc:"Remove oldest entries until the store holds at most \
                     $(docv) bytes.")
    in
    let max_entries =
      Arg.(value & opt (some int) None
           & info [ "max-entries" ] ~docv:"N"
               ~doc:"Remove oldest entries until the store holds at most \
                     $(docv) entries.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Size-bounded collection: drop oldest entries until the \
               store fits the given bounds")
      Term.(const (fun d b e -> wrap (fun () -> cmd_store_gc d b e))
            $ dir_pos $ max_bytes $ max_entries)
  in
  let verify_c =
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Parse and checksum every entry (exit 1 when any is \
               invalid); certificate revalidation happens at lookup time \
               in the checks, this is the codec-level audit")
      Term.(const (fun d -> wrap (fun () -> cmd_store_verify d)) $ dir_pos)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a persistent verdict store directory")
    [ stats_c; gc_c; verify_c ]

let sat_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf") in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Check a SAT model against the input clauses, or re-solve \
                 the input with proof logging and RUP-check the UNSAT \
                 certificate.")
  in
  Cmd.v
    (Cmd.info "sat"
       ~doc:"Solve a DIMACS CNF with the built-in CDCL solver (with \
             $(b,--certify), exit 2 when the answer is not certified)")
    Term.(const (fun cert p -> wrap (fun () -> cmd_sat cert p)) $ certify $ path)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the verification service.")

let serve_cmd =
  let capacity =
    Arg.(value & opt int 32
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Maximum accepted-but-unfinished jobs; submits beyond it \
                   get a typed busy reply instead of queueing without \
                   bound.")
  in
  let timeout =
    Arg.(value & opt float 300.
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Default per-job wall-clock deadline in seconds; a job \
                   that exceeds it is cooperatively cancelled and answered \
                   with a typed timeout frame (the worker pool survives).")
  in
  let idle =
    Arg.(value & opt float 30.
         & info [ "idle-timeout" ] ~docv:"S"
             ~doc:"Close a connection after $(docv) seconds without a \
                   request.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Shard mode: spawn $(docv) worker processes and lease \
                   jobs to them at the obligation level instead of \
                   solving in-process ($(b,-j) then sizes each worker's \
                   pool). Standalone $(b,aqed_cli worker) processes may \
                   join the same socket at any time.")
  in
  let run socket store jobs workers capacity timeout idle journal =
    wrap (fun () ->
        cmd_serve socket store jobs workers capacity timeout idle journal)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verification service daemon: accept jobs over a \
             Unix-domain socket, solve them on a shared worker pool (and \
             shared verdict store with $(b,--store)) — or, with \
             $(b,--workers), coordinate a fleet of worker processes with \
             obligation-level work-stealing — drain gracefully on \
             SIGTERM/SIGINT")
    Term.(const run $ socket_arg $ store_arg $ jobs_arg $ workers
          $ capacity $ timeout $ idle $ journal_arg)

let worker_cmd =
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "name" ] ~docv:"NAME"
             ~doc:"Worker name in coordinator telemetry and lease views \
                   (default: w<pid>).")
  in
  let run socket store jobs name =
    wrap (fun () -> cmd_worker socket store jobs name)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Join a shard coordinator's fleet: lease jobs one obligation \
             at a time from a running $(b,serve --workers) socket, solve \
             them on an own domain pool (sharing the fleet's verdict \
             store with $(b,--store)), and exit when the coordinator \
             drains")
    Term.(const run $ socket_arg $ store_arg $ jobs_arg $ name_arg)

let submit_cmd =
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-job wall-clock deadline, overriding the daemon's \
                   default.")
  in
  let run socket d b c k certify timeout =
    wrap (fun () -> cmd_submit socket d b c k certify timeout)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Queue one check on a running verification service and wait \
             for its verdict (exit code 1 when a bug is found, 2 on \
             timeout, busy or error)")
    Term.(const run $ socket_arg $ design_arg $ bug_arg $ check_arg
          $ depth_arg $ certify_arg $ timeout)

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Print one status line from a running \
                             verification service")
    Term.(const (fun s -> wrap (fun () -> cmd_status s)) $ socket_arg)

let run ~argv () =
  current_argv := argv;
  let info =
    Cmd.info "aqed_cli" ~version:"1.0"
      ~doc:"A-QED pre-silicon verification of hardware accelerators"
  in
  Cmd.eval' ~argv
    (Cmd.group info
       [ list_cmd; check_cmd; verify_cmd; mutate_cmd; sim_cmd; sat_cmd;
         report_cmd; store_cmd; serve_cmd; worker_cmd; submit_cmd;
         status_cmd ])
