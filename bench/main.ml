(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Sec. V) on this repository's designs:

     table1   A-QED vs conventional flow on the memory-controller unit
     fig5     bug-detection coverage comparison
     table2   A-QED on the HLS designs (AES v1-v4, dataflow, optical flow, GSM)
     fig2     the motivating clock-enable example
     reduce   structural reduction: reduced and raw (--no-reduce) legs
     certify  certification: plain and certified legs (replayed
              counterexamples, RUP-certified UNSAT frames); exits 1 on any
              divergence or missing certificate, records the overhead
     sat      the default solver alone on its known answers; records the
              per-obligation solver statistics and journals every report
     mutate   mutation fault-injection campaign on the three memctrl
              configurations (fixed seed): generated faults instead of the
              hand-written registry; records the mutation score, kill-depth
              histogram and per-operator detection rates, writes every
              survivor to mutation_survivors.txt, and exits 1 when the
              campaign falls below the tracked floors (>= 80%% overall
              score, >= 10%% of mutants screened without BMC)
     kernels  Bechamel micro-benchmarks of the substrate (SAT, BMC, sim)
     ablate   ablations called out in DESIGN.md

   reduce, certify and sat draw on one declarative
   obligation suite, each entry carrying its known verdict@depth, and run
   through one runner: every leg is checked against the known answer, and
   any mismatch exits 1.

   Run with no argument for the paper artefacts (table1 fig5 table2 fig2);
   pass target names to select; `all` runs every target. An unknown
   target exits 2 before anything runs.

   `-j N` sizes the domain pool: table2 then runs both the sequential
   baseline and the parallel batch driver, checks the outcomes agree and
   reports the speedup. `-p N` additionally races N diversified solver
   configurations inside each obligation. Every run also emits
   machine-readable BENCH_results.json (schema 12: run metadata, per-table
   wall times, one uniform row per A/B obligation — per leg its verdict,
   wall time, solver stats including the glue-tier tallies and
   certificate — plus each target's gates, mutation-campaign scores,
   and a final snapshot of the global telemetry metrics registry) so the
   perf trajectory is tracked across changes. *)

module M = Accel.Memctrl
module C = Testbench.Conventional

let line width = String.make width '-'

let stats xs =
  match xs with
  | [] -> (0., 0., 0.)
  | x :: rest ->
    let n, mn, mx, sum =
      List.fold_left
        (fun (n, mn, mx, sum) v -> (n + 1, min mn v, max mx v, sum +. v))
        (1, x, x, x) rest
    in
    (mn, sum /. float_of_int n, mx)

let pf fmt = Printf.printf fmt

(* ---- machine-readable results (BENCH_results.json) ----

   The run journal's JSON value type, re-exported so the tables below build
   values unqualified; the file is printed by [Report.Json.to_string]. *)

type json = Report.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let json_results : (string * json) list ref = ref []
let record key v = json_results := (key, v) :: !json_results

(* The run ledger: targets that solve obligations (table2, sat) or run
   campaigns (mutate) append journal records here; the main driver writes
   them to BENCH_journal.jsonl and archives a copy under _bench_history/,
   which is what `aqed_cli report --compare` diffs across nightly runs. *)
let journal_records : Report.Journal.record list ref = ref []

let journal_add records =
  List.iter (fun r -> journal_records := r :: !journal_records) records

(* Set when a target detects a regression (e.g. a verdict changing under
   reduction); the bench still writes its JSON, then exits non-zero. *)
let bench_failed = ref false

(* The revision being measured, so results files can be compared across PRs;
   absent outside a git checkout. *)
let git_rev () =
  match
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> Some rev
    | _ -> None
  with
  | rev -> rev
  | exception _ -> None

(* Global metrics registry snapshot ([Telemetry.metrics ()]) at the moment
   results are written — counters and histograms accumulated over every
   solve the bench performed. *)
let json_of_metrics () =
  Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Telemetry.Counter n -> Int n
           | Telemetry.Gauge n -> Int n
           | Telemetry.Histogram h ->
             Obj
               [
                 ("count", Int h.Telemetry.count);
                 ("sum_s", Float h.Telemetry.sum_s);
                 ( "buckets",
                   List
                     (List.concat_map
                        (fun (le_s, n) ->
                          if n = 0 then []
                          else [ Obj [ ("le_s", Float le_s); ("n", Int n) ] ])
                        h.Telemetry.buckets) );
               ] ))
       (Telemetry.metrics ()))

let write_json_results ~jobs ~portfolio ~total_wall =
  let oc = open_out "BENCH_results.json" in
  output_string oc
    (Report.Json.to_string
       (Obj
          ([
             ("schema", Int 12);
             ( "meta",
               Obj
                 ([ ("jobs", Int jobs); ("portfolio", Int portfolio);
                    ("ocaml", Str Sys.ocaml_version) ]
                  @ (match git_rev () with
                     | Some rev -> [ ("git_rev", Str rev) ]
                     | None -> [])) );
             ("jobs", Int jobs);
             ("total_wall_s", Float total_wall);
           ]
           @ List.rev !json_results
           @ [ ("metrics", json_of_metrics ()) ])));
  output_char oc '\n';
  close_out oc;
  pf "\nwrote BENCH_results.json\n"

let json_of_solver_stats (s : Sat.Solver.stats) =
  Obj
    [
      ("vars", Int s.Sat.Solver.max_var);
      ("clauses", Int s.Sat.Solver.clauses);
      ("decisions", Int s.Sat.Solver.decisions);
      ("propagations", Int s.Sat.Solver.propagations);
      ("conflicts", Int s.Sat.Solver.conflicts);
      ("restarts", Int s.Sat.Solver.restarts);
      ("learned", Int s.Sat.Solver.learned);
      ("lbd_core", Int s.Sat.Solver.lbd_core);
      ("lbd_mid", Int s.Sat.Solver.lbd_mid);
      ("lbd_local", Int s.Sat.Solver.lbd_local);
      ("reductions", Int s.Sat.Solver.reductions);
      ("vivified", Int s.Sat.Solver.vivified);
    ]

let json_of_reduce_stats (s : Logic.Reduce.stats) =
  Obj
    [
      ("nodes_before", Int s.Logic.Reduce.nodes_before);
      ("nodes_after", Int s.Logic.Reduce.nodes_after);
      ("latches_before", Int s.Logic.Reduce.latches_before);
      ("latches_after", Int s.Logic.Reduce.latches_after);
      ("coi_dropped_latches", Int s.Logic.Reduce.coi_dropped_latches);
      ("const_latches", Int s.Logic.Reduce.const_latches);
      ("sweep_classes", Int s.Logic.Reduce.sweep_classes);
      ("sweep_queries", Int s.Logic.Reduce.sweep_queries);
      ("sweep_merged", Int s.Logic.Reduce.sweep_merged);
      ("sweep_limited", Int s.Logic.Reduce.sweep_limited);
    ]

let json_of_report (r : Aqed.Check.report) =
  Obj
    ([
       ("check", Str r.Aqed.Check.check);
       ( "verdict",
         Str
           (match r.Aqed.Check.verdict with
            | Aqed.Check.Bug _ -> "bug"
            | Aqed.Check.No_bug_up_to _ -> "clean") );
       ( "depth",
         Int
           (match r.Aqed.Check.verdict with
            | Aqed.Check.Bug t -> Bmc.Trace.length t
            | Aqed.Check.No_bug_up_to k -> k) );
       ("wall_s", Float r.Aqed.Check.wall_time);
       ("aig_nodes", Int r.Aqed.Check.aig_nodes);
       ("aig_nodes_raw", Int r.Aqed.Check.aig_nodes_raw);
       ("solver", json_of_solver_stats r.Aqed.Check.solver_stats);
     ]
     @
     match r.Aqed.Check.reduce_stats with
     | None -> []
     | Some s -> [ ("reduce", json_of_reduce_stats s) ])

(* The A-QED flow on one memctrl configuration: FC, then RB (with the
   clock-enable customization of Sec. IV.C), then SAC with the
   configuration's spec — stopping at the first detection, as the paper's
   flow debugs one counterexample at a time. Returns the detecting report,
   if any, and the flow's summed wall time. *)
let aqed_flow ?bug cfg =
  let build () = M.build ?bug cfg () in
  let build_enabled () = M.build ?bug ~assume_enabled:true cfg () in
  (* Depths sized to the configurations' latencies (every counterexample in
     the registry fits well within 12 frames). *)
  let reports =
    Aqed.Check.verify
      [ Aqed.Check.prepare_fc ~max_depth:12 build;
        Aqed.Check.prepare_rb ~max_depth:12 ~tau:(M.tau cfg) build_enabled;
        Aqed.Check.prepare_sac ~max_depth:10 ~spec:(M.spec_rtl cfg) build ]
  in
  let wall =
    List.fold_left (fun t r -> t +. r.Aqed.Check.wall_time) 0. reports
  in
  (List.find_opt Aqed.Check.found_bug reports, wall)

let conventional_flow ?bug cfg =
  let tests =
    C.standard_suite ~has_clock_enable:true ~data_width:(M.data_width cfg) ()
  in
  C.campaign ~build:(fun () -> M.build ?bug cfg ()) ~golden:(M.golden cfg) tests

type bug_outcome = {
  bug : M.bug;
  aqed_found : bool;
  aqed_check : string;
  aqed_time : float;
  aqed_trace : int;
  conv_found : bool;
  conv_time : float;
  conv_trace : int;
}

let run_bug bug =
  let cfg = M.bug_config bug in
  let detecting, aqed_time = aqed_flow ~bug cfg in
  let aqed_found, aqed_check, aqed_trace =
    match detecting with
    | Some r ->
      (true, r.Aqed.Check.check,
       match Aqed.Check.trace_length r with Some n -> n | None -> 0)
    | None -> (false, "-", 0)
  in
  let conv = conventional_flow ~bug cfg in
  let conv_found, conv_trace =
    match conv.C.detected with
    | Some d -> (true, d.C.cycle)
    | None -> (false, 0)
  in
  { bug; aqed_found; aqed_check; aqed_time; aqed_trace; conv_found;
    conv_time = conv.C.wall_time; conv_trace }

let all_outcomes = lazy (List.map run_bug M.all_bugs)

(* Setup-effort proxy (Table 1's person-days column): design-specific lines
   each flow needs before it can run. A-QED needs only the wrapper
   invocation with the response bound; the conventional flow needs golden
   models plus stimulus programs and the scoreboard. Counted from this
   repository's sources (see EXPERIMENTS.md for the accounting). *)
let aqed_setup_lines = 3
let conventional_setup_lines = 95

let print_table1 () =
  let outcomes = Lazy.force all_outcomes in
  let detected_aqed = List.filter (fun o -> o.aqed_found) outcomes in
  let detected_conv = List.filter (fun o -> o.conv_found) outcomes in
  let amin, aavg, amax = stats (List.map (fun o -> o.aqed_time) detected_aqed) in
  let cmin, cavg, cmax = stats (List.map (fun o -> o.conv_time) detected_conv) in
  let atmin, atavg, atmax =
    stats (List.map (fun o -> float_of_int o.aqed_trace) detected_aqed)
  in
  let ctmin, ctavg, ctmax =
    stats (List.map (fun o -> float_of_int o.conv_trace) detected_conv)
  in
  pf "\n== Table 1: A-QED vs conventional flow (memory-controller unit) ==\n";
  pf "%s\n" (line 78);
  pf "%-14s %-22s %-22s %-20s\n" "Flow" "Setup effort*" "Runtime (s)"
    "Trace (clock cycles)";
  pf "%-14s %-22s %-22s %-20s\n" "" "(design-specific LoC)" "[min, avg, max]"
    "[min, avg, max]";
  pf "%s\n" (line 78);
  pf "%-14s %-22d %-22s %-20s\n" "A-QED" aqed_setup_lines
    (Printf.sprintf "%.2f, %.2f, %.2f" amin aavg amax)
    (Printf.sprintf "%.0f, %.0f, %.0f" atmin atavg atmax);
  pf "%-14s %-22d %-22s %-20s\n" "Conventional" conventional_setup_lines
    (Printf.sprintf "%.2f, %.2f, %.2f" cmin cavg cmax)
    (Printf.sprintf "%.0f, %.0f, %.0f" ctmin ctavg ctmax);
  pf "%s\n" (line 78);
  pf "* the paper reports person-days (1 vs 30); the mechanizable proxy here\n";
  pf "  is design-specific lines of setup code per flow.\n";
  if atavg > 0. then
    pf "Observation 3 analogue: conventional traces are %.0fx longer on \
        average (paper: 37x).\n"
      (ctavg /. atavg);
  pf "\nPer-bug detail:\n";
  pf "%-24s %-6s %-10s %-9s | %-6s %-10s %-9s\n" "bug" "A-QED" "time(s)"
    "trace" "conv" "time(s)" "cycle";
  pf "%s\n" (line 82);
  List.iter
    (fun o ->
      pf "%-24s %-6s %-10.3f %-9s | %-6s %-10.2f %-9s\n" (M.bug_name o.bug)
        (if o.aqed_found then o.aqed_check else "MISS")
        o.aqed_time
        (if o.aqed_found then string_of_int o.aqed_trace else "-")
        (if o.conv_found then "yes" else "MISS")
        o.conv_time
        (if o.conv_found then string_of_int o.conv_trace else "-"))
    outcomes;
  record "table1"
    (Obj
       [
         ( "aqed_runtime_s",
           Obj
             [ ("min", Float amin); ("avg", Float aavg);
               ("max", Float amax) ] );
         ( "conv_runtime_s",
           Obj
             [ ("min", Float cmin); ("avg", Float cavg);
               ("max", Float cmax) ] );
         ( "bugs",
           List
             (List.map
                (fun o ->
                  Obj
                    [
                      ("bug", Str (M.bug_name o.bug));
                      ("aqed_found", Bool o.aqed_found);
                      ("aqed_check", Str o.aqed_check);
                      ("aqed_wall_s", Float o.aqed_time);
                      ("aqed_trace", Int o.aqed_trace);
                      ("conv_found", Bool o.conv_found);
                      ("conv_wall_s", Float o.conv_time);
                      ("conv_trace", Int o.conv_trace);
                    ])
                outcomes) );
       ])

let print_fig5 () =
  let outcomes = Lazy.force all_outcomes in
  let total = List.length outcomes in
  let aqed = List.length (List.filter (fun o -> o.aqed_found) outcomes) in
  let conv = List.length (List.filter (fun o -> o.conv_found) outcomes) in
  let both =
    List.length (List.filter (fun o -> o.aqed_found && o.conv_found) outcomes)
  in
  let only_aqed =
    List.filter (fun o -> o.aqed_found && not o.conv_found) outcomes
  in
  pf "\n== Fig. 5: memory-controller unit bugs detected ==\n";
  pf "total bugs in the tracked registry : %d\n" total;
  pf "detected by conventional flow      : %d (%.0f%%)\n" conv
    (100. *. float_of_int conv /. float_of_int total);
  pf "detected by A-QED                  : %d (%.0f%%)\n" aqed
    (100. *. float_of_int aqed /. float_of_int total);
  pf "detected by both                   : %d\n" both;
  pf "A-QED-only (corner cases)          : %d (+%.0f%%)  [paper: +13%%]\n"
    (List.length only_aqed)
    (100. *. float_of_int (List.length only_aqed) /. float_of_int total);
  List.iter
    (fun o -> pf "  A-QED-only: %s (%s)\n" (M.bug_name o.bug) o.aqed_check)
    only_aqed;
  pf "checks used by A-QED: FC=%d RB=%d SAC=%d\n"
    (List.length
       (List.filter (fun o -> o.aqed_found && o.aqed_check = "FC") outcomes))
    (List.length
       (List.filter (fun o -> o.aqed_found && o.aqed_check = "RB") outcomes))
    (List.length
       (List.filter (fun o -> o.aqed_found && o.aqed_check = "SAC") outcomes));
  record "fig5"
    (Obj
       [
         ("total", Int total);
         ("conventional", Int conv);
         ("aqed", Int aqed);
         ("both", Int both);
         ("aqed_only", Int (List.length only_aqed));
       ])

(* ---- Table 2 ---- *)

(* Each row is a prepared (unsolved) obligation, so the same list drives
   both the sequential baseline and the parallel batch driver. *)
type hls_spec = {
  source : string;
  design : string;
  bug_kind : string;
  ob : Aqed.Check.obligation;
}

let table2_specs () =
  let aes v =
    {
      source = "AES encryption [Cong 17]";
      design = Printf.sprintf "AES v%d" v;
      bug_kind = "FC";
      ob =
        Aqed.Check.prepare_fc
          ~name:(Printf.sprintf "AES v%d/FC" v)
          ~max_depth:18 ~shared:Accel.Aes.shared_key
          (fun () -> Accel.Aes.build ~version:v ());
    }
  in
  let dataflow =
    { source = "Custom design [Chi 19]"; design = "Dataflow"; bug_kind = "RB";
      ob =
        Aqed.Check.prepare_rb ~name:"Dataflow/RB" ~max_depth:16
          ~tau:Accel.Dataflow.tau
          (fun () -> Accel.Dataflow.build ~bug:true ()) }
  in
  let optflow =
    { source = "Rosetta [Zhou 18]"; design = "Optical Flow"; bug_kind = "RB";
      ob =
        Aqed.Check.prepare_rb ~name:"Optical Flow/RB" ~max_depth:16
          ~tau:Accel.Optflow.tau
          (fun () -> Accel.Optflow.build ~bug:true ()) }
  in
  let gsm =
    { source = "CHStone [Hara 09]"; design = "GSM"; bug_kind = "FC";
      ob =
        Aqed.Check.prepare_fc ~name:"GSM/FC" ~max_depth:16
          (fun () -> Accel.Gsm.build ~bug:true ()) }
  in
  List.map aes [ 1; 2; 3; 4 ] @ [ dataflow; optflow; gsm ]

let verdict_sig (r : Aqed.Check.report) =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> Printf.sprintf "bug@%d" (Bmc.Trace.length t)
  | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean@%d" k

let print_table2 ~jobs ~portfolio () =
  let specs = table2_specs () in
  let t0 = Unix.gettimeofday () in
  let seq_reports = List.map (fun s -> Aqed.Check.run_obligation s.ob) specs in
  let seq_wall = Unix.gettimeofday () -. t0 in
  journal_add
    (List.map2
       (fun s r ->
         Report.Journal.Obligation
           (Report.Journal.of_report ~design:s.design
              ~name:(Aqed.Check.obligation_name s.ob) r))
       specs seq_reports);
  pf "\n== Table 2: A-QED results for HLS designs ==\n";
  pf "%s\n" (line 76);
  pf "%-26s %-14s %-5s %-12s %-12s\n" "Source" "(Buggy) design" "Bug"
    "Runtime (s)" "CEX (cycles)";
  pf "%s\n" (line 76);
  List.iter2
    (fun s r ->
      pf "%-26s %-14s %-5s %-12.3f %-12s\n" s.source s.design s.bug_kind
        r.Aqed.Check.wall_time
        (match Aqed.Check.trace_length r with
         | Some n -> string_of_int n
         | None -> "MISS"))
    specs seq_reports;
  pf "%s\n" (line 76);
  let base_fields =
    [
      ("sequential_wall_s", Float seq_wall);
      ( "rows",
        List
          (List.map2
             (fun s r ->
               Obj
                 [
                   ("design", Str s.design);
                   ("bug_kind", Str s.bug_kind);
                   ("report", json_of_report r);
                 ])
             specs seq_reports) );
    ]
  in
  if jobs <= 1 && portfolio <= 1 then record "table2" (Obj base_fields)
  else begin
    (* Re-solve the same obligations on the domain pool and hold the result
       to the sequential baseline: identical outcomes and depths, or the
       row is flagged (and the JSON records the mismatch). *)
    let batch =
      Aqed.Check.run_batch ~jobs ~portfolio
        (List.map (fun s -> s.ob) specs)
    in
    let par_reports = Aqed.Check.batch_reports batch in
    let matches =
      List.map2 (fun a b -> verdict_sig a = verdict_sig b) seq_reports
        par_reports
    in
    let all_match = List.for_all (fun m -> m) matches in
    let speedup =
      if batch.Aqed.Check.batch_wall > 0. then
        seq_wall /. batch.Aqed.Check.batch_wall
      else 0.
    in
    pf "parallel batch (-j %d%s): %.3fs wall vs %.3fs sequential — %.2fx speedup\n"
      jobs
      (if portfolio > 1 then Printf.sprintf " -p %d" portfolio else "")
      batch.Aqed.Check.batch_wall seq_wall speedup;
    pf "outcomes/depths vs sequential: %s\n"
      (if all_match then "identical" else "MISMATCH");
    List.iter2
      (fun (e : Aqed.Check.batch_entry) m ->
        pf "  %-18s %6.3fs%s\n" e.Aqed.Check.entry_name
          e.Aqed.Check.entry_wall
          (if m then "" else "  << MISMATCH"))
      batch.Aqed.Check.entries matches;
    record "table2"
      (Obj
         (base_fields
          @ [
              ( "parallel",
                Obj
                  [
                    ("jobs", Int jobs);
                    ("portfolio", Int portfolio);
                    ("wall_s", Float batch.Aqed.Check.batch_wall);
                    ("speedup", Float speedup);
                    ("outcomes_match", Bool all_match);
                    ( "per_obligation_wall_s",
                      List
                        (List.map
                           (fun (e : Aqed.Check.batch_entry) ->
                             Obj
                               [
                                 ("name", Str e.Aqed.Check.entry_name);
                                 ("wall_s", Float e.Aqed.Check.entry_wall);
                               ])
                           batch.Aqed.Check.entries) );
                  ] );
            ]))
  end

let print_fig2 () =
  pf "\n== Fig. 2: motivating example (clock-enable disconnected from buffer 4) ==\n";
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:16
         (fun () -> Accel.Fig2.build ~bug:true ()))
  in
  (match r.Aqed.Check.verdict with
   | Aqed.Check.Bug t ->
     pf "A-QED/FC found the bug: %d-cycle counterexample in %.3fs\n"
       (Bmc.Trace.length t) r.Aqed.Check.wall_time;
     let pauses =
       List.filter
         (fun f ->
           match List.assoc_opt "clock_enable" f.Bmc.Trace.inputs with
           | Some v -> Bitvec.is_zero v
           | None -> false)
         t.Bmc.Trace.frames
     in
     pf "the trace pauses clock_enable on %d cycle(s) — the corner the\n"
       (List.length pauses);
     pf "conventional flow's application-style stimulus never exercises.\n"
   | Aqed.Check.No_bug_up_to k -> pf "UNEXPECTED: clean to %d\n" k);
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:8 (fun () -> Accel.Fig2.build ()))
  in
  pf "bug-free design: %s\n"
    (match clean.Aqed.Check.verdict with
     | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean up to depth %d" k
     | Aqed.Check.Bug _ -> "UNEXPECTED BUG")

(* ---- A/B targets: one obligation suite, one runner ---- *)

(* The reduce, certify and sat targets all draw their
   obligations from one declarative suite and run them through one runner
   ([run_ab]): a target is a list of variants (legs) plus its gates. Every
   leg of every target is checked against the entry's known answer, so a
   wrong verdict fails the bench (exit 1) even when all legs agree on
   it. *)

type ab_target = [ `Reduce | `Certify | `Sat ]

type ab_entry = {
  design : string;
  note : string;  (* row-label suffix after "design/CHECK" *)
  check : [ `Fc of (Aqed.Iface.t -> Rtl.Ir.signal) option | `Rb of int ];
      (* FC with its optional shared operand, or RB with its tau *)
  depth : int;
  build : unit -> Aqed.Iface.t;
  sweep : bool;
  targets : ab_target list;
  expect : string;  (* the known answer, verdict@depth *)
}

let ab ?(note = "") ?(sweep = false) ~targets ~expect design check depth
    build =
  { design; note; check; depth; build; sweep; targets; expect }

let ab_suite =
  let every = [ `Reduce; `Certify; `Sat ] in
  [
    (* The sweep showcase: the checker datapath is functionally equal but
       structurally disjoint from the functional one, so only SAT sweeping
       (opt-in; ignored by the raw leg) can collapse it. *)
    ab "dualpath" (`Fc None) 12 ~note:" bug (sweep)" ~sweep:true
      ~targets:[ `Reduce ] ~expect:"bug@6"
      (fun () -> Accel.Dualpath.build ~bug:true ());
    ab "dualpath" (`Fc None) 10 ~note:" (sweep)" ~sweep:true
      ~targets:[ `Reduce ] ~expect:"clean@10"
      (fun () -> Accel.Dualpath.build ());
    ab "memctrl-fifo" (`Fc None) 10 ~targets:[ `Reduce; `Sat ]
      ~expect:"clean@10"
      (fun () -> M.build M.Fifo_mode ());
    (* fig2 at depth 16 and AES at depth 18 are the two searches dominated
       by frame-solve time rather than encoding. Certification leaves them
       out for the time their legs would add to the CI gate, not for the
       checker's share: on a 2-core host their plain + certified legs took
       26.4 + 23.5 s (fig2) and 20.9 + 31.0 s (AES), about 102 s on top of
       the 21 s the whole certify target takes without them. *)
    ab "fig2" (`Fc None) 16 ~note:" bug" ~targets:[ `Reduce; `Sat ]
      ~expect:"bug@14"
      (fun () -> Accel.Fig2.build ~bug:true ());
    ab "AES v1" (`Fc (Some Accel.Aes.shared_key)) 18 ~targets:[ `Reduce; `Sat ]
      ~expect:"bug@13"
      (fun () -> Accel.Aes.build ~version:1 ());
    ab "GSM" (`Fc None) 16 ~note:" bug" ~targets:every ~expect:"bug@14"
      (fun () -> Accel.Gsm.build ~bug:true ());
    ab "Dataflow" (`Rb Accel.Dataflow.tau) 16 ~note:" bug" ~targets:every
      ~expect:"bug@16"
      (fun () -> Accel.Dataflow.build ~bug:true ());
    ab "Optical Flow" (`Rb Accel.Optflow.tau) 16 ~note:" bug"
      ~targets:[ `Reduce; `Certify; `Sat ] ~expect:"bug@10"
      (fun () -> Accel.Optflow.build ~bug:true ());
    ab "memctrl-fifo" (`Fc None) 12 ~note:" bug" ~targets:[ `Certify ]
      ~expect:"bug@8"
      (fun () -> M.build ~bug:M.Fifo_oversize_ready M.Fifo_mode ());
    ab "memctrl-fifo" (`Fc None) 8 ~note:" clean" ~targets:[ `Certify ]
      ~expect:"clean@8"
      (fun () -> M.build M.Fifo_mode ());
    ab "fig2" (`Fc None) 8 ~note:" clean" ~targets:[ `Certify ]
      ~expect:"clean@8"
      (fun () -> Accel.Fig2.build ());
    ab "dualpath" (`Fc None) 12 ~note:" bug" ~targets:[ `Certify; `Sat ]
      ~expect:"bug@6"
      (fun () -> Accel.Dualpath.build ~bug:true ());
    ab "dualpath" (`Fc None) 8 ~targets:[ `Certify ] ~expect:"clean@8"
      (fun () -> Accel.Dualpath.build ());
  ]

let ab_name e =
  Printf.sprintf "%s/%s" e.design
    (match e.check with `Fc _ -> "FC" | `Rb _ -> "RB")

let ab_label e = ab_name e ^ e.note

let ab_prepare ?(reduce = true) e =
  let name = ab_name e and max_depth = e.depth and sweep = e.sweep in
  match e.check with
  | `Fc shared ->
    Aqed.Check.prepare_fc ~name ~max_depth ?shared ~reduce ~sweep e.build
  | `Rb tau ->
    Aqed.Check.prepare_rb ~name ~max_depth ~tau ~reduce ~sweep e.build

let ab_entries target = List.filter (fun e -> List.mem target e.targets) ab_suite

(* One variant's answer on one entry: verdict@depth (or why there is
   none), wall time and the report. *)
type leg = {
  answer : string;
  wall : float;
  report : Aqed.Check.report option;
}

let solved (r : Aqed.Check.report) =
  { answer = verdict_sig r; wall = r.Aqed.Check.wall_time; report = Some r }

let certificate l =
  match l.report with
  | Some { Aqed.Check.certificate = Aqed.Check.Replayed c; _ } ->
    Printf.sprintf "replayed@%d" c
  | Some { Aqed.Check.certificate = Aqed.Check.Rup_certified k; _ } ->
    Printf.sprintf "rup@%d" k
  | Some _ | None -> "-"

let json_of_leg l =
  Obj
    ([ ("answer", Str l.answer); ("wall_s", Float l.wall);
       ("certificate", Str (certificate l)) ]
     @ match l.report with
       | Some r -> [ ("report", json_of_report r) ]
       | None -> [])

(* How a variant solves: one obligation at a time on this domain; its
   wall time is the sum of its legs'. *)
type variant = {
  label : string;
  reduce : bool;  (* prepare through the reduction pipeline *)
  solve : ab_entry -> Aqed.Check.obligation -> leg;
}

let variant ?(reduce = true) label solve = { label; reduce; solve }

let run_plain _ ob = solved (Aqed.Check.run_obligation ob)

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

type ab_run = {
  legs : (variant * leg list * float) list;
      (* per variant: one leg per entry and the variant's wall time *)
  outcomes_ok : bool;
  rows : json list;
}

let legs_of run label =
  match List.find_opt (fun (v, _, _) -> v.label = label) run.legs with
  | Some (_, legs, wall) -> (legs, wall)
  | None -> invalid_arg ("legs_of: no variant " ^ label)

(* Runs every variant over the target's entries and checks every answer
   against the entry's known answer. The runner goes entry by entry — all
   of an entry's legs back to back — so drift slower than one solve hits
   every variant alike. One uniform row per entry: the known answer, each
   leg's wall time and any certificate. *)
let run_ab ~title target variants =
  pf "\n== %s ==\n" title;
  let entries = ab_entries target in
  let by_entry =
    List.map
      (fun e ->
        List.map (fun v -> v.solve e (ab_prepare ~reduce:v.reduce e)) variants)
      entries
  in
  let legs =
    List.map2
      (fun v ls -> (v, ls, List.fold_left (fun acc l -> acc +. l.wall) 0. ls))
      variants (transpose by_entry)
  in
  let rows =
    List.map2
      (fun e ls ->
        let answers = List.combine variants ls in
        let ok = List.for_all (fun l -> l.answer = e.expect) ls in
        pf "%-26s %-9s" (ab_label e) e.expect;
        List.iter (fun (v, l) -> pf " | %s %.3fs" v.label l.wall) answers;
        List.iter
          (fun l -> if certificate l <> "-" then pf " %s" (certificate l))
          ls;
        if not ok then
          pf "  << UNEXPECTED: %s"
            (String.concat ", "
               (List.map (fun (v, l) -> v.label ^ "=" ^ l.answer) answers));
        pf "\n";
        ( ok,
          Obj
            [ ("name", Str (ab_label e)); ("max_depth", Int e.depth);
              ("expect", Str e.expect); ("outcomes_match", Bool ok);
              ( "legs",
                Obj (List.map (fun (v, l) -> (v.label, json_of_leg l)) answers)
              ) ] ))
      entries by_entry
  in
  let outcomes_ok = List.for_all fst rows in
  pf "legs: %s%s\n"
    (String.concat ", "
       (List.map (fun (v, _, wall) -> Printf.sprintf "%s %.3fs" v.label wall)
          legs))
    (if outcomes_ok then "" else "  (FAILURE: an unexpected verdict)");
  { legs; outcomes_ok; rows = List.map snd rows }

(* Records a target's result; [ok] is the target's gate, and a failed gate
   fails the bench. *)
let record_ab key run ~ok extra =
  if not ok then bench_failed := true;
  record key
    (Obj
       ([ ("outcomes_match", Bool run.outcomes_ok); ("gates_ok", Bool ok);
          ( "wall_s",
            Obj
              (List.map (fun (v, _, wall) -> (v.label, Float wall)) run.legs) )
        ]
        @ extra
        @ [ ("rows", List run.rows) ]))

(* Reduced vs raw (--no-reduce): same verdict at the same depth, and what
   reduction buys in encoded CNF size (solver variables + clauses over the
   whole run) — the CI smoke for the pipeline's soundness invariant. *)
let print_reduce () =
  let run =
    run_ab `Reduce ~title:"Reduction pipeline A/B (reduced vs --no-reduce)"
      [ variant "reduced" run_plain; variant ~reduce:false "raw" run_plain ]
  in
  let encoded l =
    match l.report with
    | Some r ->
      r.Aqed.Check.solver_stats.Sat.Solver.max_var
      + r.Aqed.Check.solver_stats.Sat.Solver.clauses
    | None -> 0
  in
  let best_drop =
    List.fold_left2
      (fun best on off ->
        if encoded off > 0 then
          Float.max best
            (1. -. (float_of_int (encoded on) /. float_of_int (encoded off)))
        else best)
      0. (fst (legs_of run "reduced")) (fst (legs_of run "raw"))
  in
  pf "best vars+clauses drop: %.0f%%\n" (100. *. best_drop);
  record_ab "reduce" run ~ok:run.outcomes_ok
    [ ("best_vars_clauses_drop", Float best_drop) ]

(* Plain vs certified (replayed counterexamples, RUP-certified frames):
   zero divergences and a certificate on every certified leg; the suite
   overhead is recorded (CI gates it at <= 2x). The hard clean dualpath
   search is in: each derived clause is checked along the chain it
   carries, so certification costs about the derivation, not a propagation
   over the formula. A chain that does not close is a divergence;
   [rup_steps] counts the steps checked. *)
let print_certify () =
  let rup name = Telemetry.Counter.get (Telemetry.Counter.make name) in
  let n0 = rup "cert.rup_steps" and r0 = rup "cert.rup_rejected" in
  let certified _ ob =
    match Aqed.Check.run_obligation ~certify:true ob with
    | r -> solved r
    | exception Bmc.Engine.Certification_failed msg ->
      { answer = "diverged: " ^ msg; wall = 0.; report = None }
  in
  let run =
    run_ab `Certify
      ~title:"Verdict certification A/B (replay + RUP vs uncertified)"
      [ variant "plain" run_plain; variant "certified" certified ]
  in
  let cert, cert_wall = legs_of run "certified" in
  let _, plain_wall = legs_of run "plain" in
  let zero_divergences = List.for_all (fun l -> Option.is_some l.report) cert in
  let all_certified = List.for_all (fun l -> certificate l <> "-") cert in
  let overhead = if plain_wall > 0. then cert_wall /. plain_wall else 1. in
  let steps = rup "cert.rup_steps" - n0
  and rejected = rup "cert.rup_rejected" - r0 in
  pf "suite: %.2fx certification overhead%s\n" overhead
    (if all_certified then "" else "  (FAILURE: a leg is uncertified)");
  pf "RUP steps: %d checked, %d closed by their chain, %d rejected\n" steps
    (steps - rejected) rejected;
  record_ab "certify" run ~ok:(run.outcomes_ok && all_certified)
    [ ("zero_divergences", Bool zero_divergences);
      ("all_certified", Bool all_certified);
      ("overhead", Float overhead);
      ("rup_steps", Int steps);
      ("rup_rejected", Int rejected) ]

(* The default solver alone on its known answers, every report journaled;
   the per-obligation solver statistics in each row are the deterministic
   trace of the search. *)
let print_sat () =
  let journaled e ob =
    let r = Aqed.Check.run_obligation ob in
    journal_add
      [ Report.Journal.Obligation
          (Report.Journal.of_report ~design:(ab_label e)
             ~name:(Aqed.Check.obligation_name ob) r) ];
    solved r
  in
  let run =
    run_ab `Sat ~title:"Solver known answers (default CDCL)"
      [ variant "default" journaled ]
  in
  record_ab "sat" run ~ok:run.outcomes_ok []

(* ---- mutation campaign ---- *)

(* The generated-faults counterpart of Table 1 (EXPERIMENTS.md E7): instead
   of the 16 hand-written registry bugs, a seeded sample of semantic
   mutations on each memctrl configuration, screened for equivalence and
   then run through the FC/RB/SAC flow with first-detection accounting.
   The floors asserted here (exit 1 below them) are the campaign's tracked
   acceptance: the screen must discard >= 10% of raw mutants without any
   BMC, at least 50 screened-in mutants must reach the checks, and the
   flow must kill >= 80% of them. Survivors are verification gaps; each is
   listed with its mutation site in mutation_survivors.txt. *)
let mutate_seed = 1
let mutate_limit = 30 (* per configuration *)

let mutate_target cfg =
  {
    Mutate.target_name = "memctrl-" ^ M.config_name cfg;
    build = (fun () -> M.build cfg ());
    build_rb = (fun () -> M.build ~assume_enabled:true cfg ());
    tau = M.tau cfg;
    spec = Some (M.spec_rtl cfg);
    shared = None;
  }

let json_of_campaign (c : Mutate.campaign) =
  Obj
    [
      ("target", Str c.Mutate.campaign_target);
      ("seed", Int c.Mutate.seed);
      ("raw", Int c.Mutate.raw);
      ("screened_hash", Int (Mutate.screened_hash c));
      ("screened_miter", Int (Mutate.screened_miter c));
      ("killed", Int (List.length (Mutate.killed c)));
      ("survived", Int (List.length (Mutate.survivors c)));
      ("score", Float (Mutate.score c));
      ("wall_s", Float c.Mutate.campaign_wall);
      ( "per_check_kills",
        Obj
          (List.map
             (fun (check, n) -> (check, Int n))
             (Mutate.per_check_kills c)) );
      ( "kill_depth_histogram",
        List
          (List.map
             (fun (d, n) -> Obj [ ("depth", Int d); ("kills", Int n) ])
             (Mutate.kill_depth_histogram c)) );
      ( "per_op",
        List
          (List.map
             (fun (op, checked, killed, screened) ->
               Obj
                 [
                   ("op", Str (Mutate.op_name op));
                   ("checked", Int checked);
                   ("killed", Int killed);
                   ("screened", Int screened);
                   ( "detection_rate",
                     Float
                       (if checked = 0 then 1.
                        else float_of_int killed /. float_of_int checked) );
                 ])
             (Mutate.per_op_stats c)) );
      ( "survivors",
        List
          (List.map
             (fun (o : Mutate.outcome) ->
               Obj
                 [
                   ("id", Str (Mutate.mutation_id o.Mutate.mutation));
                   ("site", Str (Mutate.site o.Mutate.mutation));
                 ])
             (Mutate.survivors c)) );
    ]

let print_mutate ~jobs () =
  pf "\n== Mutation fault-injection campaign (memctrl, seed %d) ==\n"
    mutate_seed;
  let campaigns =
    List.map
      (fun cfg ->
        let c =
          Mutate.run ~seed:mutate_seed ~limit:mutate_limit ~jobs
            (mutate_target cfg)
        in
        journal_add
          (List.map
             (fun m -> Report.Journal.Mutant m)
             (Report.Journal.of_campaign ~design:c.Mutate.campaign_target c));
        pf "%s\n" (Format.asprintf "%a" Mutate.pp_campaign c);
        c)
      [ M.Fifo_mode; M.Double_buffer; M.Line_buffer ]
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 campaigns in
  let raw = sum (fun c -> c.Mutate.raw) in
  let screened = sum (fun c -> List.length (Mutate.screened c)) in
  let killed = sum (fun c -> List.length (Mutate.killed c)) in
  let survived = sum (fun c -> List.length (Mutate.survivors c)) in
  let checked = killed + survived in
  let score =
    if checked = 0 then 1. else float_of_int killed /. float_of_int checked
  in
  let screen_frac =
    if raw = 0 then 0. else float_of_int screened /. float_of_int raw
  in
  pf "%s\n" (line 72);
  pf "overall: %d raw, %d screened out (%.0f%%), %d checked, %d killed, \
      %d surviving — score %.1f%%\n"
    raw screened (100. *. screen_frac) checked killed survived
    (100. *. score);
  (* The survivors report CI uploads as an artifact next to the JSON. *)
  let oc = open_out "mutation_survivors.txt" in
  Printf.fprintf oc
    "# mutation survivors (seed %d, limit %d/config) — verification gaps\n"
    mutate_seed mutate_limit;
  List.iter
    (fun (c : Mutate.campaign) ->
      List.iter
        (fun (o : Mutate.outcome) ->
          Printf.fprintf oc "%s: %s\n" c.Mutate.campaign_target
            (Mutate.site o.Mutate.mutation))
        (Mutate.survivors c))
    campaigns;
  close_out oc;
  pf "wrote mutation_survivors.txt (%d survivors)\n" survived;
  let floors_ok = score >= 0.8 && screen_frac >= 0.1 && checked >= 50 in
  if not floors_ok then begin
    bench_failed := true;
    pf "FAILURE: campaign below tracked floors (score >= 80%%, screen \
        >= 10%%, checked >= 50)\n"
  end;
  record "mutate"
    (Obj
       [
         ("seed", Int mutate_seed);
         ("limit_per_config", Int mutate_limit);
         ("raw", Int raw);
         ("screened", Int screened);
         ("screen_frac", Float screen_frac);
         ("checked", Int checked);
         ("killed", Int killed);
         ("survived", Int survived);
         ("score", Float score);
         ("floors_ok", Bool floors_ok);
         ("campaigns", List (List.map json_of_campaign campaigns));
       ])

(* ---- kernels (Bechamel) ---- *)

let bechamel_tests () =
  let open Bechamel in
  let sat_small () =
    let s = Sat.Solver.create () in
    for _ = 1 to 60 do ignore (Sat.Solver.new_var s) done;
    let rng = Testbench.Prng.create 7 in
    for _ = 1 to 250 do
      Sat.Solver.add_clause s
        (List.init 3 (fun _ ->
             let v = 1 + Testbench.Prng.below rng 60 in
             if Testbench.Prng.bool rng then v else -v))
    done;
    ignore (Sat.Solver.solve s)
  in
  let bmc_counter () =
    let c = Rtl.Ir.create "bench_counter" in
    let en = Rtl.Ir.input c "en" 1 in
    let cnt =
      Rtl.Ir.reg_fb c "cnt" ~init:(Bitvec.zero 8) (fun r ->
          Rtl.Ir.mux en (Rtl.Ir.add r (Rtl.Ir.constant c ~width:8 1)) r)
    in
    let prop = Rtl.Ir.ne cnt (Rtl.Ir.constant c ~width:8 9) in
    ignore (Bmc.Engine.check ~max_depth:12 c ~prop)
  in
  let sim_fifo () =
    let iface = M.build M.Fifo_mode () in
    let h = Aqed.Harness.create iface in
    Rtl.Sim.set_input_int (Aqed.Harness.sim h) "clock_enable" 1;
    ignore
      (Aqed.Harness.run ~max_cycles:400 h
         (List.init 32 (fun i -> Aqed.Harness.txn (i land 15))))
  in
  let fc_monitor_build () =
    let iface = M.build M.Fifo_mode () in
    ignore (Aqed.Fc_monitor.add ~cnt_width:5 iface)
  in
  [
    Test.make ~name:"sat random 3-sat 60v 250c" (Staged.stage sat_small);
    Test.make ~name:"bmc counter depth 12" (Staged.stage bmc_counter);
    Test.make ~name:"sim fifo 32 txns" (Staged.stage sim_fifo);
    Test.make ~name:"aqed FC wrapper generation" (Staged.stage fc_monitor_build);
  ]

let print_kernels () =
  let open Bechamel in
  pf "\n== Kernel micro-benchmarks (Bechamel) ==\n";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false () in
  let instance = Toolkit.Instance.monotonic_clock in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            pf "%-36s %12.0f ns/run\n" name est;
            estimates := (name, Float est) :: !estimates
          | Some _ | None -> pf "%-36s (no estimate)\n" name)
        ols)
    (bechamel_tests ());
  record "kernels_ns_per_run" (Obj (List.rev !estimates))

(* ---- ablations ---- *)

let print_ablations () =
  pf "\n== Ablations ==\n";
  pf "\n[A1] conventional flow vs corner bugs, with and without pause stress:\n";
  List.iter
    (fun bug ->
      let run pause_stress =
        let tests =
          C.standard_suite ~has_clock_enable:true ~pause_stress
            ~data_width:(M.data_width M.Fifo_mode) ()
        in
        C.campaign
          ~build:(fun () -> M.build ~bug M.Fifo_mode ())
          ~golden:(M.golden M.Fifo_mode) tests
      in
      let plain = run false and stressed = run true in
      pf "  %-22s app-style: %-9s pause-stress: %s\n" (M.bug_name bug)
        (match plain.C.detected with Some _ -> "DETECTED" | None -> "missed")
        (match stressed.C.detected with Some _ -> "DETECTED" | None -> "missed"))
    M.corner_case_bugs;
  pf "  (the Fig. 5 gap is a stimulus gap, not a scoreboard gap)\n";

  pf "\n[A2] FC-monitor counter width vs runtime (fifo_oversize_ready):\n";
  List.iter
    (fun w ->
      let r =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_fc ~max_depth:12 ~cnt_width:w
             (fun () -> M.build ~bug:M.Fifo_oversize_ready M.Fifo_mode ()))
      in
      pf "  cnt_width=%-2d  %-24s %.3fs (aig nodes %d)\n" w
        (match r.Aqed.Check.verdict with
         | Aqed.Check.Bug t ->
           Printf.sprintf "bug at depth %d" (Bmc.Trace.length t)
         | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean to %d" k)
        r.Aqed.Check.wall_time r.Aqed.Check.aig_nodes)
    [ 4; 6; 8; 10 ];

  pf "\n[A4] the shared-key customization (Sec. IV.B), on the CORRECT AES:\n";
  let with_shared =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 ~shared:Accel.Aes.shared_key
         (fun () -> Accel.Aes.build ()))
  in
  let without =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> Accel.Aes.build ()))
  in
  let show name (r : Aqed.Check.report) =
    pf "  %-14s %-40s %.3fs\n" name
      (match r.Aqed.Check.verdict with
       | Aqed.Check.Bug t ->
         Printf.sprintf "SPURIOUS bug at depth %d (false positive)"
           (Bmc.Trace.length t)
       | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean to %d" k)
      r.Aqed.Check.wall_time
  in
  show "shared key" with_shared;
  show "free key" without;
  pf "  (without the customization the duplicate may carry a different key:\n";
  pf "   equal blocks then legitimately encrypt differently, and the naive\n";
  pf "   check reports a counterexample on a correct design — Sec. IV.B's\n";
  pf "   batch customization is a soundness requirement, not a tweak)\n";

  pf "\n[A5] batch-aware vs scalar FC monitor on the 2-lane SIMD design:\n";
  let batch =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:12 ~lanes:Accel.Simd.lanes
         (fun () -> Accel.Simd.build ~bug:true ()))
  in
  let scalar =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14
         (fun () -> Accel.Simd.build ~bug:true ()))
  in
  let show name (r : Aqed.Check.report) =
    pf "  %-14s %-34s %.3fs\n" name
      (match r.Aqed.Check.verdict with
       | Aqed.Check.Bug t ->
         Printf.sprintf "bug at depth %d" (Bmc.Trace.length t)
       | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean to %d" k)
      r.Aqed.Check.wall_time
  in
  show "batch (2 lanes)" batch;
  show "scalar" scalar;
  pf "  (same-batch duplicates shorten the counterexample — Sec. IV.B)\n";

  pf "\n[A6] post-silicon QED (future-work direction 5) on the GSM kernel:\n";
  let ps bug =
    let build () =
      if bug then
        Hls.Codegen.to_rtl ~bug:(Hls.Codegen.Stale_operand "x") Accel.Gsm.program
      else Hls.Codegen.to_rtl Accel.Gsm.program
    in
    Aqed.Post_silicon.run ~seed:11 ~transactions:400
      ~backpressure_probability:0.3 build
  in
  let clean = ps false and buggy = ps true in
  pf "  clean design : %d txns, %d duplicates checked, %s\n"
    clean.Aqed.Post_silicon.transactions
    clean.Aqed.Post_silicon.duplicates_checked
    (match clean.Aqed.Post_silicon.mismatch with
     | None -> "no mismatch"
     | Some _ -> "FALSE POSITIVE");
  pf "  buggy design : %s\n"
    (match buggy.Aqed.Post_silicon.mismatch with
     | Some m ->
       Printf.sprintf "FC mismatch on operand %d at transaction %d (online, no golden model)"
         m.Aqed.Post_silicon.data m.Aqed.Post_silicon.at_transaction
     | None -> "missed (increase stress)");

  pf "\n[A7] sequential vs pipelined (II=1) HLS code generation, GSM kernel:\n";
  let fc_style name style =
    let r =
      Aqed.Check.run_obligation
        (Aqed.Check.prepare_fc ~max_depth:9
           (fun () -> Hls.Codegen.to_rtl ~style Accel.Gsm.program))
    in
    pf "  %-12s FC %-22s %.3fs (aig %d nodes)\n" name
      (match r.Aqed.Check.verdict with
       | Aqed.Check.Bug t -> Printf.sprintf "BUG at %d" (Bmc.Trace.length t)
       | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean to depth %d" k)
      r.Aqed.Check.wall_time r.Aqed.Check.aig_nodes
  in
  fc_style "sequential" Hls.Codegen.Sequential;
  fc_style "pipelined" Hls.Codegen.Pipelined;
  let throughput style =
    let h = Aqed.Harness.create (Hls.Codegen.to_rtl ~style Accel.Gsm.program) in
    let ins = List.init 16 (fun i -> (i * 37) land 0xff) in
    ignore (Aqed.Harness.run ~max_cycles:400 h
              (List.map (fun d -> Aqed.Harness.txn d) ins));
    Aqed.Harness.run_cycles h
  in
  pf "  throughput: 16 txns in %d cycles sequential, %d cycles pipelined\n"
    (throughput Hls.Codegen.Sequential) (throughput Hls.Codegen.Pipelined)

(* Every target, in `all` order. *)
let bench_targets ~jobs ~portfolio =
  [
    ("table1", print_table1);
    ("fig5", print_fig5);
    ("table2", print_table2 ~jobs ~portfolio);
    ("fig2", print_fig2);
    ("reduce", print_reduce);
    ("certify", print_certify);
    ("sat", print_sat);
    ("mutate", print_mutate ~jobs);
    ("ablate", print_ablations);
    ("kernels", print_kernels);
  ]

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let pos_int flag n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | Some _ | None ->
      failwith (Printf.sprintf "bench: %s expects a positive integer" flag)
  in
  let rec parse args jobs portfolio targets =
    match args with
    | [] -> (jobs, portfolio, List.rev targets)
    | "-j" :: n :: rest -> parse rest (pos_int "-j" n) portfolio targets
    | "-p" :: n :: rest -> parse rest jobs (pos_int "-p" n) targets
    | [ ("-j" | "-p") ] -> failwith "bench: -j/-p expect a positive integer"
    | t :: rest -> parse rest jobs portfolio (t :: targets)
  in
  let jobs, portfolio, targets = parse args 1 1 [] in
  let targets =
    if targets = [] then [ "table1"; "fig5"; "table2"; "fig2" ] else targets
  in
  let table = bench_targets ~jobs ~portfolio in
  let names = List.map fst table @ [ "all" ] in
  (match List.filter (fun t -> not (List.mem t names)) targets with
   | [] -> ()
   | unknown ->
     Printf.eprintf "bench: unknown target%s %s (try: %s)\n"
       (if List.length unknown > 1 then "s" else "")
       (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
       (String.concat " " names);
     exit 2);
  (* Every bench run journals: the sampler feeds per-obligation solver
     time-series into the records collected by journal_add. *)
  Telemetry.Series.configure ();
  journal_add
    [ Report.Journal.Meta
        {
          Report.Journal.created_s = Unix.gettimeofday ();
          command = "bench";
          design = String.concat "+" targets;
          git_rev = (match git_rev () with Some r -> r | None -> "");
          jobs;
          seed = mutate_seed;
          flags = args;
          (* The bench always runs the checks' defaults, so nightly
             journals carry a stable fingerprint and compares across
             nights stay like-for-like. *)
          fingerprint =
            Store.config_fingerprint ~reduce:true ~sweep:false
              ~certify:false
              ~solver_label:(Bmc.Engine.config_label
                               Bmc.Engine.default_config);
        } ];
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun t ->
      let t1 = Unix.gettimeofday () in
      List.iter
        (fun (name, run) -> if name = t || t = "all" then run ())
        table;
      record ("wall_s_" ^ t) (Float (Unix.gettimeofday () -. t1)))
    targets;
  let total = Unix.gettimeofday () -. t0 in
  pf "\ntotal bench time: %.1fs\n" total;
  write_json_results ~jobs ~portfolio ~total_wall:total;
  (* Write the run ledger next to the JSON, and archive a copy per run so
     nightly compares have a history to diff against. *)
  let records = List.rev !journal_records in
  Report.Journal.write "BENCH_journal.jsonl" records;
  (if not (Sys.file_exists "_bench_history") then
     try Unix.mkdir "_bench_history" 0o755 with Unix.Unix_error _ -> ());
  let archive =
    Printf.sprintf "_bench_history/%.0f-%s.jsonl" (Unix.gettimeofday ())
      (match git_rev () with Some r -> r | None -> "worktree")
  in
  Report.Journal.write archive records;
  pf "wrote BENCH_journal.jsonl (archived as %s)\n" archive;
  if !bench_failed then exit 1
