(* The CLI exit-code contract, driven through Cli.run ~argv (the same code
   path as bin/aqed_cli.exe, no fork):

     0  clean verdict / certified verdict / campaign with no survivors /
        a solved CNF (sat; with --certify, a certified answer)
     1  bug found (check, verify), survivors exist (mutate)
     2  usage or runtime error; certification divergence

   Pinned per subcommand (list, check, verify, mutate, report, sat) so a CI
   consumer can rely on the codes. *)

let run args = Cli.run ~argv:(Array.of_list ("aqed_cli" :: args)) ()

let check name expected args =
  Alcotest.(check int) name expected (run args)

let test_list () = check "list exits 0" 0 [ "list" ]

let test_check_clean () =
  check "clean check exits 0" 0
    [ "check"; "-d"; "memctrl-fifo"; "-c"; "fc"; "-k"; "6" ]

let test_check_bug () =
  check "bug found exits 1" 1
    [ "check"; "-d"; "memctrl-fifo"; "-b"; "fifo_oversize_ready"; "-c"; "fc";
      "-k"; "12" ]

let test_check_bug_certified () =
  (* With --certify the exit code reports certification, not the verdict:
     a replay-confirmed bug is a success. *)
  check "certified bug exits 0" 0
    [ "check"; "-d"; "memctrl-fifo"; "-b"; "fifo_oversize_ready"; "-c"; "fc";
      "-k"; "12"; "--certify" ]

let test_check_unknown_design () =
  check "unknown design exits 2" 2 [ "check"; "-d"; "nosuch"; "-c"; "fc" ]

let test_check_unknown_check () =
  check "unknown check exits 2" 2
    [ "check"; "-d"; "memctrl-fifo"; "-c"; "xyz" ]

let test_check_unknown_bug () =
  check "unknown bug exits 2" 2
    [ "check"; "-d"; "memctrl-fifo"; "-b"; "nosuch"; "-c"; "fc"; "-k"; "4" ]

let test_verify_clean () =
  check "clean verify exits 0" 0 [ "verify"; "-d"; "fig2"; "-k"; "6" ]

let test_verify_bug () =
  check "verify with bug exits 1" 1
    [ "verify"; "-d"; "memctrl-fifo"; "-b"; "fifo_oversize_ready"; "-k"; "12" ]

let test_mutate_all_killed () =
  (* The CI smoke gate's configuration: seed 4's 12-mutant FIFO sample is
     fully killed, so the campaign exits 0. *)
  check "mutate with full kill exits 0" 0
    [ "mutate"; "-d"; "memctrl-fifo"; "--limit"; "12"; "--seed"; "4"; "-k";
      "12" ]

let test_mutate_survivors () =
  (* At depth 1 no counterexample fits, so every screened-in mutant
     survives: the survivors exit code. *)
  check "mutate with survivors exits 1" 1
    [ "mutate"; "-d"; "memctrl-fifo"; "--limit"; "6"; "--seed"; "4"; "-k";
      "1" ]

let test_mutate_unknown_op () =
  check "unknown operator exits 2" 2
    [ "mutate"; "-d"; "memctrl-fifo"; "--ops"; "frobnicate" ]

(* ---- the run ledger and the report command ---- *)

let with_temp f =
  let path = Filename.temp_file "aqed_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_check_journal () =
  with_temp (fun path ->
      Sys.remove path;
      let args =
        [ "check"; "-d"; "memctrl-fifo"; "-c"; "fc"; "-k"; "6"; "--journal";
          path ]
      in
      check "journalled check exits 0" 0 args;
      let j = Report.Journal.load path in
      Alcotest.(check int) "one meta line" 1
        (List.length j.Report.Journal.meta);
      Alcotest.(check int) "one obligation" 1
        (List.length j.Report.Journal.obligations);
      let m = List.hd j.Report.Journal.meta in
      Alcotest.(check string) "command" "check" m.Report.Journal.command;
      Alcotest.(check bool) "flags recorded" true
        (List.mem "--journal" m.Report.Journal.flags);
      let o = List.hd j.Report.Journal.obligations in
      Alcotest.(check string) "verdict" "clean" o.Report.Journal.ob_verdict;
      Alcotest.(check int) "depth" 6 o.Report.Journal.ob_depth;
      Alcotest.(check bool) "structural key recorded" true
        (String.length o.Report.Journal.ob_key > 0);
      Alcotest.(check bool) "winner recorded" true
        (o.Report.Journal.ob_winner <> "");
      Alcotest.(check bool) "solver stats attached" true
        (o.Report.Journal.ob_solver <> None);
      (* A second run appends; the ledger is append-only. *)
      check "re-run appends" 0 args;
      let j2 = Report.Journal.load path in
      Alcotest.(check int) "two obligations after re-run" 2
        (List.length j2.Report.Journal.obligations))

let test_report_render () =
  with_temp (fun path ->
      Sys.remove path;
      check "journalled check" 0
        [ "check"; "-d"; "memctrl-fifo"; "-c"; "fc"; "-k"; "6"; "--journal";
          path ];
      check "summary exits 0" 0 [ "report"; path ];
      with_temp (fun out ->
          check "render exits 0" 0 [ "report"; path; "-o"; out ];
          let ic = open_in_bin out in
          let html =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Alcotest.(check bool) "html document" true
            (String.length html > 15
             && String.sub html 0 15 = "<!DOCTYPE html>")))

let test_report_compare_exit_codes () =
  (* Synthetic journal pairs pin the 0/1/2 contract end to end through the
     CLI: clean, soft time regression, hard verdict divergence. *)
  let ob verdict wall =
    {
      Report.Journal.ob_design = "d"; ob_name = "FC"; ob_check = "FC";
      ob_key = "k0"; ob_verdict = verdict; ob_depth = 8;
      ob_certificate = "none"; ob_winner = "luby:rb100:seed0";
      ob_cached = false; ob_wall_s = wall; ob_frames = 8; ob_aig_nodes = 10;
      ob_aig_nodes_raw = 10; ob_reduce = None; ob_solver = None;
      ob_series = [];
    }
  in
  let write path o =
    Report.Journal.write path [ Report.Journal.Obligation o ]
  in
  with_temp (fun a ->
      with_temp (fun b ->
          write a (ob "clean" 0.1);
          write b (ob "clean" 0.1);
          check "identical journals exit 0" 0
            [ "report"; "--compare"; a; b ];
          write b (ob "clean" 0.35);
          check "time regression exits 1" 1 [ "report"; "--compare"; a; b ];
          check "raised threshold exits 0" 0
            [ "report"; "--compare"; "--time-factor"; "4.0"; a; b ];
          write b (ob "bug" 0.1);
          check "verdict divergence exits 2" 2
            [ "report"; "--compare"; a; b ];
          check "wrong arity exits 2" 2 [ "report"; "--compare"; a ]))

(* ---- the DIMACS front end ---- *)

let with_cnf text f =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let test_sat_unsat_certified () =
  with_cnf "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n" (fun path ->
      check "RUP-checked UNSAT exits 0" 0 [ "sat"; "--certify"; path ])

let test_sat_sat_certified () =
  with_cnf "p cnf 2 2\n1 2 0\n-1 0\n" (fun path ->
      check "model-checked SAT exits 0" 0 [ "sat"; "--certify"; path ])

let test_sat_malformed () =
  with_cnf "p cnf two 2\n1 2 0\n-1 0\n" (fun path ->
      check "malformed problem line exits 2" 2 [ "sat"; path ])

let test_sat_directory () =
  (* An unreadable input is a runtime error (exit 2), not an uncaught
     Sys_error: the directory holding a fresh temp file is always there. *)
  with_temp (fun path ->
      check "directory input exits 2" 2 [ "sat"; Filename.dirname path ])

let test_wrap_certification_failure () =
  (* A certification divergence anywhere under a command maps to exit 2 —
     pinned on wrap directly, since producing a real solver/checker
     divergence would require a broken engine. *)
  Alcotest.(check int) "Certification_failed maps to 2" 2
    (Cli.wrap (fun () ->
         raise (Bmc.Engine.Certification_failed "synthetic divergence")));
  Alcotest.(check int) "Failure maps to 2" 2
    (Cli.wrap (fun () -> failwith "synthetic error"));
  Alcotest.(check int) "success passes through" 0 (Cli.wrap (fun () -> 0))

let suite =
  ( "cli",
    [
      Alcotest.test_case "list" `Quick test_list;
      Alcotest.test_case "check clean = 0" `Slow test_check_clean;
      Alcotest.test_case "check bug = 1" `Slow test_check_bug;
      Alcotest.test_case "check bug --certify = 0" `Slow
        test_check_bug_certified;
      Alcotest.test_case "check unknown design = 2" `Quick
        test_check_unknown_design;
      Alcotest.test_case "check unknown check = 2" `Quick
        test_check_unknown_check;
      Alcotest.test_case "check unknown bug = 2" `Quick test_check_unknown_bug;
      Alcotest.test_case "verify clean = 0" `Slow test_verify_clean;
      Alcotest.test_case "verify bug = 1" `Slow test_verify_bug;
      Alcotest.test_case "mutate full kill = 0" `Slow test_mutate_all_killed;
      Alcotest.test_case "mutate survivors = 1" `Slow test_mutate_survivors;
      Alcotest.test_case "mutate unknown op = 2" `Quick test_mutate_unknown_op;
      Alcotest.test_case "check --journal writes the ledger" `Slow
        test_check_journal;
      Alcotest.test_case "report renders journals" `Slow test_report_render;
      Alcotest.test_case "report --compare exit codes" `Quick
        test_report_compare_exit_codes;
      Alcotest.test_case "sat unsat --certify = 0" `Quick
        test_sat_unsat_certified;
      Alcotest.test_case "sat sat --certify = 0" `Quick test_sat_sat_certified;
      Alcotest.test_case "sat malformed = 2" `Quick test_sat_malformed;
      Alcotest.test_case "sat directory = 2" `Quick test_sat_directory;
      Alcotest.test_case "wrap exit mapping" `Quick
        test_wrap_certification_failure;
    ] )
