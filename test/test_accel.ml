(* Tests for the accelerator designs: simulation against golden models, and
   A-QED verdicts (bugs found by the expected check, clean designs clean). *)

module M = Accel.Memctrl

let run_design ?(extra = []) iface txns =
  let h = Aqed.Harness.create iface in
  List.iter
    (fun (name, v) -> Rtl.Sim.set_input_int (Aqed.Harness.sim h) name v)
    extra;
  Aqed.Harness.run ~max_cycles:600 h (List.map (fun d -> Aqed.Harness.txn d) txns)

(* ---- simulation vs golden ---- *)

let test_fig2_sim () =
  let iface = Accel.Fig2.build () in
  (* 3-bit operands *)
  let ins = [ 1; 2; 3; 4; 5; 6; 7; 2 ] in
  let outs = run_design ~extra:[ ("clock_enable", 1) ] iface ins in
  Alcotest.(check (list int)) "fig2 outputs" (List.map Accel.Fig2.f ins) outs

let test_memctrl_sims () =
  List.iter
    (fun cfg ->
      let ins =
        match cfg with
        | M.Line_buffer -> [ 0o123; 0o456; 0o707 ]  (* packed 3x3-bit pixels *)
        | M.Fifo_mode | M.Double_buffer | M.Accumulator -> [ 1; 5; 9; 12; 3; 7 ]
      in
      let iface = M.build cfg () in
      let outs = run_design ~extra:[ ("clock_enable", 1) ] iface ins in
      Alcotest.(check (list int))
        (M.config_name cfg ^ " matches golden")
        (M.golden cfg ins) outs)
    [ M.Fifo_mode; M.Double_buffer; M.Line_buffer; M.Accumulator ]

let test_memctrl_pause_safe () =
  (* Pausing the bug-free FIFO must not corrupt the stream. *)
  let iface = M.build M.Fifo_mode () in
  let h = Aqed.Harness.create iface in
  let sim = Aqed.Harness.sim h in
  Rtl.Sim.set_input_int sim "clock_enable" 1;
  (* Manually interleave a pause: drive two inputs, pause two cycles,
     then finish via the harness. *)
  Rtl.Sim.set_input_int sim "in_valid" 1;
  Rtl.Sim.set_input_int sim "in_data" 9;
  Rtl.Sim.set_input_int sim "out_ready" 0;
  Rtl.Sim.step sim;
  Rtl.Sim.set_input_int sim "clock_enable" 0;
  Rtl.Sim.step sim;
  Rtl.Sim.step sim;
  Rtl.Sim.set_input_int sim "clock_enable" 1;
  Rtl.Sim.set_input_int sim "in_valid" 0;
  Rtl.Sim.set_input_int sim "out_ready" 1;
  let seen = ref [] in
  for _ = 1 to 8 do
    if
      Rtl.Sim.peek_int sim iface.Aqed.Iface.out_valid = 1
    then seen := Rtl.Sim.peek_int sim iface.Aqed.Iface.out_data :: !seen;
    Rtl.Sim.step sim
  done;
  Alcotest.(check (list int)) "element preserved across pause" [ 9 ] !seen

let test_dataflow_sim () =
  let iface = Accel.Dataflow.build () in
  let ins = [ 3; 0; 7; 120; 55 ] in
  let outs = run_design iface ins in
  Alcotest.(check (list int)) "dataflow doubles"
    (List.map Accel.Dataflow.reference ins) outs

let test_optflow_sim () =
  let iface = Accel.Optflow.build () in
  let pack p0 p1 p2 = p0 lor (p1 lsl 4) lor (p2 lsl 8) in
  let ins = [ pack 3 0 9; pack 15 2 1; pack 7 7 7 ] in
  let outs = run_design iface ins in
  Alcotest.(check (list int)) "gradients"
    (List.map Accel.Optflow.reference ins) outs

let test_dualpath_sim () =
  let iface = Accel.Dualpath.build () in
  let ins = [ 0; 1; 2; 1000; 65535; 21845 ] in
  let outs = run_design iface ins in
  Alcotest.(check (list int)) "dualpath 3x+1"
    (List.map Accel.Dualpath.reference ins) outs

let test_gsm_sim () =
  let iface = Accel.Gsm.build () in
  let ins = [ 0; 100; 207; 255; 123 ] in
  let outs = run_design iface ins in
  Alcotest.(check (list int)) "gsm reference"
    (List.map Accel.Gsm.reference ins) outs

let test_aes_reference_sanity () =
  (* Different keys produce different ciphertexts; the S-box is bijective so
     distinct blocks stay distinct under one key. *)
  let c1 = Accel.Aes.reference ~block:0x1234 ~key:0x0000 in
  let c2 = Accel.Aes.reference ~block:0x1234 ~key:0xBEEF in
  Alcotest.(check bool) "key matters" true (c1 <> c2);
  let c3 = Accel.Aes.reference ~block:0x1235 ~key:0x0000 in
  Alcotest.(check bool) "block matters" true (c1 <> c3)

(* ---- A-QED verdicts ---- *)

let aqed_for_bug bug =
  let cfg = M.bug_config bug in
  let _, expect = M.bug_info bug in
  let build () = M.build ~bug cfg () in
  let build_enabled () = M.build ~bug ~assume_enabled:true cfg () in
  Aqed.Check.run_obligation
    (match expect with
     | "FC" -> Aqed.Check.prepare_fc ~max_depth:14 build
     | "RB" ->
       Aqed.Check.prepare_rb ~max_depth:16 ~tau:(M.tau cfg) build_enabled
     | "SAC" ->
       Aqed.Check.prepare_sac ~max_depth:10 ~spec:(M.spec_rtl cfg) build
     | other -> Alcotest.fail ("unknown check " ^ other))

let test_every_bug_detected () =
  List.iter
    (fun bug ->
      let r = aqed_for_bug bug in
      Alcotest.(check bool) (M.bug_name bug ^ " detected") true
        (Aqed.Check.found_bug r))
    M.all_bugs

let test_clean_configs_pass () =
  List.iter
    (fun cfg ->
      let fc =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_fc ~max_depth:8 (fun () -> M.build cfg ()))
      in
      Alcotest.(check bool) (M.config_name cfg ^ " FC clean") false
        (Aqed.Check.found_bug fc);
      let rb =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_rb ~max_depth:10 ~tau:(M.tau cfg)
             (fun () -> M.build ~assume_enabled:true cfg ()))
      in
      Alcotest.(check bool) (M.config_name cfg ^ " RB clean") false
        (Aqed.Check.found_bug rb))
    [ M.Fifo_mode; M.Line_buffer ]

let test_fig2_bug_fc () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:16
         (fun () -> Accel.Fig2.build ~bug:true ()))
  in
  Alcotest.(check bool) "fig2 bug found" true (Aqed.Check.found_bug r);
  (* The counterexample must involve a clock_enable pause. *)
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t ->
    let pauses =
      List.exists
        (fun f ->
          match List.assoc_opt "clock_enable" f.Bmc.Trace.inputs with
          | Some v -> Bitvec.is_zero v
          | None -> false)
        t.Bmc.Trace.frames
    in
    Alcotest.(check bool) "trace pauses the design" true pauses
  | Aqed.Check.No_bug_up_to _ ->
    Alcotest.fail "expected bug"

let test_dataflow_rb_bug () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:16 ~tau:Accel.Dataflow.tau
         (fun () -> Accel.Dataflow.build ~bug:true ()))
  in
  Alcotest.(check bool) "dataflow RB bug" true (Aqed.Check.found_bug r);
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:10 ~tau:Accel.Dataflow.tau
         (fun () -> Accel.Dataflow.build ()))
  in
  Alcotest.(check bool) "dataflow clean" false (Aqed.Check.found_bug clean)

let test_optflow_rb_bug () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:14 ~tau:Accel.Optflow.tau
         (fun () -> Accel.Optflow.build ~bug:true ()))
  in
  Alcotest.(check bool) "optflow RB bug" true (Aqed.Check.found_bug r);
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:10 ~tau:Accel.Optflow.tau
         (fun () -> Accel.Optflow.build ()))
  in
  Alcotest.(check bool) "optflow clean" false (Aqed.Check.found_bug clean)

let test_gsm_fc_bug () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14
         (fun () -> Accel.Gsm.build ~bug:true ()))
  in
  Alcotest.(check bool) "gsm FC bug" true (Aqed.Check.found_bug r)

let test_aes_v3_bmc () =
  (* One buggy version through full BMC (the bench runs all four; v3 has
     the shallowest counterexample). *)
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14 ~shared:Accel.Aes.shared_key
         (fun () -> Accel.Aes.build ~version:3 ()))
  in
  Alcotest.(check bool) "aes v3 FC bug" true (Aqed.Check.found_bug r)

let test_aes_versions_misbehave_in_sim () =
  (* Each buggy version deviates from the reference under the right
     stimulus — cheap simulation-level evidence that the bugs are real
     (their BMC detection is exercised by the bench). *)
  let key = 0x3C in
  let run ?host_ready version blocks =
    let iface = Accel.Aes.build ~version () in
    let h = Aqed.Harness.create iface in
    Rtl.Sim.set_input_int (Aqed.Harness.sim h) "key" key;
    Aqed.Harness.run ?host_ready ~max_cycles:300 h
      (List.map (fun d -> Aqed.Harness.txn d) blocks)
  in
  let expected blocks = List.map (fun b -> Accel.Aes.reference ~block:b ~key) blocks in
  (* v1: stale operand after backpressure. *)
  let blocks = [ 0x11; 0x22; 0x33 ] in
  let outs1 = run ~host_ready:(fun cyc -> cyc mod 7 > 3) 1 blocks in
  Alcotest.(check bool) "v1 deviates under backpressure" true
    (outs1 <> expected blocks);
  (* v2: early valid lets an always-ready host grab a stale result. *)
  let outs2 = run 2 blocks in
  Alcotest.(check bool) "v2 deviates when host always ready" true
    (outs2 <> expected blocks);
  (* v4: the key register fails to reload after a backpressured output, so
     changing the key between transactions leaves the second one encrypted
     under the old key. *)
  let iface4 = Accel.Aes.build ~version:4 () in
  let h4 = Aqed.Harness.create iface4 in
  let sim4 = Aqed.Harness.sim h4 in
  Rtl.Sim.set_input_int sim4 "key" 0x11;
  let o1 =
    Aqed.Harness.run ~host_ready:(fun cyc -> cyc >= 5) ~max_cycles:60 h4
      [ Aqed.Harness.txn 0x42 ]
  in
  Alcotest.(check (list int)) "v4 first txn correct"
    [ Accel.Aes.reference ~block:0x42 ~key:0x11 ] o1;
  Rtl.Sim.set_input_int sim4 "key" 0x99;
  let o2 = Aqed.Harness.run ~max_cycles:60 h4 [ Aqed.Harness.txn 0x42 ] in
  Alcotest.(check (list int)) "v4 second txn uses the stale key"
    [ Accel.Aes.reference ~block:0x42 ~key:0x11 ] o2

let test_aes_clean () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:8 ~shared:Accel.Aes.shared_key
         (fun () -> Accel.Aes.build ()))
  in
  Alcotest.(check bool) "aes clean" false (Aqed.Check.found_bug r)

let test_dualpath_fc () =
  (* The stale-operand bug computes on the previous transaction's operand,
     so FC catches it; the self-check (shadow datapath) cannot. Run with
     sweeping on: the shadow cone must not change the verdict. *)
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:12 ~sweep:true
         (fun () -> Accel.Dualpath.build ~bug:true ()))
  in
  Alcotest.(check bool) "dualpath FC bug" true (Aqed.Check.found_bug r);
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:8 ~sweep:true
         (fun () -> Accel.Dualpath.build ()))
  in
  Alcotest.(check bool) "dualpath clean" false (Aqed.Check.found_bug clean)

(* FC, RB and SAC obligations for one memctrl configuration, in the flow's
   order; each check takes its own builder. *)
let flow ~max_depth cfg ~fc ~rb ~sac =
  [ Aqed.Check.prepare_fc ~max_depth fc;
    Aqed.Check.prepare_rb ~max_depth ~tau:(M.tau cfg) rb;
    Aqed.Check.prepare_sac ~max_depth ~spec:(M.spec_rtl cfg) sac ]

let test_verify_flow () =
  (* Check.verify chains FC -> RB -> SAC (Proposition 1's three premises). *)
  let build () = M.build ~assume_enabled:true M.Line_buffer () in
  let clean =
    Aqed.Check.verify
      (flow ~max_depth:8 M.Line_buffer ~fc:build ~rb:build ~sac:build)
  in
  Alcotest.(check int) "three reports on a clean design" 3 (List.length clean);
  Alcotest.(check (list string)) "order" [ "FC"; "RB"; "SAC" ]
    (List.map (fun r -> r.Aqed.Check.check) clean);
  Alcotest.(check bool) "all clean" true
    (List.for_all (fun r -> not (Aqed.Check.found_bug r)) clean);
  (* A buggy design stops the flow at the first detection. *)
  let build () = M.build ~bug:M.Lb_window_index M.Line_buffer () in
  let buggy =
    Aqed.Check.verify
      (flow ~max_depth:10 M.Line_buffer ~fc:build ~rb:build ~sac:build)
  in
  (match List.rev buggy with
   | last :: _ ->
     Alcotest.(check bool) "flow ends on the detection" true
       (Aqed.Check.found_bug last)
   | [] -> Alcotest.fail "no reports")

let test_verify_flow_rb_builder () =
  (* Table 1's flow: RB runs on the builder that assumes the clock enable,
     FC and SAC on the plain one. ctrl_turn_skip passes FC and fails RB, so
     the flow stops there and never builds the SAC instance. *)
  let bug = M.Ctrl_turn_skip in
  let sac_built = ref false in
  let reports =
    Aqed.Check.verify
      (flow ~max_depth:8 M.Fifo_mode
         ~fc:(fun () -> M.build ~bug M.Fifo_mode ())
         ~rb:(fun () -> M.build ~bug ~assume_enabled:true M.Fifo_mode ())
         ~sac:(fun () ->
           sac_built := true;
           M.build ~bug M.Fifo_mode ()))
  in
  let summary (r : Aqed.Check.report) =
    match r.Aqed.Check.verdict with
    | Aqed.Check.Bug t ->
      Printf.sprintf "%s bug@%d" r.Aqed.Check.check (Bmc.Trace.length t)
    | Aqed.Check.No_bug_up_to k ->
      Printf.sprintf "%s clean@%d" r.Aqed.Check.check k
  in
  Alcotest.(check (list string)) "FC clean, RB bug"
    [ "FC clean@8"; "RB bug@8" ] (List.map summary reports);
  Alcotest.(check bool) "SAC never ran" false !sac_built

let test_bug_registry_consistency () =
  Alcotest.(check int) "16 bugs" 16 (List.length M.all_bugs);
  List.iter
    (fun bug ->
      let _, check = M.bug_info bug in
      Alcotest.(check bool)
        (M.bug_name bug ^ " expected check valid")
        true
        (List.mem check [ "FC"; "RB"; "SAC" ]))
    M.all_bugs;
  Alcotest.check_raises "bug/config mismatch rejected"
    (Invalid_argument
       "Memctrl.build: bug db_swap_early belongs to configuration double_buffer")
    (fun () -> ignore (M.build ~bug:M.Db_swap_early M.Fifo_mode ()))

let suite =
  ( "accel",
    [
      Alcotest.test_case "fig2 simulation" `Quick test_fig2_sim;
      Alcotest.test_case "memctrl simulations" `Quick test_memctrl_sims;
      Alcotest.test_case "memctrl pause-safe" `Quick test_memctrl_pause_safe;
      Alcotest.test_case "dataflow simulation" `Quick test_dataflow_sim;
      Alcotest.test_case "optflow simulation" `Quick test_optflow_sim;
      Alcotest.test_case "dualpath simulation" `Quick test_dualpath_sim;
      Alcotest.test_case "gsm simulation" `Quick test_gsm_sim;
      Alcotest.test_case "aes reference sanity" `Quick test_aes_reference_sanity;
      Alcotest.test_case "bug registry consistent" `Quick test_bug_registry_consistency;
      Alcotest.test_case "verify flow (Prop. 1 chain)" `Slow test_verify_flow;
      Alcotest.test_case "all memctrl bugs detected" `Slow test_every_bug_detected;
      Alcotest.test_case "clean configs pass" `Slow test_clean_configs_pass;
      Alcotest.test_case "fig2 clock-enable bug" `Slow test_fig2_bug_fc;
      Alcotest.test_case "dataflow RB bug" `Slow test_dataflow_rb_bug;
      Alcotest.test_case "optflow RB bug" `Slow test_optflow_rb_bug;
      Alcotest.test_case "gsm FC bug" `Slow test_gsm_fc_bug;
      Alcotest.test_case "dualpath FC bug (sweep)" `Slow test_dualpath_fc;
      Alcotest.test_case "aes v3 FC bug (BMC)" `Slow test_aes_v3_bmc;
      Alcotest.test_case "aes v1/v2/v4 misbehave in sim" `Quick test_aes_versions_misbehave_in_sim;
      Alcotest.test_case "aes clean" `Slow test_aes_clean;
      Alcotest.test_case "verify flow stops at RB (own builder)" `Slow
        test_verify_flow_rb_builder;
    ] )
