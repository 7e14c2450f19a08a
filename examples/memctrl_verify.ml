(* The memory-controller case study (paper Sec. V.A), end to end:

   1. verify the FIFO configuration clean with A-QED (FC + RB),
   2. inject the clock-enable corner bug and let A-QED find it,
   3. show the conventional simulation flow missing the same bug,
   4. replay A-QED's counterexample on the cycle-accurate simulator.

     dune exec examples/memctrl_verify.exe *)

module M = Accel.Memctrl
module C = Testbench.Conventional

let () = print_endline "=== memory-controller unit verification ==="

(* 1. The clean FIFO configuration. *)
let () =
  print_endline "\n-- clean FIFO configuration --";
  let fc =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> M.build M.Fifo_mode ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report fc;
  let rb =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:10 ~tau:(M.tau M.Fifo_mode)
         (fun () -> M.build ~assume_enabled:true M.Fifo_mode ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report rb

(* 2. The Fig. 2-class bug: clock_enable disconnected from the pop path. *)
let bug = M.Fifo_clock_gate

let aqed_report =
  print_endline "\n-- clock-gate corner bug, A-QED --";
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14
         (fun () -> M.build ~bug M.Fifo_mode ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report r;
  r

(* 3. The conventional flow: directed + constrained-random tests with
   application-style stimulus (no mid-stream pauses) miss it. *)
let () =
  print_endline "\n-- same bug, conventional flow --";
  let tests =
    C.standard_suite ~has_clock_enable:true
      ~data_width:(M.data_width M.Fifo_mode) ()
  in
  let r =
    C.campaign
      ~build:(fun () -> M.build ~bug M.Fifo_mode ())
      ~golden:(M.golden M.Fifo_mode) tests
  in
  (match r.C.detected with
   | Some d ->
     Printf.printf "  detected by %s at cycle %d (%s)\n" d.C.test_name
       d.C.cycle d.C.reason
   | None ->
     Printf.printf
       "  MISSED after %d tests / %d simulated cycles (%.2fs) — the \
        stimulus never pauses clock_enable at the critical moment\n"
       r.C.tests_run r.C.total_cycles r.C.wall_time)

(* 4. Replay the BMC counterexample for debugging. *)
let () =
  match aqed_report.Aqed.Check.verdict with
  | Aqed.Check.Bug trace ->
    print_endline "\n-- counterexample (ready for waveform debugging) --";
    Format.printf "%a@." Bmc.Trace.pp trace;
    let iface = M.build ~bug M.Fifo_mode () in
    let monitor = Aqed.Fc_monitor.add iface in
    let sim = Rtl.Sim.create iface.Aqed.Iface.circuit in
    Printf.printf "  simulator replay confirms the violation: %b\n"
      (Bmc.Trace.replay sim trace monitor.Aqed.Fc_monitor.prop);
    (* Dump a waveform for the trace. *)
    let sim2 = Rtl.Sim.create iface.Aqed.Iface.circuit in
    let oc = open_out "memctrl_cex.vcd" in
    let vcd =
      Rtl.Vcd.create oc sim2
        [ ("in_valid", iface.Aqed.Iface.in_valid);
          ("in_ready", iface.Aqed.Iface.in_ready);
          ("in_data", iface.Aqed.Iface.in_data);
          ("out_valid", iface.Aqed.Iface.out_valid);
          ("out_data", iface.Aqed.Iface.out_data);
          ("fc_prop", monitor.Aqed.Fc_monitor.prop) ]
    in
    List.iter
      (fun frame ->
        List.iter
          (fun (name, v) -> Rtl.Sim.set_input sim2 name v)
          frame.Bmc.Trace.inputs;
        Rtl.Vcd.sample vcd;
        Rtl.Sim.step sim2)
      trace.Bmc.Trace.frames;
    Rtl.Vcd.close vcd;
    close_out oc;
    print_endline "  waveform written to memctrl_cex.vcd"
  | Aqed.Check.No_bug_up_to _ ->
    print_endline "unexpected: A-QED did not find the injected bug"
