(* Quickstart: verify your first accelerator with A-QED.

   We describe a small accelerator in the high-level language (HLC), let the
   HLS flow generate ready/valid RTL, and run the two specification-free
   A-QED checks — functional consistency (FC) and response bound (RB) — on
   both a correct and a buggy build.

     dune exec examples/quickstart.exe *)

let () = print_endline "=== A-QED quickstart ==="

(* 1. The accelerator: out = (x + y) ^ (x >> 1), on 8-bit operands. *)
let program =
  let open Hls.Ast in
  {
    name = "mixer";
    params = [ ("x", 8); ("y", 8) ];
    lets =
      [
        ("s", Bin (Add, Var "x", Var "y"));
        ("t", Bin (Xor, Var "s", Shr (Var "x", 1)));
      ];
    result = "t";
  }

(* 2. Sanity-check the design in simulation against the interpreter. *)
let () =
  let iface = Hls.Codegen.to_rtl program in
  let h = Aqed.Harness.create iface in
  let inputs = [ 0x0000; 0x1234; 0xBEEF ] in
  let outs =
    Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) inputs)
  in
  List.iter2
    (fun i o ->
      Printf.printf "  mixer(0x%04x) = 0x%02x (golden 0x%02x)\n" i o
        (Hls.Interp.run_packed program i))
    inputs outs

(* 3. A-QED on the correct design: both checks clean, no spec needed. *)
let () =
  print_endline "\n-- verifying the correct design --";
  let build () = Hls.Codegen.to_rtl program in
  let fc =
    Aqed.Check.run_obligation (Aqed.Check.prepare_fc ~max_depth:10 build)
  in
  Format.printf "  %a@." Aqed.Check.pp_report fc;
  let rb =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:10
         ~tau:(Hls.Codegen.recommended_tau program) build)
  in
  Format.printf "  %a@." Aqed.Check.pp_report rb

(* 4. Now a buggy build: the RTL reuses a stale operand after backpressure
   (a real HLS-era defect class). FC finds it with a short counterexample,
   still without any specification. *)
let () =
  print_endline "\n-- verifying a buggy build (stale operand) --";
  let build () =
    Hls.Codegen.to_rtl ~bug:(Hls.Codegen.Stale_operand "x") program
  in
  (* Three transactions (poison, victim, replay) plus a backpressure cycle
     fit in 14 frames. *)
  let fc =
    Aqed.Check.run_obligation (Aqed.Check.prepare_fc ~max_depth:14 build)
  in
  Format.printf "  %a@." Aqed.Check.pp_report fc;
  match fc.Aqed.Check.verdict with
  | Aqed.Check.Bug trace ->
    print_endline "  counterexample (replayable on the simulator):";
    Format.printf "%a@." Bmc.Trace.pp trace;
    (* Independent confirmation: replay the trace cycle by cycle. *)
    let iface = build () in
    let monitor = Aqed.Fc_monitor.add iface in
    let sim = Rtl.Sim.create iface.Aqed.Iface.circuit in
    Printf.printf "  replay confirms the violation: %b\n"
      (Bmc.Trace.replay sim trace monitor.Aqed.Fc_monitor.prop)
  | Aqed.Check.No_bug_up_to _ ->
    print_endline "  (unexpected: no bug found)"
