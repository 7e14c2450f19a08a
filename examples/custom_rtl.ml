(* Bring-your-own-RTL: A-QED on a hand-written design (no HLS).

   We build a small "min/max sorter" accelerator directly in the RTL IR —
   each transaction takes two packed 4-bit operands and returns them in
   (min, max) order after a compare/swap cycle — expose the ready/valid
   handshake through Aqed.Iface, and run the specification-free checks.
   Then we break the swap path and watch FC produce a waveform-ready
   counterexample.

     dune exec examples/custom_rtl.exe *)

module Ir = Rtl.Ir

let build ?(bug = false) () =
  let c = Ir.create (if bug then "sorter_buggy" else "sorter") in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:8 ()
  in
  let a = Ir.select in_data ~hi:3 ~lo:0 in
  let b = Ir.select in_data ~hi:7 ~lo:4 in

  let busy = Ir.reg0 c "busy" 1 in
  let lo = Ir.reg0 c "lo" 4 in
  let hi = Ir.reg0 c "hi" 4 in
  let have = Ir.reg0 c "have" 1 in
  (* A leftover scratch register models the kind of state a hand-written
     datapath accumulates; the bug lets it leak into the result. *)
  let scratch = Ir.reg0 c "scratch" 4 in

  let in_ready = Ir.and_list c [ Ir.lognot busy; Ir.lognot have ] in
  let in_fire = Ir.logand in_valid in_ready in

  let a_le_b = Ir.ule a b in
  let min_v = Ir.mux a_le_b a b in
  let max_v =
    if bug then
      (* Swap path defect: when the operands arrive already sorted AND the
         scratch register is odd (hidden state from earlier transactions!),
         the max slot is loaded from scratch instead of b. *)
      Ir.mux (Ir.logand a_le_b (Ir.lsb scratch)) scratch (Ir.mux a_le_b b a)
    else Ir.mux a_le_b b a
  in
  Ir.connect c lo (Ir.mux in_fire min_v lo);
  Ir.connect c hi (Ir.mux in_fire max_v hi);
  Ir.connect c scratch (Ir.mux in_fire max_v scratch);
  Ir.connect c busy (Ir.mux in_fire (Ir.vdd c) (Ir.mux busy (Ir.gnd c) busy));

  let finishing = busy in
  let out_fire = Ir.logand have out_ready in
  Ir.connect c have
    (Ir.mux finishing (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));

  let out_data = Ir.concat hi lo in
  Ir.output c "in_ready" in_ready;
  Ir.output c "out_valid" have;
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid:have ~out_data
    ~out_ready ()

let reference packed =
  let a = packed land 0xf and b = (packed lsr 4) land 0xf in
  (max a b lsl 4) lor min a b

let () =
  print_endline "=== A-QED on hand-written RTL (sorter) ===";
  (* Simulation sanity. *)
  let h = Aqed.Harness.create (build ()) in
  let ins = [ 0x21; 0x7F; 0x3C ] in
  let outs = Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) ins) in
  List.iter2
    (fun i o ->
      Printf.printf "  sort(0x%02x) = 0x%02x (reference 0x%02x)\n" i o
        (reference i))
    ins outs;

  (* FC + RB, no spec. *)
  let fc =
    Aqed.Check.run_obligation (Aqed.Check.prepare_fc ~max_depth:10 build)
  in
  let rb =
    Aqed.Check.run_obligation (Aqed.Check.prepare_rb ~max_depth:10 ~tau:4 build)
  in
  Format.printf "  %a@.  %a@." Aqed.Check.pp_report fc Aqed.Check.pp_report rb;

  (* SAC closes the loop to total correctness (Prop. 1): the spec is the
     combinational sorter itself. *)
  let spec ad =
    let a = Ir.select ad ~hi:3 ~lo:0 and b = Ir.select ad ~hi:7 ~lo:4 in
    let le = Ir.ule a b in
    Ir.concat (Ir.mux le b a) (Ir.mux le a b)
  in
  let sac =
    Aqed.Check.run_obligation (Aqed.Check.prepare_sac ~max_depth:8 ~spec build)
  in
  Format.printf "  %a@." Aqed.Check.pp_report sac;

  (* The buggy build: hidden scratch state leaks into the max slot. *)
  print_endline "\n-- buggy swap path --";
  let fc_bug =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:12 (fun () -> build ~bug:true ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report fc_bug;
  match fc_bug.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> Format.printf "%a@." Bmc.Trace.pp_waveform t
  | Aqed.Check.No_bug_up_to _ -> ()
