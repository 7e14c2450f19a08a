(* Tests for the multiple-input-batch support (Sec. IV.B): the SIMD design
   and the batch-aware FC monitor. *)

module Ir = Rtl.Ir
module S = Accel.Simd

let test_simd_sim () =
  let iface = S.build () in
  let h = Aqed.Harness.create iface in
  let pack a b = (b lsl S.lane_width) lor a in
  let ins = [ pack 1 2; pack 15 0; pack 7 7 ] in
  let outs = Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) ins) in
  Alcotest.(check (list int)) "both lanes computed"
    (List.map S.reference_batch ins) outs

let test_simd_bug_visible_in_sim () =
  (* The toggle makes lane 1 stale on the second transaction. *)
  let iface = S.build ~bug:true () in
  let h = Aqed.Harness.create iface in
  let pack a b = (b lsl S.lane_width) lor a in
  let ins = [ pack 1 2; pack 3 4 ] in
  let outs = Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) ins) in
  (match outs with
   | [ first; second ] ->
     Alcotest.(check int) "first batch correct" (S.reference_batch (pack 1 2)) first;
     Alcotest.(check bool) "second batch lane 1 stale" true
       (second <> S.reference_batch (pack 3 4));
     (* Lane 0 of the second batch is still correct. *)
     Alcotest.(check int) "second batch lane 0 ok" (S.reference 3)
       (second land ((1 lsl S.lane_width) - 1))
   | _ -> Alcotest.fail "expected two outputs")

let test_batch_monitor_finds_bug () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:12 ~lanes:S.lanes
         (fun () -> S.build ~bug:true ()))
  in
  Alcotest.(check bool) "batch FC bug found" true (Aqed.Check.found_bug r)

let test_batch_monitor_clean () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 ~lanes:S.lanes
         (fun () -> S.build ()))
  in
  Alcotest.(check bool) "clean SIMD passes" false (Aqed.Check.found_bug r)

let test_batch_beats_scalar_depth () =
  (* The same bug is found by the scalar monitor too (a whole batch value
     repeated across transactions), but the batch monitor can use a
     same-batch duplicate, so its counterexample is never longer. *)
  let batch =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14 ~lanes:S.lanes
         (fun () -> S.build ~bug:true ()))
  in
  let scalar =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:14 (fun () -> S.build ~bug:true ()))
  in
  match Aqed.Check.trace_length batch, Aqed.Check.trace_length scalar with
  | Some b, Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "batch cex (%d) <= scalar cex (%d)" b s)
      true (b <= s)
  | _ -> Alcotest.fail "both monitors should find the SIMD bug"

let test_batch_monitor_rejects_bad_lanes () =
  let iface = S.build () in
  Alcotest.(check bool) "lanes=3 rejected" true
    (match Aqed.Fc_monitor.add_batch ~lanes:3 iface with
     | _ -> false
     | exception Invalid_argument _ -> true);
  let iface2 = S.build () in
  Alcotest.(check bool) "lanes=16 (too wide) rejected" true
    (match Aqed.Fc_monitor.add_batch ~lanes:16 iface2 with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* Drive the batch monitor in simulation with a same-batch duplicate. *)
let test_batch_monitor_same_batch_semantics () =
  let iface = S.build ~bug:true () in
  let monitor = Aqed.Fc_monitor.add_batch ~cnt_width:4 ~lanes:2 iface in
  let sim = Rtl.Sim.create iface.Aqed.Iface.circuit in
  let bv w n = Bitvec.create ~width:w n in
  let feed ~valid ~data ~orig ~dup ~ol ~dl =
    Rtl.Sim.set_input sim "in_valid" (bv 1 (if valid then 1 else 0));
    Rtl.Sim.set_input sim "in_data" (bv 8 data);
    Rtl.Sim.set_input sim "out_ready" (bv 1 1);
    Rtl.Sim.set_input sim "aqed_orig_mark" (bv 1 (if orig then 1 else 0));
    Rtl.Sim.set_input sim "aqed_dup_mark" (bv 1 (if dup then 1 else 0));
    Rtl.Sim.set_input sim "aqed_orig_lane" (bv 1 ol);
    Rtl.Sim.set_input sim "aqed_dup_lane" (bv 1 dl);
    let ok = Rtl.Sim.peek_int sim monitor.Aqed.Fc_monitor.prop = 1 in
    let assumes = Rtl.Sim.assumes_hold sim in
    Rtl.Sim.step sim;
    (ok, assumes)
  in
  (* txn 1: arms the toggle (its output is taken at cycle 3). txn 2 enters
     at cycle 4 with lanes (5, 5); orig = lane 0, dup = lane 1 in the same
     batch. Lane 1 computes from the stale scratch, so the same-batch
     comparison at the output (cycle 7) must fail. *)
  (* Build thunks and run them in order (list literals evaluate their
     elements in unspecified order). *)
  let idle () = feed ~valid:false ~data:0 ~orig:false ~dup:false ~ol:0 ~dl:0 in
  let script =
    [
      (fun () -> feed ~valid:true ~data:0x21 ~orig:false ~dup:false ~ol:0 ~dl:0);
      idle; idle; idle;
      (fun () -> feed ~valid:true ~data:0x55 ~orig:true ~dup:true ~ol:0 ~dl:1);
      idle; idle; idle; idle;
    ]
  in
  let results = List.map (fun act -> act ()) script in
  Alcotest.(check bool) "assumptions respected" true
    (List.for_all (fun (_, a) -> a) results);
  Alcotest.(check bool) "same-batch violation flagged" true
    (List.exists (fun (ok, _) -> not ok) results)

let suite =
  ( "batch",
    [
      Alcotest.test_case "simd simulation" `Quick test_simd_sim;
      Alcotest.test_case "simd bug in simulation" `Quick test_simd_bug_visible_in_sim;
      Alcotest.test_case "batch monitor finds bug" `Slow test_batch_monitor_finds_bug;
      Alcotest.test_case "batch monitor clean" `Slow test_batch_monitor_clean;
      Alcotest.test_case "batch cex no longer than scalar" `Slow test_batch_beats_scalar_depth;
      Alcotest.test_case "bad lane counts rejected" `Quick test_batch_monitor_rejects_bad_lanes;
      Alcotest.test_case "same-batch duplicate semantics" `Quick test_batch_monitor_same_batch_semantics;
    ] )
