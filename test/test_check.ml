(* Tests for the Aqed.Check driver: report accessors, automatic counter
   sizing, certification and report formatting. *)

module Ir = Rtl.Ir

(* The echo design again (self-contained to keep suites independent). *)
let echo ?(twist = false) () =
  let c = Ir.create "echo_chk" in
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

let test_accessors () =
  let bug =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ~twist:true ()))
  in
  Alcotest.(check bool) "found_bug true" true (Aqed.Check.found_bug bug);
  (match Aqed.Check.trace_length bug with
   | Some n -> Alcotest.(check bool) "positive length" true (n > 0)
   | None -> Alcotest.fail "expected a trace");
  Alcotest.(check string) "check name" "FC" bug.Aqed.Check.check;
  Alcotest.(check bool) "frames counted" true (bug.Aqed.Check.bmc_frames > 0);
  Alcotest.(check bool) "aig measured" true (bug.Aqed.Check.aig_nodes > 0);
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () -> echo ()))
  in
  Alcotest.(check bool) "found_bug false" false (Aqed.Check.found_bug clean);
  Alcotest.(check (option int)) "no trace" None (Aqed.Check.trace_length clean)

let test_deep_bound_counters_safe () =
  (* At depth 20 the auto-sized monitor counters must not wrap (a wrap could
     alias stream positions and fabricate a violation on a clean design). *)
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:20 (fun () -> echo ()))
  in
  Alcotest.(check bool) "clean at depth 20" false (Aqed.Check.found_bug r)

let test_explicit_narrow_counter_rejected_semantics () =
  (* Forcing a 2-bit counter at depth 10 wraps; the check may then report
     nonsense — the API allows it (useful for the ablation) but the default
     must not. This test documents that the DEFAULT sizing is sound. *)
  let auto =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ()))
  in
  Alcotest.(check bool) "auto width sound" false (Aqed.Check.found_bug auto)

let test_pp_report () =
  let bug =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ~twist:true ()))
  in
  let text = Format.asprintf "%a" Aqed.Check.pp_report bug in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions FC" true (contains "FC");
  Alcotest.(check bool) "mentions BUG" true (contains "BUG");
  Alcotest.(check bool) "mentions counterexample" true (contains "counterexample")

let test_certified_reports () =
  (* ~certify:true must attach a certificate to both verdicts; the default
     path stays Uncertified. *)
  let bug =
    Aqed.Check.run_obligation ~certify:true
      (Aqed.Check.prepare_fc ~max_depth:10 (fun () -> echo ~twist:true ()))
  in
  (match bug.Aqed.Check.certificate with
   | Aqed.Check.Replayed c ->
     Alcotest.(check (option int)) "violation on the trace's final cycle"
       (Some (c + 1)) (Aqed.Check.trace_length bug)
   | _ -> Alcotest.fail "expected a Replayed certificate on the bug");
  let clean =
    Aqed.Check.run_obligation ~certify:true
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () -> echo ()))
  in
  (match clean.Aqed.Check.certificate with
   | Aqed.Check.Rup_certified 6 -> ()
   | _ -> Alcotest.fail "expected Rup_certified to depth 6 on the clean run");
  let plain =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () -> echo ()))
  in
  Alcotest.(check bool) "uncertified by default" true
    (plain.Aqed.Check.certificate = Aqed.Check.Uncertified)

let test_certified_memctrl_obligation () =
  (* The bundled memctrl bug obligation — the same one the CLI smoke test and
     [bench certify] exercise — certifies on both sides of the verdict. *)
  let module M = Accel.Memctrl in
  let bug_ob =
    Aqed.Check.prepare_fc ~name:"memctrl-fifo/FC" ~max_depth:12
      (fun () -> M.build ~bug:M.Fifo_oversize_ready M.Fifo_mode ())
  in
  let r = Aqed.Check.run_obligation ~certify:true bug_ob in
  Alcotest.(check bool) "bug found" true (Aqed.Check.found_bug r);
  (match r.Aqed.Check.certificate with
   | Aqed.Check.Replayed _ -> ()
   | _ -> Alcotest.fail "expected Replayed on the memctrl bug");
  let clean_ob =
    Aqed.Check.prepare_fc ~name:"memctrl-fifo/FC" ~max_depth:6
      (fun () -> M.build M.Fifo_mode ())
  in
  let rc = Aqed.Check.run_obligation ~certify:true clean_ob in
  Alcotest.(check bool) "clean" false (Aqed.Check.found_bug rc);
  match rc.Aqed.Check.certificate with
  | Aqed.Check.Rup_certified 6 -> ()
  | _ -> Alcotest.fail "expected Rup_certified on the clean memctrl run"

let test_rb_tau_validation () =
  Alcotest.(check bool) "tau >= 1 enforced" true
    (match
       Aqed.Check.run_obligation
         (Aqed.Check.prepare_rb ~max_depth:4 ~tau:0 (fun () -> echo ()))
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let suite =
  ( "check",
    [
      Alcotest.test_case "report accessors" `Quick test_accessors;
      Alcotest.test_case "deep bound counter sizing" `Slow test_deep_bound_counters_safe;
      Alcotest.test_case "default sizing sound" `Quick test_explicit_narrow_counter_rejected_semantics;
      Alcotest.test_case "report formatting" `Quick test_pp_report;
      Alcotest.test_case "rb tau validation" `Quick test_rb_tau_validation;
      Alcotest.test_case "certified reports" `Slow test_certified_reports;
      Alcotest.test_case "certified memctrl obligation" `Slow
        test_certified_memctrl_obligation;
    ] )
