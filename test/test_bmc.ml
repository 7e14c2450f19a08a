(* Tests for the bounded model checker: minimal counterexamples, replay,
   assumptions, certification. *)

module Ir = Rtl.Ir

let bv w n = Bitvec.create ~width:w n

let counter_circuit () =
  let c = Ir.create "counter" in
  let en = Ir.input c "en" 1 in
  let cnt =
    Ir.reg_fb c "cnt" ~init:(bv 4 0) (fun r ->
        Ir.mux en (Ir.add r (Ir.constant c ~width:4 1)) r)
  in
  (c, cnt)

let test_finds_minimal_cex () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 3) in
  let r = Bmc.Engine.check ~max_depth:16 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    (* Reaching 3 takes 3 enabled steps; minimal trace shows the violation
       in cycle 3, i.e. 4 frames. *)
    Alcotest.(check int) "minimal depth" 4 (Bmc.Trace.length t)
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

let test_replay_confirms () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 5) in
  let r = Bmc.Engine.check ~max_depth:16 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    let sim = Rtl.Sim.create c in
    Alcotest.(check bool) "replay violates" true (Bmc.Trace.replay sim t prop)
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

let test_bounded_ok () =
  let c, cnt = counter_circuit () in
  (* Unreachable within 5 cycles: cnt = 9. *)
  let prop = Ir.ne cnt (Ir.constant c ~width:4 9) in
  let r = Bmc.Engine.check ~max_depth:5 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Bounded_ok k -> Alcotest.(check int) "bound reported" 5 k
  | Bmc.Engine.Cex _ -> Alcotest.fail "expected clean"

let test_assumes_constrain () =
  let c, cnt = counter_circuit () in
  (* With en assumed low, the counter can never move. *)
  let en =
    match Ir.inputs c with
    | e :: _ -> e
    | [] -> assert false
  in
  Ir.assume c (Ir.lognot en);
  let prop = Ir.ne cnt (Ir.constant c ~width:4 1) in
  let r = Bmc.Engine.check ~max_depth:10 c ~prop in
  (match r.Bmc.Engine.outcome with
   | Bmc.Engine.Bounded_ok _ -> ()
   | Bmc.Engine.Cex _ ->
     Alcotest.fail "assumption should block the counterexample")

let test_trace_structure () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 2) in
  let r = Bmc.Engine.check ~max_depth:8 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    Alcotest.(check int) "frames" 3 (List.length t.Bmc.Trace.frames);
    (* en must be 1 in the first two frames to advance the counter. *)
    List.iteri
      (fun i f ->
        if i < 2 then
          match List.assoc_opt "en" f.Bmc.Trace.inputs with
          | Some v -> Alcotest.(check int) "en high" 1 (Bitvec.to_int v)
          | None -> Alcotest.fail "missing input in trace")
      t.Bmc.Trace.frames;
    (* Register values are reconstructed. *)
    (match t.Bmc.Trace.frames with
     | f0 :: _ ->
       Alcotest.(check (option int)) "initial reg value" (Some 0)
         (Option.map Bitvec.to_int (List.assoc_opt "cnt" f0.Bmc.Trace.regs))
     | [] -> Alcotest.fail "empty trace")
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

let test_waveform_render () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 2) in
  let r = Bmc.Engine.check ~max_depth:8 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    let text = Format.asprintf "%a" Bmc.Trace.pp_waveform t in
    let contains needle =
      let n = String.length needle and h = String.length text in
      let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "has ruler" true (contains "cycle");
    Alcotest.(check bool) "has en row" true (contains "en");
    Alcotest.(check bool) "has cnt row" true (contains "cnt");
    Alcotest.(check bool) "en pulses rendered" true (contains "#")
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

let test_width_check () =
  let c, cnt = counter_circuit () in
  Alcotest.check_raises "wide property rejected"
    (Invalid_argument "Bmc: property must be a 1-bit signal") (fun () ->
      ignore (Bmc.Engine.check ~max_depth:2 c ~prop:cnt))

let test_combinational_property () =
  (* A property over inputs only (no registers involved). *)
  let c = Ir.create "comb" in
  let a = Ir.input c "a" 4 in
  let prop = Ir.ule a (Ir.constant c ~width:4 14) in
  let r = Bmc.Engine.check ~max_depth:4 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    Alcotest.(check int) "found at depth 1" 1 (Bmc.Trace.length t);
    (match t.Bmc.Trace.frames with
     | [ f ] ->
       Alcotest.(check (option int)) "a = 15" (Some 15)
         (Option.map Bitvec.to_int (List.assoc_opt "a" f.Bmc.Trace.inputs))
     | _ -> Alcotest.fail "expected one frame")
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

(* ---- verdict certification ---- *)

let test_replay_result_cycles () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 3) in
  let frame en = { Bmc.Trace.inputs = [ ("en", bv 1 en) ]; regs = [] } in
  let trace n = { Bmc.Trace.property = "p"; frames = List.init n (fun _ -> frame 1) } in
  let sim = Rtl.Sim.create c in
  (* Three enabled steps reach 3; the violation is first seen in cycle 3. *)
  Alcotest.(check (option int)) "first violation cycle" (Some 3)
    (Bmc.Trace.replay_result sim (trace 6) prop);
  (* replay demands the violation on the final frame: a trace that keeps
     going past it no longer confirms the claimed depth... *)
  Alcotest.(check bool) "overlong trace rejected" false
    (Bmc.Trace.replay sim (trace 6) prop);
  (* ...while the exact-length trace does. *)
  Alcotest.(check bool) "exact trace confirmed" true
    (Bmc.Trace.replay sim (trace 4) prop);
  (* No violation at all. *)
  Alcotest.(check (option int)) "clean replay" None
    (Bmc.Trace.replay_result sim (trace 2) prop)

let test_wrong_trace_fails_replay () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 5) in
  let r = Bmc.Engine.check ~max_depth:16 c ~prop in
  match r.Bmc.Engine.outcome with
  | Bmc.Engine.Cex t ->
    (* Deliberately corrupt the counterexample: disable the very first
       enabled cycle. The counter then undershoots and the violation can no
       longer land on the final frame. *)
    let mutated =
      { t with
        Bmc.Trace.frames =
          (match t.Bmc.Trace.frames with
           | f :: rest ->
             { f with Bmc.Trace.inputs = [ ("en", bv 1 0) ] } :: rest
           | [] -> []) }
    in
    let sim = Rtl.Sim.create c in
    Alcotest.(check bool) "original replays" true (Bmc.Trace.replay sim t prop);
    Alcotest.(check bool) "mutated trace fails replay" false
      (Bmc.Trace.replay sim mutated prop)
  | Bmc.Engine.Bounded_ok _ ->
    Alcotest.fail "expected counterexample"

let test_certified_cex () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 3) in
  let r = Bmc.Engine.check ~max_depth:16 ~certify:true c ~prop in
  match (r.Bmc.Engine.outcome, r.Bmc.Engine.certificate) with
  | Bmc.Engine.Cex t, Bmc.Engine.Replayed cycle ->
    Alcotest.(check int) "violation on the final frame"
      (Bmc.Trace.length t - 1) cycle;
    Alcotest.(check int) "depth preserved by shrinking" 4 (Bmc.Trace.length t);
    (* The certified (shrunk, re-simulated) trace still replays on a fresh
       simulator. *)
    let sim = Rtl.Sim.create c in
    Alcotest.(check bool) "shrunk trace replays" true
      (Bmc.Trace.replay sim t prop)
  | Bmc.Engine.Cex _, cert ->
    Alcotest.fail
      (Format.asprintf "expected Replayed, got %a" Bmc.Engine.pp_certificate cert)
  | Bmc.Engine.Bounded_ok _, _ ->
    Alcotest.fail "expected counterexample"

let test_certified_clean () =
  let c, cnt = counter_circuit () in
  let prop = Ir.ne cnt (Ir.constant c ~width:4 9) in
  let r = Bmc.Engine.check ~max_depth:5 ~certify:true c ~prop in
  match (r.Bmc.Engine.outcome, r.Bmc.Engine.certificate) with
  | Bmc.Engine.Bounded_ok k, Bmc.Engine.Rup_certified k' ->
    Alcotest.(check int) "bound reported" 5 k;
    Alcotest.(check int) "every frame certified" 5 k'
  | _, cert ->
    Alcotest.fail
      (Format.asprintf "expected Rup_certified, got %a"
         Bmc.Engine.pp_certificate cert)

let test_certified_with_assumptions () =
  (* Assumptions reach both certification paths: the RUP side encodes them
     per frame, the replay side checks them cycle by cycle. *)
  let c, cnt = counter_circuit () in
  let en = match Ir.inputs c with e :: _ -> e | [] -> assert false in
  Ir.assume c (Ir.lognot en);
  let prop = Ir.ne cnt (Ir.constant c ~width:4 1) in
  let r = Bmc.Engine.check ~max_depth:6 ~certify:true c ~prop in
  match (r.Bmc.Engine.outcome, r.Bmc.Engine.certificate) with
  | Bmc.Engine.Bounded_ok _, Bmc.Engine.Rup_certified 6 -> ()
  | _, cert ->
    Alcotest.fail
      (Format.asprintf "expected Rup_certified 6, got %a"
         Bmc.Engine.pp_certificate cert)

(* Property: for random counter targets, BMC depth equals target + 1 (the
   shortest input sequence reaching the value, plus the violation frame). *)
let prop_minimal_depth =
  QCheck.Test.make ~name:"cex depth is minimal" ~count:12
    QCheck.(int_range 1 8) (fun target ->
      let c, cnt = counter_circuit () in
      let prop = Ir.ne cnt (Ir.constant c ~width:4 target) in
      let r = Bmc.Engine.check ~max_depth:12 c ~prop in
      match r.Bmc.Engine.outcome with
      | Bmc.Engine.Cex t -> Bmc.Trace.length t = target + 1
      | Bmc.Engine.Bounded_ok _ -> false)

let suite =
  ( "bmc",
    [
      Alcotest.test_case "finds minimal counterexample" `Quick test_finds_minimal_cex;
      Alcotest.test_case "replay confirms traces" `Quick test_replay_confirms;
      Alcotest.test_case "bounded clean" `Quick test_bounded_ok;
      Alcotest.test_case "assumptions constrain" `Quick test_assumes_constrain;
      Alcotest.test_case "trace structure" `Quick test_trace_structure;
      Alcotest.test_case "waveform rendering" `Quick test_waveform_render;
      Alcotest.test_case "property width checked" `Quick test_width_check;
      Alcotest.test_case "combinational property" `Quick test_combinational_property;
      Alcotest.test_case "replay_result cycle accounting" `Quick
        test_replay_result_cycles;
      Alcotest.test_case "mutated trace fails replay" `Quick
        test_wrong_trace_fails_replay;
      Alcotest.test_case "certified counterexample" `Quick test_certified_cex;
      Alcotest.test_case "certified clean bound" `Quick test_certified_clean;
      Alcotest.test_case "certified under assumptions" `Quick
        test_certified_with_assumptions;
      QCheck_alcotest.to_alcotest prop_minimal_depth;
    ] )
