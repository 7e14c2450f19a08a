(* Tests for the HLS flow: language checking, interpretation, scheduling,
   RTL code generation (validated against the interpreter through the
   simulator), and the bug knobs. *)

module Ast = Hls.Ast

let tiny =
  {
    Ast.name = "tiny";
    params = [ ("x", 4); ("y", 4) ];
    lets =
      [
        ("s", Ast.Bin (Ast.Add, Ast.Var "x", Ast.Var "y"));
        ("t", Ast.Bin (Ast.Xor, Ast.Var "s", Ast.Shr (Ast.Var "x", 1)));
      ];
    result = "t";
  }

let test_check_accepts () = Ast.check tiny

let expect_type_error f =
  match Ast.check f with
  | () -> Alcotest.fail "expected Type_error"
  | exception Ast.Type_error _ -> ()

let test_check_rejects () =
  expect_type_error { tiny with Ast.result = "nope" };
  expect_type_error
    { tiny with Ast.lets = [ ("s", Ast.Var "undefined") ] @ tiny.Ast.lets };
  expect_type_error
    { tiny with
      Ast.lets = [ ("w", Ast.Bin (Ast.Add, Ast.Var "x", Ast.Lit { value = 1; width = 8 })) ] };
  expect_type_error
    { tiny with Ast.params = [ ("x", 4); ("x", 4) ] };
  expect_type_error
    { tiny with
      Ast.lets = tiny.Ast.lets @ [ ("s", Ast.Var "x") ] (* duplicate *) };
  expect_type_error
    { tiny with
      Ast.lets = [ ("b", Ast.Slice { e = Ast.Var "x"; hi = 4; lo = 0 }) ];
      result = "b" };
  expect_type_error
    { tiny with
      Ast.lets =
        [ ("b", Ast.Table { index = Ast.Var "x"; values = [ 1; 2; 3 ]; width = 2 }) ];
      result = "b" }

let test_widths () =
  Alcotest.(check int) "result width" 4 (Ast.result_width tiny);
  Alcotest.(check int) "param width" 4 (Ast.param_width tiny "x");
  Alcotest.(check int) "total params" 8 (Ast.total_param_width tiny);
  Alcotest.(check int) "cmp width" 1
    (Ast.width_of tiny (Ast.Bin (Ast.Lt, Ast.Var "x", Ast.Var "y")));
  Alcotest.(check int) "cat width" 8
    (Ast.width_of tiny (Ast.Cat (Ast.Var "x", Ast.Var "y")))

let test_free_vars () =
  Alcotest.(check (list string)) "free vars"
    [ "x"; "y" ]
    (Ast.free_vars (Ast.Bin (Ast.Add, Ast.Var "x",
                             Ast.Bin (Ast.Mul, Ast.Var "y", Ast.Var "x"))))

let test_interp () =
  Alcotest.(check int) "tiny(3,5)"
    (((3 + 5) land 15) lxor (3 lsr 1))
    (Hls.Interp.run tiny [ ("x", 3); ("y", 5) ]);
  Alcotest.(check int) "masking" (((15 + 15) land 15) lxor (15 lsr 1))
    (Hls.Interp.run tiny [ ("x", 15); ("y", 15) ]);
  (* packed layout: x in low bits. *)
  Alcotest.(check int) "run_packed"
    (Hls.Interp.run tiny [ ("x", 3); ("y", 5) ])
    (Hls.Interp.run_packed tiny ((5 lsl 4) lor 3))

let test_interp_table_cond () =
  let f =
    {
      Ast.name = "tc";
      params = [ ("i", 2) ];
      lets =
        [
          ("t", Ast.Table { index = Ast.Var "i"; values = [ 9; 8; 7; 6 ]; width = 4 });
          ("r", Ast.Cond (Ast.Bin (Ast.Eq, Ast.Var "i", Ast.Lit { value = 0; width = 2 }),
                          Ast.Lit { value = 1; width = 4 },
                          Ast.Var "t"));
        ];
      result = "r";
    }
  in
  Alcotest.(check int) "cond true" 1 (Hls.Interp.run f [ ("i", 0) ]);
  Alcotest.(check int) "table" 7 (Hls.Interp.run f [ ("i", 2) ])

let test_schedule () =
  Alcotest.(check int) "param stage 0" 0 (Hls.Schedule.stage_of tiny "x");
  Alcotest.(check int) "s at 1" 1 (Hls.Schedule.stage_of tiny "s");
  Alcotest.(check int) "t at 2" 2 (Hls.Schedule.stage_of tiny "t");
  Alcotest.(check int) "depth" 2 (Hls.Schedule.depth tiny);
  (* Independent bindings share stage 1. *)
  let par =
    {
      Ast.name = "par";
      params = [ ("x", 4) ];
      lets =
        [ ("a", Ast.Not (Ast.Var "x")); ("b", Ast.Shl (Ast.Var "x", 1));
          ("c", Ast.Bin (Ast.And, Ast.Var "a", Ast.Var "b")) ];
      result = "c";
    }
  in
  Alcotest.(check int) "a stage" 1 (Hls.Schedule.stage_of par "a");
  Alcotest.(check int) "b stage" 1 (Hls.Schedule.stage_of par "b");
  Alcotest.(check int) "c stage" 2 (Hls.Schedule.stage_of par "c")

(* Generated RTL must agree with the interpreter for every input. *)
let rtl_agrees ?bug ?shared f inputs =
  let iface = Hls.Codegen.to_rtl ?bug ?shared f in
  let h = Aqed.Harness.create iface in
  (match shared with
   | Some [ name ] ->
     (* Drive the shared wire constantly. *)
     Rtl.Sim.set_input (Aqed.Harness.sim h) name
       (Bitvec.create ~width:(Ast.param_width f name) 0)
   | _ -> ());
  let outs = Aqed.Harness.run ~max_cycles:400 h (List.map (fun d -> Aqed.Harness.txn d) inputs) in
  let expected = List.map (Hls.Interp.run_packed f) inputs in
  (outs, expected)

let test_codegen_matches_interp () =
  let inputs = [ 0x00; 0x35; 0xFF; 0x81; 0x5A ] in
  let outs, expected = rtl_agrees tiny inputs in
  Alcotest.(check (list int)) "RTL = interpreter" expected outs

let test_codegen_aes_program () =
  (* The AES program through the full flow with its shared key held at 0. *)
  let f = Accel.Aes.program in
  let blocks = [ 0x00; 0x34; 0xFF; 0x81 ] in
  let iface = Hls.Codegen.to_rtl ~shared:[ "key" ] f in
  let h = Aqed.Harness.create iface in
  Rtl.Sim.set_input (Aqed.Harness.sim h) "key" (Bitvec.create ~width:8 0x7E);
  let outs =
    Aqed.Harness.run ~max_cycles:600 h
      (List.map (fun d -> Aqed.Harness.txn d) blocks)
  in
  let expected =
    List.map (fun b -> Accel.Aes.reference ~block:b ~key:0x7E) blocks
  in
  Alcotest.(check (list int)) "AES RTL = reference" expected outs

let prop_codegen_random_inputs =
  QCheck.Test.make ~name:"codegen agrees with interpreter on random inputs"
    ~count:40
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (int_bound 255))
    (fun inputs ->
      let outs, expected = rtl_agrees tiny inputs in
      outs = expected)

let test_latency () =
  Alcotest.(check int) "latency = schedule depth" 2 (Hls.Codegen.latency tiny);
  Alcotest.(check bool) "tau > latency" true
    (Hls.Codegen.recommended_tau tiny > Hls.Codegen.latency tiny)

(* A 3-stage variant so the stage-skip knob has a legal mid stage. *)
let tiny3 =
  {
    Ast.name = "tiny3";
    params = [ ("x", 4); ("y", 4) ];
    lets =
      [
        ("s", Ast.Bin (Ast.Add, Ast.Var "x", Ast.Var "y"));
        ("t", Ast.Bin (Ast.Xor, Ast.Var "s", Ast.Shr (Ast.Var "x", 1)));
        ("u", Ast.Bin (Ast.Sub, Ast.Var "t", Ast.Var "y"));
      ];
    result = "u";
  }

let test_bug_knobs_break_fc () =
  (* Each codegen bug must produce an FC violation (found by A-QED). *)
  List.iter
    (fun (name, bug, f) ->
      let r =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_fc ~max_depth:14
             (fun () -> Hls.Codegen.to_rtl ~bug f))
      in
      Alcotest.(check bool) (name ^ " found") true (Aqed.Check.found_bug r))
    [
      ("stale_operand", Hls.Codegen.Stale_operand "x", tiny);
      ("early_valid", Hls.Codegen.Early_valid, tiny);
      ("result_overwrite", Hls.Codegen.Result_overwrite, tiny);
      ("stage_skip", Hls.Codegen.Stage_skip 1, tiny3);
    ]

let test_clean_codegen_passes_fc () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:8 (fun () -> Hls.Codegen.to_rtl tiny))
  in
  Alcotest.(check bool) "clean" false (Aqed.Check.found_bug r)

let test_stage_skip_validated () =
  let rejected k f =
    match Hls.Codegen.to_rtl ~bug:(Hls.Codegen.Stage_skip k) f with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "final-stage skip rejected" true (rejected 2 tiny);
  Alcotest.(check bool) "no legal skip in a 2-stage FSM" true (rejected 1 tiny);
  Alcotest.(check bool) "mid-stage skip accepted" false (rejected 1 tiny3)

let test_pipelined_matches_interp () =
  let iface = Hls.Codegen.to_rtl ~style:Hls.Codegen.Pipelined tiny in
  let h = Aqed.Harness.create iface in
  let inputs = [ 0x00; 0x35; 0xFF; 0x81; 0x5A; 0x5A ] in
  let outs =
    Aqed.Harness.run ~max_cycles:200 h
      (List.map (fun d -> Aqed.Harness.txn d) inputs)
  in
  Alcotest.(check (list int)) "pipelined RTL = interpreter"
    (List.map (Hls.Interp.run_packed tiny) inputs)
    outs;
  (* Initiation interval 1: much faster than the FSM for a burst. *)
  let cycles_pipe = Aqed.Harness.run_cycles h in
  let h2 = Aqed.Harness.create (Hls.Codegen.to_rtl tiny) in
  let _ =
    Aqed.Harness.run ~max_cycles:200 h2
      (List.map (fun d -> Aqed.Harness.txn d) inputs)
  in
  Alcotest.(check bool) "pipeline is faster" true
    (cycles_pipe < Aqed.Harness.run_cycles h2)

let test_pipelined_backpressure () =
  let iface = Hls.Codegen.to_rtl ~style:Hls.Codegen.Pipelined tiny in
  let h = Aqed.Harness.create iface in
  let inputs = [ 1; 2; 3; 4; 5 ] in
  let outs =
    Aqed.Harness.run ~host_ready:(fun c -> c mod 3 = 1) ~max_cycles:300 h
      (List.map (fun d -> Aqed.Harness.txn d) inputs)
  in
  Alcotest.(check (list int)) "stall preserves the stream"
    (List.map (Hls.Interp.run_packed tiny) inputs)
    outs

let test_pipelined_fc_clean () =
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:9
         (fun () -> Hls.Codegen.to_rtl ~style:Hls.Codegen.Pipelined tiny))
  in
  Alcotest.(check bool) "pipelined tiny FC-clean" false (Aqed.Check.found_bug r)

let test_pipelined_rejects_bugs () =
  Alcotest.(check bool) "bug + pipelined rejected" true
    (match
       Hls.Codegen.to_rtl ~style:Hls.Codegen.Pipelined
         ~bug:Hls.Codegen.Early_valid tiny
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_shared_unknown_param () =
  Alcotest.check_raises "unknown shared name"
    (Invalid_argument "Codegen.to_rtl: unknown shared param nope") (fun () ->
      ignore (Hls.Codegen.to_rtl ~shared:[ "nope" ] tiny))

let suite =
  ( "hls",
    [
      Alcotest.test_case "check accepts" `Quick test_check_accepts;
      Alcotest.test_case "check rejects" `Quick test_check_rejects;
      Alcotest.test_case "widths" `Quick test_widths;
      Alcotest.test_case "free vars" `Quick test_free_vars;
      Alcotest.test_case "interpreter" `Quick test_interp;
      Alcotest.test_case "tables and conditionals" `Quick test_interp_table_cond;
      Alcotest.test_case "scheduling" `Quick test_schedule;
      Alcotest.test_case "codegen matches interpreter" `Quick test_codegen_matches_interp;
      Alcotest.test_case "AES program end to end" `Quick test_codegen_aes_program;
      Alcotest.test_case "latency" `Quick test_latency;
      Alcotest.test_case "bug knobs break FC" `Slow test_bug_knobs_break_fc;
      Alcotest.test_case "clean codegen passes FC" `Slow test_clean_codegen_passes_fc;
      Alcotest.test_case "stage-skip validated" `Quick test_stage_skip_validated;
      Alcotest.test_case "pipelined matches interpreter" `Quick test_pipelined_matches_interp;
      Alcotest.test_case "pipelined under backpressure" `Quick test_pipelined_backpressure;
      Alcotest.test_case "pipelined FC clean" `Slow test_pipelined_fc_clean;
      Alcotest.test_case "pipelined rejects bug knobs" `Quick test_pipelined_rejects_bugs;
      Alcotest.test_case "unknown shared param" `Quick test_shared_unknown_param;
      QCheck_alcotest.to_alcotest prop_codegen_random_inputs;
    ] )
