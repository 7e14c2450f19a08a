(* Tests for the supporting components: monitor utilities, the interface
   contract, the transaction harness and the VCD writer. *)

module Ir = Rtl.Ir
module Sim = Rtl.Sim

let bv w n = Bitvec.create ~width:w n

(* ---- Util ---- *)

let test_util_counters () =
  let c = Ir.create "util" in
  let inc = Ir.input c "inc" 1 in
  let cnt = Aqed.Util.counter c "cnt" ~width:2 ~incr:inc in
  let sat = Aqed.Util.saturating_counter c "sat" ~width:2 ~incr:inc in
  let stick = Aqed.Util.sticky c "stick" ~set:inc in
  let sim = Sim.create c in
  Sim.set_input sim "inc" (bv 1 1);
  for _ = 1 to 5 do Sim.step sim done;
  Alcotest.(check int) "wrapping counter wrapped" (5 mod 4)
    (Sim.peek_int sim cnt);
  Alcotest.(check int) "saturating counter stuck at max" 3
    (Sim.peek_int sim sat);
  Alcotest.(check int) "sticky set" 1 (Sim.peek_int sim stick);
  Sim.set_input sim "inc" (bv 1 0);
  Sim.step sim;
  Alcotest.(check int) "sticky stays" 1 (Sim.peek_int sim stick)

let test_util_latch_when () =
  let c = Ir.create "latch" in
  let cap = Ir.input c "cap" 1 in
  let v = Ir.input c "v" 8 in
  let l = Aqed.Util.latch_when c "l" ~capture:cap v in
  let sim = Sim.create c in
  Sim.set_input sim "v" (bv 8 42);
  Sim.set_input sim "cap" (bv 1 0);
  Sim.step sim;
  Alcotest.(check int) "not captured" 0 (Sim.peek_int sim l);
  Sim.set_input sim "cap" (bv 1 1);
  Sim.step sim;
  Sim.set_input sim "cap" (bv 1 0);
  Sim.set_input sim "v" (bv 8 7);
  Sim.step sim;
  Alcotest.(check int) "held after capture" 42 (Sim.peek_int sim l)

(* ---- Iface ---- *)

let test_iface_width_checks () =
  let c = Ir.create "iface" in
  let b1 = Ir.input c "a" 1 and b8 = Ir.input c "b" 8 in
  Alcotest.check_raises "wide in_valid rejected"
    (Invalid_argument "Iface.make: in_valid must be 1 bit") (fun () ->
      ignore
        (Aqed.Iface.make c ~in_valid:b8 ~in_data:b8 ~in_ready:b1
           ~out_valid:b1 ~out_data:b8 ~out_ready:b1 ()))

let test_iface_ad_concat () =
  let c = Ir.create "iface2" in
  let in_valid, in_action, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~action_width:2 ~data_width:6 ()
  in
  let one = Ir.vdd c in
  let iface =
    Aqed.Iface.make c ?in_action ~in_valid ~in_data ~in_ready:one
      ~out_valid:one ~out_data:in_data ~out_ready ()
  in
  Alcotest.(check int) "ad = action @ data" 8 (Ir.width (Aqed.Iface.ad iface));
  let c2 = Ir.create "iface3" in
  let in_valid2, _, in_data2, out_ready2 =
    Aqed.Iface.standard_inputs c2 ~data_width:6 ()
  in
  let one2 = Ir.vdd c2 in
  let iface2 =
    Aqed.Iface.make c2 ~in_valid:in_valid2 ~in_data:in_data2 ~in_ready:one2
      ~out_valid:one2 ~out_data:in_data2 ~out_ready:out_ready2 ()
  in
  Alcotest.(check int) "ad = data alone" 6 (Ir.width (Aqed.Iface.ad iface2))

(* ---- Harness ---- *)

let echo_iface () =
  let c = Ir.create "echo" in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:8 ()
  in
  let have = Ir.reg0 c "have" 1 in
  let value = Ir.reg0 c "value" 8 in
  let in_ready = Ir.lognot have in
  let in_fire = Ir.logand in_valid in_ready in
  let out_fire = Ir.logand have out_ready in
  Ir.connect c value (Ir.mux in_fire in_data value);
  Ir.connect c have
    (Ir.mux in_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid:have
    ~out_data:value ~out_ready ()

let test_harness_basic () =
  let h = Aqed.Harness.create (echo_iface ()) in
  let outs = Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "echoed in order" [ 1; 2; 3 ] outs;
  Alcotest.(check bool) "cycles recorded" true (Aqed.Harness.run_cycles h > 0)

let test_harness_backpressure () =
  let h = Aqed.Harness.create (echo_iface ()) in
  (* Host only ready every third cycle: outputs still all arrive. *)
  let outs =
    Aqed.Harness.run
      ~host_ready:(fun cyc -> cyc mod 3 = 2)
      h
      (List.map (fun d -> Aqed.Harness.txn d) [ 9; 8; 7 ])
  in
  Alcotest.(check (list int)) "all delivered under backpressure" [ 9; 8; 7 ] outs

let test_harness_timeout () =
  (* A design that never produces output: run returns when max_cycles hits. *)
  let c = Ir.create "dead" in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:8 ()
  in
  ignore in_valid;
  let never = Ir.gnd c in
  let iface =
    Aqed.Iface.make c ~in_valid:never ~in_data ~in_ready:never
      ~out_valid:never ~out_data:in_data ~out_ready ()
  in
  let h = Aqed.Harness.create iface in
  let outs = Aqed.Harness.run ~max_cycles:20 h [ Aqed.Harness.txn 1 ] in
  Alcotest.(check (list int)) "nothing delivered" [] outs;
  Alcotest.(check int) "stopped at the bound" 20 (Aqed.Harness.run_cycles h)

(* ---- VCD ---- *)

let test_vcd_output () =
  let c = Ir.create "wave" in
  let x = Ir.input c "x" 1 in
  let r = Ir.reg0 c "r" 4 in
  Ir.connect c r (Ir.mux x (Ir.add r (Ir.constant c ~width:4 1)) r);
  let sim = Sim.create c in
  let path = Filename.temp_file "aqed_test" ".vcd" in
  let oc = open_out path in
  let vcd = Rtl.Vcd.create oc sim [ ("x", x); ("r", r) ] in
  Sim.set_input sim "x" (bv 1 1);
  for _ = 1 to 3 do
    Rtl.Vcd.sample vcd;
    Sim.step sim
  done;
  Rtl.Vcd.close vcd;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains needle =
    let n = String.length needle and h = String.length contents in
    let rec go i = i + n <= h && (String.sub contents i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "var x" true (contains "$var wire 1");
  Alcotest.(check bool) "var r" true (contains "$var wire 4");
  Alcotest.(check bool) "binary value" true (contains "b0001")

let suite =
  ( "components",
    [
      Alcotest.test_case "util counters" `Quick test_util_counters;
      Alcotest.test_case "util latch_when" `Quick test_util_latch_when;
      Alcotest.test_case "iface width checks" `Quick test_iface_width_checks;
      Alcotest.test_case "iface action/data packing" `Quick test_iface_ad_concat;
      Alcotest.test_case "harness basic" `Quick test_harness_basic;
      Alcotest.test_case "harness backpressure" `Quick test_harness_backpressure;
      Alcotest.test_case "harness timeout" `Quick test_harness_timeout;
      Alcotest.test_case "vcd output" `Quick test_vcd_output;
    ] )
