(* Tests for the RTL IR, the cycle-accurate simulator and the bit-blaster — including a randomized end-to-end equivalence check between
   the simulator and the AIG produced by blasting. *)

module Ir = Rtl.Ir
module Sim = Rtl.Sim
module Aig = Logic.Aig

let bv w n = Bitvec.create ~width:w n

(* ---- IR construction rules ---- *)

let test_widths () =
  let c = Ir.create "t" in
  let a = Ir.input c "a" 4 and b = Ir.input c "b" 8 in
  Alcotest.(check int) "input width" 4 (Ir.width a);
  Alcotest.check_raises "binop width mismatch"
    (Invalid_argument "Ir.binop: width mismatch (4 vs 8)") (fun () ->
      ignore (Ir.add a b));
  Alcotest.(check int) "eq is 1 bit" 1 (Ir.width (Ir.eq a a));
  Alcotest.(check int) "concat adds" 12 (Ir.width (Ir.concat a b));
  Alcotest.(check int) "select" 3 (Ir.width (Ir.select b ~hi:4 ~lo:2));
  Alcotest.(check int) "reduce" 1 (Ir.width (Ir.reduce_or b));
  Alcotest.(check int) "zero_extend" 16 (Ir.width (Ir.zero_extend a 16));
  Alcotest.(check int) "resize down" 2 (Ir.width (Ir.resize b 2))

let test_circuit_separation () =
  let c1 = Ir.create "c1" and c2 = Ir.create "c2" in
  let a = Ir.input c1 "a" 4 and b = Ir.input c2 "b" 4 in
  Alcotest.check_raises "cross-circuit rejected"
    (Invalid_argument "Ir: signals belong to different circuits") (fun () ->
      ignore (Ir.add a b))

let test_register_rules () =
  let c = Ir.create "t" in
  let r = Ir.reg0 c "r" 4 in
  Alcotest.check_raises "unconnected register caught"
    (Failure "circuit t: register r is not connected") (fun () ->
      Ir.validate c);
  Ir.connect c r (Ir.add r (Ir.constant c ~width:4 1));
  Ir.validate c;
  Alcotest.check_raises "double connect"
    (Invalid_argument "Ir.connect: register already connected") (fun () ->
      Ir.connect c r r);
  let x = Ir.input c "x" 4 in
  Alcotest.check_raises "connect non-register"
    (Invalid_argument "Ir.connect: not a register") (fun () ->
      Ir.connect c x x)

let test_outputs () =
  let c = Ir.create "t" in
  let a = Ir.input c "a" 4 in
  Ir.output c "a_out" a;
  Alcotest.(check bool) "find_output" true (Ir.find_output c "a_out" == a);
  Alcotest.check_raises "duplicate output"
    (Invalid_argument "Ir.output: duplicate output a_out") (fun () ->
      Ir.output c "a_out" a)

(* ---- simulator semantics ---- *)

let test_sim_comb () =
  let c = Ir.create "comb" in
  let a = Ir.input c "a" 8 and b = Ir.input c "b" 8 in
  let sum = Ir.add a b in
  let prod = Ir.mul a b in
  let cmp = Ir.ult a b in
  let sh = Ir.srlv a (Ir.resize b 3) in
  Ir.output c "dummy" sum;
  let sim = Sim.create c in
  Sim.set_input sim "a" (bv 8 200);
  Sim.set_input sim "b" (bv 8 100);
  Alcotest.(check int) "add" ((200 + 100) land 255) (Sim.peek_int sim sum);
  Alcotest.(check int) "mul" ((200 * 100) land 255) (Sim.peek_int sim prod);
  Alcotest.(check int) "ult" 0 (Sim.peek_int sim cmp);
  Alcotest.(check int) "srlv" (200 lsr (100 land 7)) (Sim.peek_int sim sh)

let test_sim_reg () =
  let c = Ir.create "counter" in
  let en = Ir.input c "en" 1 in
  let r =
    Ir.reg_fb c "cnt" ~init:(bv 4 7) (fun r ->
        Ir.mux en (Ir.add r (Ir.constant c ~width:4 1)) r)
  in
  let sim = Sim.create c in
  Alcotest.(check int) "init value" 7 (Sim.peek_int sim r);
  Sim.set_input sim "en" (bv 1 1);
  Sim.step sim;
  Alcotest.(check int) "after step" 8 (Sim.peek_int sim r);
  Sim.set_input sim "en" (bv 1 0);
  Sim.step sim;
  Alcotest.(check int) "held" 8 (Sim.peek_int sim r);
  Alcotest.(check int) "cycle count" 2 (Sim.cycle sim);
  Sim.reset sim;
  Alcotest.(check int) "reset restores init" 7 (Sim.peek_int sim r);
  Alcotest.(check int) "reset clears cycles" 0 (Sim.cycle sim)

let test_sim_two_phase () =
  (* Register chain: both registers must update from pre-step values. *)
  let c = Ir.create "chain" in
  let x = Ir.input c "x" 4 in
  let r1 = Ir.reg0 c "r1" 4 in
  let r2 = Ir.reg0 c "r2" 4 in
  Ir.connect c r1 x;
  Ir.connect c r2 r1;
  let sim = Sim.create c in
  Sim.set_input sim "x" (bv 4 9);
  Sim.step sim;
  Alcotest.(check int) "r1 took x" 9 (Sim.peek_int sim r1);
  Alcotest.(check int) "r2 still old" 0 (Sim.peek_int sim r2);
  Sim.step sim;
  Alcotest.(check int) "r2 one cycle behind" 9 (Sim.peek_int sim r2)

let test_sim_undriven_inputs () =
  let c = Ir.create "u" in
  let a = Ir.input c "a" 8 in
  let sim = Sim.create c in
  Alcotest.(check int) "undriven input reads 0" 0 (Sim.peek_int sim a);
  Alcotest.check_raises "unknown input name" Not_found (fun () ->
      Sim.set_input sim "nope" (bv 1 0))

let test_sim_assumes () =
  let c = Ir.create "asm" in
  let a = Ir.input c "a" 1 in
  Ir.assume c a;
  let sim = Sim.create c in
  Alcotest.(check bool) "assume fails on 0" false (Sim.assumes_hold sim);
  Sim.set_input sim "a" (bv 1 1);
  Alcotest.(check bool) "assume holds on 1" true (Sim.assumes_hold sim)

(* ---- blast vs simulator equivalence on random circuits ---- *)

(* A deterministic random circuit: a few inputs, registers and layers of
   random operators; compare Sim against frame-by-frame AIG evaluation. *)
let random_circuit seed =
  let st = Random.State.make [| seed |] in
  let c = Ir.create (Printf.sprintf "rand%d" seed) in
  let w = 1 + Random.State.int st 6 in
  let inputs = Array.init 2 (fun i -> Ir.input c (Printf.sprintf "in%d" i) w) in
  let regs = Array.init 2 (fun i -> Ir.reg0 c (Printf.sprintf "r%d" i) w) in
  let pool = ref (Array.to_list inputs @ Array.to_list regs) in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  for _ = 1 to 8 do
    let a = pick () and b = pick () in
    let s =
      match Random.State.int st 12 with
      | 0 -> Ir.add a b
      | 1 -> Ir.sub a b
      | 2 -> Ir.logand a b
      | 3 -> Ir.logor a b
      | 4 -> Ir.logxor a b
      | 5 -> Ir.lognot a
      | 6 -> Ir.mul a b
      | 7 -> Ir.mux (Ir.reduce_or a) a b
      | 8 -> Ir.sll a (Random.State.int st w)
      | 9 -> Ir.resize (Ir.concat a b) w
      | 10 -> Ir.zero_extend (Ir.eq a b) w
      | _ -> Ir.srlv a b
    in
    pool := s :: !pool
  done;
  Array.iter (fun r -> Ir.connect c r (pick ())) regs;
  let out = pick () in
  Ir.output c "out" out;
  (c, out, w)

let blast_eval_frames circuit out n_frames input_values =
  (* Evaluate the blasted AIG frame by frame, threading latch values. *)
  let blast = Rtl.Blast.create circuit in
  let out_bits = Rtl.Blast.lits blast out in
  Rtl.Blast.finalize blast;
  let latches = Rtl.Blast.latches blast in
  let g = Rtl.Blast.aig blast in
  let input_bits = Rtl.Blast.input_bits blast in
  let state = Hashtbl.create 16 in
  List.iter
    (fun (l : Rtl.Blast.latch) ->
      Array.iteri
        (fun i cur ->
          Hashtbl.replace state (Aig.node_index cur) (Bitvec.bit l.init i))
        l.cur)
    latches;
  List.init n_frames (fun frame ->
      let env idx =
        match Hashtbl.find_opt state idx with
        | Some b -> b
        | None ->
          (* Primary input bit: look it up in this frame's values. *)
          let rec find = function
            | [] -> false
            | (s, bits) :: rest ->
              let rec scan i =
                if i >= Array.length bits then find rest
                else if Aig.node_index bits.(i) = idx then
                  Bitvec.bit (List.assoc (Ir.id s) (List.nth input_values frame)) i
                else scan (i + 1)
              in
              scan 0
          in
          find input_bits
      in
      let out_val =
        Bitvec.of_bits (Array.to_list (Array.map (Aig.eval g env) out_bits))
      in
      (* Advance latches. *)
      let next_vals =
        List.map
          (fun (l : Rtl.Blast.latch) ->
            (l, Array.map (Aig.eval g env) l.next))
          latches
      in
      List.iter
        (fun ((l : Rtl.Blast.latch), vals) ->
          Array.iteri
            (fun i cur -> Hashtbl.replace state (Aig.node_index cur) vals.(i))
            l.cur)
        next_vals;
      out_val)

let prop_blast_matches_sim =
  QCheck.Test.make ~name:"bit-blaster agrees with the simulator" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let circuit, out, w = random_circuit seed in
      let st = Random.State.make [| seed + 1 |] in
      let n_frames = 5 in
      let input_values =
        List.init n_frames (fun _ ->
            List.filter_map
              (fun s ->
                match Ir.signal_name s with
                | Some _ -> Some (Ir.id s, bv w (Random.State.int st (1 lsl w)))
                | None -> None)
              (Ir.inputs circuit))
      in
      (* Simulator run. *)
      let sim = Sim.create circuit in
      let sim_outs =
        List.map
          (fun frame_inputs ->
            List.iter
              (fun (sid, v) ->
                let s =
                  List.find (fun s -> Ir.id s = sid) (Ir.inputs circuit)
                in
                match Ir.signal_name s with
                | Some n -> Sim.set_input sim n v
                | None -> ())
              frame_inputs;
            let v = Sim.peek sim out in
            Sim.step sim;
            v)
          input_values
      in
      let aig_outs = blast_eval_frames circuit out n_frames input_values in
      List.for_all2 Bitvec.equal sim_outs aig_outs)

let suite =
  ( "rtl",
    [
      Alcotest.test_case "width rules" `Quick test_widths;
      Alcotest.test_case "circuit separation" `Quick test_circuit_separation;
      Alcotest.test_case "register rules" `Quick test_register_rules;
      Alcotest.test_case "outputs" `Quick test_outputs;
      Alcotest.test_case "sim combinational ops" `Quick test_sim_comb;
      Alcotest.test_case "sim registers and reset" `Quick test_sim_reg;
      Alcotest.test_case "sim two-phase update" `Quick test_sim_two_phase;
      Alcotest.test_case "sim undriven inputs" `Quick test_sim_undriven_inputs;
      Alcotest.test_case "sim assumes" `Quick test_sim_assumes;
      QCheck_alcotest.to_alcotest prop_blast_matches_sim;
    ] )
