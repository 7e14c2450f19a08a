(* Tests for the structural reduction pipeline (Logic.Reduce): equivalence
   of the reduced relation with the original, per-pass behaviour (COI,
   constant latches, sweeping, temporal decomposition), and the end-to-end
   invariant that verdicts and counterexample depths are unchanged. *)

module Aig = Logic.Aig
module Reduce = Logic.Reduce
module Tseitin = Logic.Tseitin
module S = Sat.Solver
module Ir = Rtl.Ir
module Engine = Bmc.Engine

(* ---- random reduced-vs-original cross-checks ---- *)

(* Skeleton generator over four leaves (two primary inputs, two latch
   current-state inputs), mirroring test_logic's encoding: small ints are
   (possibly negated) leaves, larger ints AND nodes. *)
let gen_skel =
  QCheck.Gen.(
    sized_size (int_range 2 14) (fun n ->
        fix
          (fun self n ->
            if n <= 1 then int_range 0 7  (* leaf id *)
            else
              map2 (fun a b -> (a * 31) + b + 1000000) (self (n / 2)) (self (n / 2)))
          n))

let rec build g inputs skel =
  if skel < 1000000 then (
    let idx = skel land 7 in
    let l = inputs.(idx / 2) in
    if idx land 1 = 1 then Aig.not_ l else l)
  else
    let a = build g inputs (skel / 31) in
    let b = build g inputs ((skel - 1000000) mod 31) in
    Aig.and_ g a b

(* One random sequential relation: a bad root and two latches whose next
   functions share structure with it. *)
let make_relation (sb, s0, s1) =
  let g = Aig.create () in
  let inputs =
    [| Aig.input g "i0"; Aig.input g "i1"; Aig.input g "l0"; Aig.input g "l1" |]
  in
  let bad = build g inputs sb in
  let latches =
    [| { Reduce.cur = inputs.(2); next = build g inputs s0; init = false };
       { Reduce.cur = inputs.(3); next = build g inputs s1; init = true } |]
  in
  (g, inputs, bad, latches)

(* [~constants:false] keeps every pass combinationally sound (the constants
   pass folds reachability facts, which are not valid for free latch
   inputs), so the reduced bad cone must equal the original one as a pure
   function of the shared inputs. *)
let prop_reduce_equivalent =
  QCheck.Test.make ~name:"reduced relation is combinationally equivalent"
    ~count:150
    QCheck.(triple (make gen_skel) (make gen_skel) (make gen_skel))
    (fun skels ->
      let g, inputs, bad, latches = make_relation skels in
      let r =
        Reduce.run ~constants:false ~sweep:true g ~bad ~assumes:[] ~latches
      in
      let bad' =
        match Reduce.map r bad with
        | Some l -> l
        | None -> QCheck.Test.fail_report "bad root dropped"
      in
      (* Shared input images: every surviving input must map to a plain
         input of the reduced graph (free inputs cannot merge or fold). *)
      let pairs =
        Array.to_list inputs
        |> List.filter_map (fun i ->
               match Reduce.map r i with
               | None -> None
               | Some img ->
                 if not (Aig.is_input r.Reduce.aig img)
                    || Aig.is_complemented img
                 then QCheck.Test.fail_report "input image not an input"
                 else Some (i, img))
      in
      (* Random-vector agreement via eval_many. *)
      for bits = 0 to 15 do
        let old_env idx =
          let rec find k = function
            | [] -> false
            | i :: _ when Aig.node_index i = idx -> bits land (1 lsl k) <> 0
            | _ :: tl -> find (k + 1) tl
          in
          find 0 (Array.to_list inputs)
        in
        let new_env idx =
          let rec find = function
            | [] -> false
            | (i, img) :: tl ->
              if Aig.node_index img = idx then old_env (Aig.node_index i)
              else find tl
          in
          find pairs
        in
        let old_v = (Aig.eval_many g old_env [| bad |]).(0) in
        let new_v = (Aig.eval_many r.Reduce.aig new_env [| bad' |]).(0) in
        if old_v <> new_v then
          QCheck.Test.fail_reportf "vector %d: old %b, reduced %b" bits old_v
            new_v
      done;
      (* SAT equivalence: bind both cones to shared variables and assert
         they differ — must be unsatisfiable. *)
      let s = S.create () in
      let env_old = Tseitin.create s g in
      let env_new = Tseitin.create s r.Reduce.aig in
      List.iter
        (fun (i, img) ->
          let v = S.new_var s in
          Tseitin.bind env_old i v;
          Tseitin.bind env_new img v)
        pairs;
      let lo = Tseitin.sat_lit env_old bad in
      let ln = Tseitin.sat_lit env_new bad' in
      S.add_clause s [ lo; ln ];
      S.add_clause s [ -lo; -ln ];
      S.solve s = S.Unsat)

(* ---- per-pass behaviour ---- *)

let test_coi_drops_latches () =
  (* The bit-blaster is demand-driven, so a register the property never
     mentions is not even discovered. To exercise the AIG-level cone pass,
     reference two registers through a cone that AIG constant folding
     disconnects ([d and not d] = false): the latches are blasted — next
     functions and all — but no surviving root reaches them. *)
  let c = Ir.create "coi_test" in
  let x = Ir.input c "x" 1 in
  let live = Ir.reg0 c "live" 1 in
  Ir.connect c live x;
  let used = Ir.reg0 c "used" 1 in
  Ir.connect c used x;
  let dangle = Ir.reg0 c "dangle" 1 in
  Ir.connect c dangle (Ir.lognot dangle);
  let junk = Ir.logand dangle (Ir.lognot dangle) in
  let prop = Ir.logand (Ir.lognot (Ir.logand used junk)) (Ir.lognot live) in
  let p = Engine.prepare c ~prop in
  match Engine.prepared_stats p with
  | None -> Alcotest.fail "reduction stats expected"
  | Some st ->
    Alcotest.(check int) "disconnected latches dropped" 2
      st.Reduce.coi_dropped_latches;
    Alcotest.(check int) "the live latch survives" 1 st.Reduce.latches_after

let test_const_latch_folds () =
  (* A register wired to itself never leaves its reset value; the constants
     pass must fold it, and the verdict must match the unreduced engine. *)
  let c = Ir.create "const_test" in
  let x = Ir.input c "x" 1 in
  let stuck = Ir.reg0 c "stuck" 1 in
  Ir.connect c stuck stuck;
  let prop = Ir.lognot (Ir.logand x stuck) in
  let p = Engine.prepare c ~prop in
  (match Engine.prepared_stats p with
   | None -> Alcotest.fail "reduction stats expected"
   | Some st ->
     Alcotest.(check bool) "stuck latch folded" true (st.Reduce.const_latches >= 1));
  let r = Engine.check_prepared ~max_depth:4 p in
  let raw = Engine.check ~max_depth:4 ~reduce:false c ~prop in
  (match (r.Engine.outcome, raw.Engine.outcome) with
   | Engine.Bounded_ok a, Engine.Bounded_ok b ->
     Alcotest.(check int) "same clean bound" b a
   | _ -> Alcotest.fail "expected Bounded_ok from both engines")

let test_sweep_collapses_redundancy () =
  (* Two structurally different encodings of 3*op + 1: sweeping proves the
     output bits pairwise equal, the comparator folds to constant true and
     the whole relation collapses. Structural hashing alone (sweep off)
     cannot see it. *)
  let mk () =
    let c = Ir.create "sweep_test" in
    let x = Ir.input c "x" 8 in
    let op = Ir.reg0 c "op" 8 in
    Ir.connect c op x;
    let one = Ir.constant c ~width:8 1 in
    let main = Ir.add (Ir.add (Ir.sll op 1) op) one in
    let shadow = Ir.add (Ir.sub (Ir.sll op 2) op) one in
    (c, Ir.eq main shadow)
  in
  let stats sweep =
    let c, prop = mk () in
    let p = Engine.prepare ~sweep c ~prop in
    match Engine.prepared_stats p with
    | Some st -> st
    | None -> Alcotest.fail "reduction stats expected"
  in
  let off = stats false and on = stats true in
  (* Merging the low output-bit pairs folds the higher XNORs structurally,
     so the merge count is below the bit width even though every pair is
     proven equal. *)
  Alcotest.(check bool) "merges found" true (on.Reduce.sweep_merged >= 4);
  Alcotest.(check bool)
    (Printf.sprintf "nodes drop >= 20%% (%d -> %d)" off.Reduce.nodes_after
       on.Reduce.nodes_after)
    true
    (float_of_int on.Reduce.nodes_after
     <= 0.8 *. float_of_int off.Reduce.nodes_after);
  (* The property is an invariant either way. *)
  let c, prop = mk () in
  let swept = Engine.check ~max_depth:3 ~sweep:true c ~prop in
  let c2, prop2 = mk () in
  let raw = Engine.check ~max_depth:3 ~reduce:false c2 ~prop:prop2 in
  match (swept.Engine.outcome, raw.Engine.outcome) with
  | Engine.Bounded_ok a, Engine.Bounded_ok b ->
    Alcotest.(check int) "same clean bound" b a
  | _ -> Alcotest.fail "expected Bounded_ok from both engines"

let test_frame_constants () =
  (* Shift register l0 <- in, l1 <- l0, l2 <- l1 (inits 0,0,1) plus
     l3 <- l0 AND l1: ternary simulation from reset with inputs X must
     recover exactly the hand-computed constant prefix of each latch. *)
  let g = Aig.create () in
  let pin = Aig.input g "in" in
  let l0 = Aig.input g "l0" and l1 = Aig.input g "l1"
  and l2 = Aig.input g "l2" and l3 = Aig.input g "l3" in
  ignore l3;
  let latches =
    [| { Reduce.cur = l0; next = pin; init = false };
       { Reduce.cur = l1; next = l0; init = false };
       { Reduce.cur = l2; next = l1; init = true };
       { Reduce.cur = l3; next = Aig.and_ g l0 l1; init = true } |]
  in
  let rows = Reduce.frame_constants g ~latches ~depth:4 in
  let expect =
    [| [| Some false; Some false; Some true; Some true |];  (* reset *)
       [| None; Some false; Some false; Some false |];
       (* l3 at cycle 2 is AND(X, false) = false: ternary AND is stronger
          than "all fanins known". *)
       [| None; None; Some false; Some false |];
       [| None; None; None; None |];
       [| None; None; None; None |] |]
  in
  Alcotest.(check int) "depth+1 rows" (Array.length expect) (Array.length rows);
  Array.iteri
    (fun f row ->
      Array.iteri
        (fun i v ->
          let pp = function None -> "X" | Some b -> string_of_bool b in
          Alcotest.(check string)
            (Printf.sprintf "frame %d latch %d" f i)
            (pp expect.(f).(i)) (pp v))
        row)
    rows

(* ---- end-to-end verdict regression ---- *)

let verdict_sig r =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> Printf.sprintf "bug@%d" (List.length t.Bmc.Trace.frames)
  | Aqed.Check.No_bug_up_to d -> Printf.sprintf "clean@%d" d

let test_verdicts_unchanged () =
  (* The whole point of the pipeline: every verdict and counterexample
     depth is identical with reduction (and sweeping) on or off. *)
  let cases =
    [ ( "dualpath FC bug",
        fun reduce ->
          Aqed.Check.run_obligation
            (Aqed.Check.prepare_fc ~max_depth:12 ~reduce ~sweep:reduce
               (fun () -> Accel.Dualpath.build ~bug:true ())) );
      ( "dataflow RB bug",
        fun reduce ->
          Aqed.Check.run_obligation
            (Aqed.Check.prepare_rb ~max_depth:16 ~tau:Accel.Dataflow.tau
               ~reduce (fun () -> Accel.Dataflow.build ~bug:true ())) );
      ( "fifo FC clean",
        fun reduce ->
          Aqed.Check.run_obligation
            (Aqed.Check.prepare_fc ~max_depth:6 ~reduce
               (fun () -> Accel.Memctrl.build Accel.Memctrl.Fifo_mode ())) ) ]
  in
  List.iter
    (fun (name, run) ->
      let on = run true and off = run false in
      Alcotest.(check string) name (verdict_sig off) (verdict_sig on))
    cases

let suite =
  ( "reduce",
    [
      QCheck_alcotest.to_alcotest prop_reduce_equivalent;
      Alcotest.test_case "COI drops unread latches" `Quick test_coi_drops_latches;
      Alcotest.test_case "constant latches fold" `Quick test_const_latch_folds;
      Alcotest.test_case "sweeping collapses redundancy" `Quick
        test_sweep_collapses_redundancy;
      Alcotest.test_case "temporal decomposition rows" `Quick test_frame_constants;
      Alcotest.test_case "verdicts unchanged by reduction" `Slow
        test_verdicts_unchanged;
    ] )
