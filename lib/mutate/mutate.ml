module Ir = Rtl.Ir

(* ---- operators ---------------------------------------------------------- *)

type op =
  | Binop_swap
  | Operand_swap
  | Const_perturb
  | Stuck_at
  | Mux_invert
  | Reset_flip
  | Off_by_one

let all_ops =
  [ Binop_swap; Operand_swap; Const_perturb; Stuck_at; Mux_invert;
    Reset_flip; Off_by_one ]

let op_name = function
  | Binop_swap -> "binop"
  | Operand_swap -> "operand"
  | Const_perturb -> "const"
  | Stuck_at -> "stuck"
  | Mux_invert -> "mux"
  | Reset_flip -> "reset"
  | Off_by_one -> "offby1"

let op_of_name s =
  List.find_opt (fun o -> op_name o = s) all_ops

(* ---- targets ------------------------------------------------------------ *)

type target = {
  target_name : string;
  build : unit -> Aqed.Iface.t;
  build_rb : unit -> Aqed.Iface.t;
  tau : int;
  spec : (Rtl.Ir.signal -> Rtl.Ir.signal) option;
  shared : (Aqed.Iface.t -> Rtl.Ir.signal) option;
}

(* ---- mutations ---------------------------------------------------------- *)

(* A payload records both the expected shape at the site (so [apply] can
   detect a non-deterministic builder) and the replacement. It never holds
   signals — those belong to the template instance, not the fresh one the
   mutation is applied to. *)
type payload =
  | Swap_binop of Ir.binop * Ir.binop            (* old, new *)
  | Swap_operands                                 (* binop or concat *)
  | Perturb_const of Bitvec.t * Bitvec.t          (* old, new *)
  | Stuck of bool                                 (* all-0 / all-1 *)
  | Invert_mux
  | Flip_reset of int                             (* bit index *)
  | Bound_const of int * Bitvec.t * Bitvec.t      (* operand pos, old, new *)

type mutation = {
  m_op : op;
  m_sid : int;          (* target signal id in the built circuit *)
  m_width : int;
  m_payload : payload;
  m_detail : string;    (* human-readable change, e.g. "Add -> Sub" *)
  m_shape : string;     (* kind summary expected at the site *)
}

let binop_name = function
  | Ir.Add -> "Add" | Ir.Sub -> "Sub" | Ir.Mul -> "Mul" | Ir.And -> "And"
  | Ir.Or -> "Or" | Ir.Xor -> "Xor" | Ir.Eq -> "Eq" | Ir.Ult -> "Ult"
  | Ir.Ule -> "Ule" | Ir.Slt -> "Slt" | Ir.Sle -> "Sle"

let kind_shape = function
  | Ir.Input n -> "input " ^ n
  | Ir.Const bv -> "const " ^ Bitvec.to_hex_string bv
  | Ir.Unop _ -> "unop"
  | Ir.Binop (op, _, _) -> binop_name op
  | Ir.Shift_const _ | Ir.Shift_var _ -> "shift"
  | Ir.Mux _ -> "mux"
  | Ir.Concat _ -> "concat"
  | Ir.Select _ -> "select"
  | Ir.Reg n -> "reg " ^ n

let mutation_id m = Printf.sprintf "%s@s%d:%s" (op_name m.m_op) m.m_sid m.m_detail
let mutation_op m = m.m_op

let site m =
  Printf.sprintf "#%d %s (w%d): %s" m.m_sid m.m_shape m.m_width m.m_detail

(* ---- generation --------------------------------------------------------- *)

(* A tiny deterministic xorshift so generation does not depend on the
   global [Random] state (and the library needs no testbench dependency). *)
let xorshift state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  state := x;
  x

let binop_swaps = function
  | Ir.Add -> [ Ir.Sub ]
  | Ir.Sub -> [ Ir.Add ]
  | Ir.Mul -> [ Ir.Add ]
  | Ir.And -> [ Ir.Or ]
  | Ir.Or -> [ Ir.And ]
  | Ir.Xor -> [ Ir.Or ]
  | Ir.Eq -> [ Ir.Ule ]
  | Ir.Ult -> [ Ir.Ule ]
  | Ir.Ule -> [ Ir.Ult ]
  | Ir.Slt -> [ Ir.Sle ]
  | Ir.Sle -> [ Ir.Slt ]

let is_compare = function
  | Ir.Eq | Ir.Ult | Ir.Ule | Ir.Slt | Ir.Sle -> true
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> false

let candidates_of_signal wanted s =
  let sid = Ir.id s and w = Ir.width s in
  let knd = Ir.kind s in
  let shape = kind_shape knd in
  let mk op payload detail =
    if wanted op then
      [ { m_op = op; m_sid = sid; m_width = w; m_payload = payload;
          m_detail = detail; m_shape = shape } ]
    else []
  in
  let stuck () =
    (* Stuck-at both polarities on any combinational operator node.
       Constants are covered by [Const_perturb]; inputs and registers are
       excluded (a stuck primary input is an environment fault, not a
       design fault, and registers carry bookkeeping beyond their kind). *)
    mk Stuck_at (Stuck false) "stuck-at-0" @ mk Stuck_at (Stuck true) "stuck-at-1"
  in
  match knd with
  | Ir.Input _ -> []
  | Ir.Reg _ ->
    let init = Ir.reg_init (Ir.circuit_of s) s in
    mk Reset_flip (Flip_reset 0)
      (Printf.sprintf "reset %s bit 0 flipped" (Bitvec.to_hex_string init))
    @ (if w > 1 then
         mk Reset_flip (Flip_reset (w - 1))
           (Printf.sprintf "reset %s bit %d flipped"
              (Bitvec.to_hex_string init) (w - 1))
       else [])
  | Ir.Const bv ->
    mk Const_perturb (Perturb_const (bv, Bitvec.succ bv)) "+1"
    @ (if w > 1 then
         mk Const_perturb (Perturb_const (bv, Bitvec.sub bv (Bitvec.one w))) "-1"
         @ mk Const_perturb
             (Perturb_const
                (bv, Bitvec.set_bit bv (w - 1) (not (Bitvec.bit bv (w - 1)))))
             "msb-flip"
       else [])
  | Ir.Binop (op, a, b) ->
    let swaps =
      List.concat_map
        (fun op' ->
          mk Binop_swap (Swap_binop (op, op'))
            (Printf.sprintf "%s -> %s" (binop_name op) (binop_name op')))
        (binop_swaps op)
    in
    let operands =
      (* Commutative swaps are (provably) equivalent — they exercise the
         screen; the non-commutative ones are real faults. [Mul] is
         excluded: its partial-product miter routinely outruns the screen
         budget, and an unscreened equivalent mutant would pollute the
         survivor report. *)
      if op <> Ir.Mul then mk Operand_swap Swap_operands "operands swapped"
      else []
    in
    let bounds =
      if is_compare op then
        let bound pos c =
          mk Off_by_one
            (Bound_const (pos, c, Bitvec.succ c))
            (Printf.sprintf "bound %s +1" (Bitvec.to_hex_string c))
          @ mk Off_by_one
              (Bound_const (pos, c, Bitvec.sub c (Bitvec.one (Bitvec.width c))))
              (Printf.sprintf "bound %s -1" (Bitvec.to_hex_string c))
        in
        match (Ir.kind a, Ir.kind b) with
        | Ir.Const c, _ -> bound 0 c
        | _, Ir.Const c -> bound 1 c
        | _, _ -> []
      else []
    in
    swaps @ operands @ bounds @ stuck ()
  | Ir.Mux _ -> mk Mux_invert Invert_mux "branches exchanged" @ stuck ()
  | Ir.Concat _ ->
    mk Operand_swap Swap_operands "halves swapped" @ stuck ()
  | Ir.Unop _ | Ir.Shift_const _ | Ir.Shift_var _ | Ir.Select _ -> stuck ()

let generate ?(ops = all_ops) ?(seed = 0) ?(limit = 64) t =
  let iface = t.build () in
  let wanted op = List.mem op ops in
  let all =
    List.concat_map (candidates_of_signal wanted)
      (Ir.signals iface.Aqed.Iface.circuit)
  in
  if List.length all <= limit then all
  else begin
    (* Seeded Fisher–Yates, then back to signal order for readable
       reports. The sample is a function of (design, ops, seed, limit)
       only. *)
    let arr = Array.of_list all in
    let n = Array.length arr in
    let state = ref (seed lxor 0x2545F491 lxor (n * 2654435761)) in
    if !state = 0 then state := 88172645463325252;
    for i = n - 1 downto 1 do
      let j = xorshift state mod (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.sub arr 0 limit |> Array.to_list
    |> List.sort (fun a b -> compare (a.m_sid, a.m_detail) (b.m_sid, b.m_detail))
  end

(* ---- application -------------------------------------------------------- *)

let apply m iface =
  let c = iface.Aqed.Iface.circuit in
  let s =
    match Ir.find_signal c m.m_sid with
    | s -> s
    | exception Not_found ->
      failwith
        (Printf.sprintf "Mutate.apply: no signal #%d (non-deterministic builder?)"
           m.m_sid)
  in
  let mismatch () =
    failwith
      (Printf.sprintf
         "Mutate.apply: signal #%d is %s, expected %s (non-deterministic builder?)"
         m.m_sid (kind_shape (Ir.kind s)) m.m_shape)
  in
  match (m.m_payload, Ir.kind s) with
  | Swap_binop (old_op, new_op), Ir.Binop (op, a, b) when op = old_op ->
    Ir.replace_kind s (Ir.Binop (new_op, a, b))
  | Swap_operands, Ir.Binop (op, a, b) ->
    Ir.replace_kind s (Ir.Binop (op, b, a))
  | Swap_operands, Ir.Concat (hi, lo) when Ir.width hi = Ir.width lo ->
    Ir.replace_kind s (Ir.Concat (lo, hi))
  | Perturb_const (old_v, new_v), Ir.Const bv when Bitvec.equal bv old_v ->
    Ir.replace_kind s (Ir.Const new_v)
  | Stuck b, (Ir.Unop _ | Ir.Binop _ | Ir.Shift_const _ | Ir.Shift_var _
             | Ir.Mux _ | Ir.Concat _ | Ir.Select _) ->
    Ir.replace_kind s
      (Ir.Const (if b then Bitvec.ones m.m_width else Bitvec.zero m.m_width))
  | Invert_mux, Ir.Mux (sel, a, b) -> Ir.replace_kind s (Ir.Mux (sel, b, a))
  | Flip_reset bit, Ir.Reg _ ->
    let init = Ir.reg_init c s in
    Ir.set_reg_init c s (Bitvec.set_bit init bit (not (Bitvec.bit init bit)))
  | Bound_const (pos, old_v, new_v), Ir.Binop (op, a, b) ->
    let const_of x =
      match Ir.kind x with
      | Ir.Const cv when Bitvec.equal cv old_v -> Ir.const c new_v
      | _ -> mismatch ()
    in
    if pos = 0 then Ir.replace_kind s (Ir.Binop (op, const_of a, b))
    else Ir.replace_kind s (Ir.Binop (op, a, const_of b))
  | _, _ -> mismatch ()

let mutant_build build m () =
  let iface = build () in
  apply m iface;
  iface

(* ---- the equivalence screen --------------------------------------------- *)

(* What the A-QED monitors can observe of a design: the handshake outputs,
   the output data, and the circuit assumptions. A mutant whose observable
   cone (including every latch transition feeding it) is equivalent to the
   baseline's cannot change any FC/RB/SAC verdict. *)
let obs_signals iface =
  let open Aqed.Iface in
  [ iface.in_ready; iface.out_valid; iface.out_data ]
  @ Ir.assumes iface.circuit

(* A 1-bit root whose cone covers every observable bit, so
   [Bmc.Engine.obligation_key] — a digest of the reduced relation under
   that root — changes iff some observable cone (or latch wiring / reset
   value inside it) changed structurally. *)
let obs_prop iface =
  let c = iface.Aqed.Iface.circuit in
  List.fold_left
    (fun acc s -> Ir.logxor acc (Ir.reduce_xor s))
    (Ir.gnd c) (obs_signals iface)

let structural_key build =
  let iface = build () in
  Bmc.Engine.obligation_key iface.Aqed.Iface.circuit ~prop:(obs_prop iface)

(* One side of the miter: the design blasted with its observable bits,
   assumption bits and latches exposed. *)
type side = {
  aig : Logic.Aig.t;
  obs : Logic.Aig.lit array;                    (* observable bits, in order *)
  latches : (int * Rtl.Blast.latch) list;       (* keyed by register id *)
  inputs : (int * Logic.Aig.lit array) list;    (* keyed by input signal id *)
}

let blast_side iface =
  let b = Rtl.Blast.create iface.Aqed.Iface.circuit in
  let obs =
    Array.concat (List.map (fun s -> Rtl.Blast.lits b s) (obs_signals iface))
  in
  Rtl.Blast.finalize b;
  {
    aig = Rtl.Blast.aig b;
    obs;
    latches =
      List.map (fun l -> (Ir.id l.Rtl.Blast.reg, l)) (Rtl.Blast.latches b);
    inputs =
      List.map (fun (s, lits) -> (Ir.id s, lits)) (Rtl.Blast.input_bits b);
  }

(* Shared miter variables: one SAT variable per (signal id, bit) for
   primary inputs and latch current states. Both sides bind the same
   variable for the same coordinate, so the solver compares the two
   transition relations pointwise as functions of (state, input). Signal
   ids are stable across the baseline and the mutant (same builder), which
   is what makes the coordinate-keyed unification sound even when the
   mutation pruned some input or latch out of one side's cone. *)
let bind_side solver shared env side =
  let bind_bits key lits =
    Array.iteri
      (fun i l ->
        match Logic.Aig.to_bool l with
        | Some _ -> ()   (* blaster folded the bit to a constant *)
        | None ->
          let v =
            match Hashtbl.find_opt shared (key, i) with
            | Some v -> v
            | None ->
              let v = Sat.Solver.new_var solver in
              Hashtbl.add shared (key, i) v;
              v
          in
          Logic.Tseitin.bind env l v)
      lits
  in
  List.iter (fun (sid, lits) -> bind_bits sid lits) side.inputs;
  List.iter (fun (rid, l) -> bind_bits rid l.Rtl.Blast.cur) side.latches

(* Random differential simulation: evaluate both sides' roots on shared
   random input/state vectors first — most genuinely distinct mutants are
   separated here for the cost of a few AIG sweeps, and the solver is only
   consulted for the lookalikes (the fraiging idiom). *)
let sim_distinguishes base mut pairs rounds seed =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed) in
  let values = Hashtbl.create 64 in
  let env_of side =
    (* Map AIG input node -> (signal id, bit) coordinate. *)
    let coord = Hashtbl.create 64 in
    let record key lits =
      Array.iteri
        (fun i l ->
          if Logic.Aig.to_bool l = None then
            Hashtbl.replace coord (Logic.Aig.node_index l) (key, i))
        lits
    in
    List.iter (fun (sid, lits) -> record sid lits) side.inputs;
    List.iter (fun (rid, l) -> record rid l.Rtl.Blast.cur) side.latches;
    fun idx ->
      match Hashtbl.find_opt coord idx with
      | None -> false
      | Some key -> (
          match Hashtbl.find_opt values key with
          | Some b -> b
          | None ->
            let b = xorshift state land 1 = 1 in
            Hashtbl.add values key b;
            b)
  in
  let base_env = env_of base and mut_env = env_of mut in
  let base_roots = Array.of_list (List.map fst pairs)
  and mut_roots = Array.of_list (List.map snd pairs) in
  let rec round r =
    if r = 0 then false
    else begin
      Hashtbl.reset values;
      let bv = Logic.Aig.eval_many base.aig base_env base_roots in
      let mv = Logic.Aig.eval_many mut.aig mut_env mut_roots in
      if bv <> mv then true else round (r - 1)
    end
  in
  round rounds

type screen_verdict = Distinct | Equal_hash | Equal_miter

let m_screen_hash = Telemetry.Counter.make "mutate.screened_hash"
let m_screen_miter = Telemetry.Counter.make "mutate.screened_miter"

let miter_equal ~budget t m =
  let base = blast_side (t.build ()) in
  let mut = blast_side (mutant_build t.build m ()) in
  (* Reset values must match on latches common to both sides; a flipped
     reset that survived the hash screen is (at least potentially)
     observable, so the mutant is kept. *)
  let inits_match =
    List.for_all
      (fun (rid, l) ->
        match List.assoc_opt rid mut.latches with
        | None -> true
        | Some l' -> Bitvec.equal l.Rtl.Blast.init l'.Rtl.Blast.init)
      base.latches
  in
  if not inits_match then false
  else begin
    (* Pair up the comparison roots: observable bits positionally, latch
       next-state bits by register id. A latch present on one side only is
       unconstrained — if the other side's roots depend on its (free)
       current state the miter is satisfiable, so equivalence still means
       equivalence. *)
    let pairs =
      Array.to_list (Array.map2 (fun a b -> (a, b)) base.obs mut.obs)
      @ List.concat_map
          (fun (rid, l) ->
            match List.assoc_opt rid mut.latches with
            | None -> []
            | Some l' ->
              Array.to_list
                (Array.map2
                   (fun a b -> (a, b))
                   l.Rtl.Blast.next l'.Rtl.Blast.next))
          base.latches
    in
    if sim_distinguishes base mut pairs 8 m.m_sid then false
    else begin
      let solver = Sat.Solver.create () in
      let shared = Hashtbl.create 64 in
      let env_base = Logic.Tseitin.create solver base.aig in
      let env_mut = Logic.Tseitin.create solver mut.aig in
      bind_side solver shared env_base base;
      bind_side solver shared env_mut mut;
      (* diff_i => (a_i xor b_i); assert (diff_1 \/ ... \/ diff_n). Unsat
         means no (state, input) valuation separates the two relations. *)
      let diffs =
        List.filter_map
          (fun (la, lb) ->
            match (Logic.Aig.to_bool la, Logic.Aig.to_bool lb) with
            | Some x, Some y -> if x = y then None else Some 0 (* constant diff *)
            | _ ->
              let va = Logic.Tseitin.sat_lit env_base la in
              let vb = Logic.Tseitin.sat_lit env_mut lb in
              let d = Sat.Solver.new_var solver in
              Sat.Solver.add_clause solver [ -d; va; vb ];
              Sat.Solver.add_clause solver [ -d; -va; -vb ];
              Some d)
          pairs
      in
      if List.mem 0 diffs then false   (* two bits fold to distinct constants *)
      else begin
        Sat.Solver.add_clause solver diffs;
        match Sat.Solver.solve_limited ~conflicts:budget solver with
        | Some Sat.Solver.Unsat -> true
        | Some Sat.Solver.Sat | None -> false
      end
    end
  end

let screen ?(budget = 2000) t m =
  let base_key = structural_key t.build in
  let mut_key = structural_key (mutant_build t.build m) in
  if String.equal base_key mut_key then begin
    Telemetry.Counter.incr m_screen_hash;
    Equal_hash
  end
  else if miter_equal ~budget t m then begin
    Telemetry.Counter.incr m_screen_miter;
    Equal_miter
  end
  else Distinct

(* ---- the campaign ------------------------------------------------------- *)

type detection = { killed_by : string; kill_depth : int; kill_wall : float }

type status =
  | Killed of detection
  | Survived
  | Screened of screen_verdict

type outcome = {
  mutation : mutation;
  status : status;
  screen_wall : float;
  checks_wall : float;
}

type campaign = {
  campaign_target : string;
  seed : int;
  raw : int;
  outcomes : outcome list;
  campaign_wall : float;
  campaign_jobs : int;
}

let m_generated = Telemetry.Counter.make "mutate.generated"
let m_killed = Telemetry.Counter.make "mutate.killed"
let m_survived = Telemetry.Counter.make "mutate.survived"

(* First-detection flow on one screened-in mutant: FC, then RB (on the
   RB builder), then SAC — the order the paper's flow runs them — stopping
   at the first kill. *)
let first_detection ?(max_depth = 12) ?(portfolio = 1) ?store t m =
  let reports =
    Aqed.Check.verify ~portfolio ?store
      ([ Aqed.Check.prepare_fc ~max_depth ?shared:t.shared
           (mutant_build t.build m);
         Aqed.Check.prepare_rb ~max_depth ~tau:t.tau
           (mutant_build t.build_rb m) ]
       @
       match t.spec with
       | None -> []
       | Some spec ->
         [ Aqed.Check.prepare_sac ~max_depth ~spec (mutant_build t.build m) ])
  in
  let wall =
    List.fold_left (fun acc r -> acc +. r.Aqed.Check.wall_time) 0. reports
  in
  match List.rev reports with
  | { Aqed.Check.verdict = Aqed.Check.Bug trace; check; wall_time; _ } :: _ ->
    ( Killed
        {
          killed_by = check;
          kill_depth = Bmc.Trace.length trace;
          kill_wall = wall_time;
        },
      wall )
  | _ -> (Survived, wall)

let run ?ops ?(seed = 0) ?limit ?budget ?max_depth ?jobs ?pool ?portfolio
    ?store t =
  let t0 = Telemetry.now_s () in
  let mutants = generate ?ops ~seed ?limit t in
  Telemetry.Counter.add m_generated (List.length mutants);
  let total = List.length mutants in
  let done_cnt = Atomic.make 0 and kill_cnt = Atomic.make 0 in
  let screen_cnt = Atomic.make 0 and surv_cnt = Atomic.make 0 in
  let eval m =
    Telemetry.Span.with_ "mutate.mutant"
      ~args:[ ("id", Telemetry.Str (mutation_id m)) ]
    @@ fun () ->
    let s0 = Telemetry.now_s () in
    let outcome =
      match screen ?budget t m with
      | (Equal_hash | Equal_miter) as v ->
        Atomic.incr screen_cnt;
        { mutation = m; status = Screened v;
          screen_wall = Telemetry.now_s () -. s0; checks_wall = 0. }
      | Distinct ->
        let screen_wall = Telemetry.now_s () -. s0 in
        let status, checks_wall =
          first_detection ?max_depth ?portfolio ?store t m
        in
        (match status with
         | Killed _ ->
           Telemetry.Counter.incr m_killed;
           Atomic.incr kill_cnt
         | Survived ->
           Telemetry.Counter.incr m_survived;
           Atomic.incr surv_cnt
         | Screened _ -> ());
        { mutation = m; status; screen_wall; checks_wall }
    in
    Atomic.incr done_cnt;
    Telemetry.Progress.tick (fun () ->
        Printf.sprintf "mutate %s: %d/%d done (%d killed, %d screened, %d surviving)"
          t.target_name (Atomic.get done_cnt) total (Atomic.get kill_cnt)
          (Atomic.get screen_cnt) (Atomic.get surv_cnt));
    outcome
  in
  let outcomes, nworkers =
    match pool with
    | Some p -> (Parallel.Pool.map_list p eval mutants, Parallel.Pool.workers p)
    | None -> (
        match jobs with
        | None | Some 1 -> (List.map eval mutants, 1)
        | Some n ->
          Parallel.Pool.with_pool ~workers:n (fun p ->
              (Parallel.Pool.map_list p eval mutants, Parallel.Pool.workers p)))
  in
  {
    campaign_target = t.target_name;
    seed;
    raw = total;
    outcomes;
    campaign_wall = Telemetry.now_s () -. t0;
    campaign_jobs = nworkers;
  }

(* ---- accounting --------------------------------------------------------- *)

let killed c =
  List.filter (fun o -> match o.status with Killed _ -> true | _ -> false)
    c.outcomes

let survivors c =
  List.filter (fun o -> o.status = Survived) c.outcomes

let screened c =
  List.filter (fun o -> match o.status with Screened _ -> true | _ -> false)
    c.outcomes

let screened_hash c =
  List.length
    (List.filter (fun o -> o.status = Screened Equal_hash) c.outcomes)

let screened_miter c =
  List.length
    (List.filter (fun o -> o.status = Screened Equal_miter) c.outcomes)

let score c =
  let k = List.length (killed c) and s = List.length (survivors c) in
  if k + s = 0 then 1. else float_of_int k /. float_of_int (k + s)

let kill_depth_histogram c =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match o.status with
      | Killed d ->
        Hashtbl.replace tbl d.kill_depth
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.kill_depth))
      | Survived | Screened _ -> ())
    c.outcomes;
  Hashtbl.fold (fun depth n acc -> (depth, n) :: acc) tbl []
  |> List.sort compare

let per_op_stats c =
  List.filter_map
    (fun op ->
      let of_op = List.filter (fun o -> o.mutation.m_op = op) c.outcomes in
      if of_op = [] then None
      else
        let count p = List.length (List.filter p of_op) in
        let k = count (fun o -> match o.status with Killed _ -> true | _ -> false) in
        let scr =
          count (fun o -> match o.status with Screened _ -> true | _ -> false)
        in
        let s = count (fun o -> o.status = Survived) in
        Some (op, k + s, k, scr))
    all_ops

let per_check_kills c =
  List.map
    (fun check ->
      ( check,
        List.length
          (List.filter
             (fun o ->
               match o.status with
               | Killed d -> d.killed_by = check
               | Survived | Screened _ -> false)
             c.outcomes) ))
    [ "FC"; "RB"; "SAC" ]

let pp_campaign fmt c =
  let n_killed = List.length (killed c)
  and n_surv = List.length (survivors c)
  and n_scr = List.length (screened c) in
  Format.fprintf fmt
    "mutation campaign on %s (seed %d): %d mutants, %d screened out (%d hash, \
     %d miter), %d killed, %d surviving — score %.0f%% (%.1fs, %d worker%s)"
    c.campaign_target c.seed c.raw n_scr (screened_hash c) (screened_miter c)
    n_killed n_surv (100. *. score c) c.campaign_wall c.campaign_jobs
    (if c.campaign_jobs = 1 then "" else "s");
  Format.fprintf fmt "@\n  kills per check:";
  List.iter
    (fun (check, n) -> if n > 0 then Format.fprintf fmt " %s=%d" check n)
    (per_check_kills c);
  (match kill_depth_histogram c with
   | [] -> ()
   | hist ->
     Format.fprintf fmt "@\n  kill-depth histogram:";
     List.iter (fun (d, n) -> Format.fprintf fmt " %d:%d" d n) hist);
  Format.fprintf fmt "@\n  per operator (checked/killed/screened):";
  List.iter
    (fun (op, checked, k, scr) ->
      Format.fprintf fmt "@\n    %-8s %3d checked  %3d killed  %3d screened"
        (op_name op) checked k scr)
    (per_op_stats c);
  match survivors c with
  | [] -> Format.fprintf fmt "@\n  no survivors: every checked mutant was killed"
  | survs ->
    Format.fprintf fmt
      "@\n  SURVIVORS (verification gaps — no check kills these):";
    List.iter
      (fun o -> Format.fprintf fmt "@\n    %s" (site o.mutation))
      survs
