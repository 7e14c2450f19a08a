module Aig = Logic.Aig
module Tseitin = Logic.Tseitin
module Solver = Sat.Solver
module Rup = Sat.Rup

type outcome =
  | Cex of Trace.t
  | Bounded_ok of int

type certificate =
  | Replayed of int
  | Rup_certified of int
  | Uncertified

exception Certification_failed of string

exception Warm_start_invalid of string

type report = {
  outcome : outcome;
  frames_explored : int;
  wall_time : float;
  solver_stats : Solver.stats;
  aig_nodes : int;
  aig_nodes_raw : int;
  reduce_stats : Logic.Reduce.stats option;
  certificate : certificate;
  winner : string;
      (* label of the solver configuration that produced this report — under
         a portfolio race, the member that finished first *)
}

let outcome_label = function
  | Cex _ -> "cex"
  | Bounded_ok _ -> "bounded_ok"

(* Telemetry series for the engine layer: frame throughput, the depth the
   engine is currently working at, per-frame solve latency, and how the
   portfolio races end. *)
let m_frames = Telemetry.Counter.make "bmc.frames"
let g_frame_depth = Telemetry.Gauge.make "bmc.frame_depth"
let h_frame_solve = Telemetry.Histogram.make "bmc.frame_solve_s"
let m_portfolio_wins = Telemetry.Counter.make "bmc.portfolio.wins"
let m_portfolio_cancelled = Telemetry.Counter.make "bmc.portfolio.cancelled"

(* Certification series: counterexamples confirmed by simulator replay,
   UNSAT frames confirmed by the RUP checker, and divergences of any kind
   (which also raise {!Certification_failed}). *)
let m_cert_replayed = Telemetry.Counter.make "cert.replayed"
let m_cert_rup_valid = Telemetry.Counter.make "cert.rup_valid"
let m_cert_failures = Telemetry.Counter.make "cert.failures"

let pp_certificate fmt = function
  | Replayed c -> Format.fprintf fmt "replayed (violation at cycle %d)" c
  | Rup_certified k -> Format.fprintf fmt "RUP-certified to depth %d" k
  | Uncertified -> Format.fprintf fmt "uncertified"

(* ---- portfolio configurations ---- *)

type solver_config = {
  seed : int;
  restart_base : int;
  phase_init : bool;
  phase_saving : bool;
  restarts : Solver.restart_style;
  inprocess : bool;
}

let default_config =
  { seed = 0; restart_base = 100; phase_init = false; phase_saving = true;
    restarts = Solver.Luby; inprocess = true }

(* Diversification menu: the first entry is always the base config (so a
   1-member portfolio is the sequential engine), later members vary the
   VSIDS tie-break seed, the restart strategy and cadence, and the polarity
   heuristic — odd members run EMA restarts for genuine strategy diversity
   rather than just seed diversity. *)
let portfolio_configs ?(base = default_config) n =
  let luby_bases = [| 100; 400; 50; 200 |] in
  List.init (max 1 n) (fun i ->
      if i = 0 then base
      else
        let restarts = if i mod 2 = 0 then Solver.Luby else Solver.Ema in
        {
          base with
          seed = i;
          restart_base =
            (match restarts with
             | Solver.Ema -> 50
             | Solver.Luby -> luby_bases.(i mod Array.length luby_bases));
          restarts;
          phase_init = i mod 3 = 1;
          phase_saving = i mod 4 <> 3;
        })

let solver_of_config (c : solver_config) =
  Solver.create ~seed:c.seed ~restart_base:c.restart_base
    ~phase_init:c.phase_init ~phase_saving:c.phase_saving
    ~restarts:c.restarts ()

(* A stable, human-readable identity for a configuration — what the journal
   records as the portfolio winner. *)
let config_label (c : solver_config) =
  Printf.sprintf "%s:rb%d:seed%d%s%s%s"
    (match c.restarts with Solver.Luby -> "luby" | Solver.Ema -> "ema")
    c.restart_base c.seed
    (if c.inprocess then "" else ":noinp")
    (if c.phase_init then ":p1" else "")
    (if c.phase_saving then "" else ":nops")

(* The transition relation of a circuit, shared by all frames: one AIG with
   the property cone, assumption cones and latch next-state cones — after
   the structural reduction pipeline unless the caller opted out. Latches
   are kept bit-level (reduction drops and folds individual bits); the
   signal-level views [input_sigs]/[reg_sigs] are for trace display, with
   edges mapped into the reduced graph (bits outside the cone of influence
   map to constant false — their values cannot matter). *)
type relation = {
  aig : Aig.t;
  bad : Aig.lit;                                  (* NOT property *)
  assume_lits : Aig.lit list;
  latch_bits : (Aig.lit * Aig.lit * bool) array;  (* cur, next, init *)
  input_sigs : (Rtl.Ir.signal * Aig.lit array) list;
  reg_sigs : (Rtl.Ir.signal * Aig.lit array) list;
  raw_nodes : int;                                (* before reduction *)
  reduce_stats : Logic.Reduce.stats option;
}

(* The reachable-constant-latch pass always runs: folding reachability
   facts into the relation is sound for bounded checks from reset, the only
   search this engine performs.
   [sweep] (default off here, though on in [Logic.Reduce.run]) gates SAT
   sweeping: on most of this repository's obligations the proven merges
   are few (2-4% of nodes), and any merge changes the CNF and so the
   solver's trajectory; the engine treats sweeping as an explicit opt-in
   (CLI [--sweep]). Measurements are under [prepare] in engine.mli. *)
let build_relation ?(reduce = true) ?(sweep = false) circuit ~prop =
  if Rtl.Ir.width prop <> 1 then
    invalid_arg "Bmc: property must be a 1-bit signal";
  let blast = Rtl.Blast.create circuit in
  let bad = Aig.not_ (Rtl.Blast.lit1 blast prop) in
  let assume_lits = List.map (Rtl.Blast.lit1 blast) (Rtl.Ir.assumes circuit) in
  Rtl.Blast.finalize blast;
  let aig = Rtl.Blast.aig blast in
  let latches = Rtl.Blast.latches blast in
  let input_sigs = Rtl.Blast.input_bits blast in
  let latch_bits =
    Array.of_list
      (List.concat_map
         (fun (l : Rtl.Blast.latch) ->
           List.init (Array.length l.cur) (fun i ->
               (l.cur.(i), l.next.(i), Bitvec.bit l.init i)))
         latches)
  in
  let reg_sigs = List.map (fun (l : Rtl.Blast.latch) -> (l.reg, l.cur)) latches in
  if not reduce then
    {
      aig;
      bad;
      assume_lits;
      latch_bits;
      input_sigs;
      reg_sigs;
      raw_nodes = Aig.nb_nodes aig;
      reduce_stats = None;
    }
  else begin
    let red =
      Logic.Reduce.run ~sweep aig ~bad ~assumes:assume_lits
        ~latches:
          (Array.map
             (fun (cur, next, init) -> { Logic.Reduce.cur; next; init })
             latch_bits)
    in
    let map_or_false l =
      match Logic.Reduce.map red l with Some e -> e | None -> Aig.false_
    in
    {
      aig = red.Logic.Reduce.aig;
      bad = red.Logic.Reduce.bad;
      assume_lits = red.Logic.Reduce.assumes;
      latch_bits =
        Array.map
          (fun (l : Logic.Reduce.latch) -> (l.cur, l.next, l.init))
          red.Logic.Reduce.latches;
      input_sigs =
        List.map
          (fun (s, bits) -> (s, Array.map map_or_false bits))
          input_sigs;
      reg_sigs =
        List.map (fun (s, bits) -> (s, Array.map map_or_false bits)) reg_sigs;
      raw_nodes = Aig.nb_nodes aig;
      reduce_stats = Some red.Logic.Reduce.stats;
    }
  end

(* One frame: a Tseitin instantiation of the relation with the latch inputs
   bound to the reset constants (frame 0) or to the previous frame's
   next-state values (constants fold through). *)
type binding =
  | Bind_init
  | Bind_prev of Tseitin.env

(* [consts], when given, is the temporal-decomposition row for this frame
   ({!Logic.Reduce.frame_constants}): a latch bit known to hold a constant
   at this cycle on every execution is bound directly, and its transition
   cone in the previous frame is never encoded. The omitted equality is
   implied by the unrolling, so the satisfying assignments are unchanged. *)
let m_temporal = Telemetry.Counter.make "bmc.temporal_consts"

let make_frame ?consts solver rel binding =
  let env = Tseitin.create solver rel.aig in
  Array.iteri
    (fun i (cur, next, init) ->
      let known = match consts with Some row -> row.(i) | None -> None in
      match binding, known with
      | Bind_init, _ -> Tseitin.bind_const env cur init
      | Bind_prev _, Some b ->
        Telemetry.Counter.incr m_temporal;
        Tseitin.bind_const env cur b
      | Bind_prev prev, None -> (
          match Tseitin.value_of prev next with
          | Tseitin.Cst b -> Tseitin.bind_const env cur b
          | Tseitin.Lit s -> Tseitin.bind env cur s))
    rel.latch_bits;
  List.iter (fun a -> Tseitin.assert_true env a) rel.assume_lits;
  env

let extract_trace solver rel envs ~prop_name =
  let read_bit env l =
    match Tseitin.value_of env l with
    | Tseitin.Cst b -> b
    | Tseitin.Lit s -> Solver.lit_value solver s
  in
  let read_bits env bits =
    Bitvec.of_bits (Array.to_list (Array.map (read_bit env) bits))
  in
  let sig_name s =
    match Rtl.Ir.signal_name s with Some n -> n | None -> "?"
  in
  let frames =
    List.map
      (fun env ->
        let inputs =
          List.map
            (fun (s, bits) -> (sig_name s, read_bits env bits))
            rel.input_sigs
        in
        let regs =
          List.map
            (fun (s, bits) -> (sig_name s, read_bits env bits))
            rel.reg_sigs
        in
        { Trace.inputs; regs })
      envs
  in
  { Trace.property = prop_name; frames }

let prop_name circuit prop =
  let by_output =
    List.find_opt (fun (_, s) -> s == prop) (Rtl.Ir.outputs circuit)
  in
  match by_output with
  | Some (n, _) -> n
  | None -> Printf.sprintf "%s#prop" (Rtl.Ir.circuit_name circuit)

(* Outcome of asking for a violation in one frame. *)
type frame_answer = Violated | Clean

(* ---- verdict certification ---- *)

(* Per-search RUP certification state: one independent checker that the
   solver streams its proof into — problem clauses verbatim, each derived
   clause checked the moment it is derived, along the ids its conflict
   analysis resolved on — plus the frame and step position for messages. *)
type cert_state = {
  checker : Rup.checker;
  mutable depth : int;
  mutable step : int;  (* steps checked since the frame began *)
}

let cert_fail msg =
  Telemetry.Counter.incr m_cert_failures;
  raise (Certification_failed msg)

(* The sink aborts the search on the first derived clause whose chain the
   checker does not close: the exception leaves the solver call that
   derived it. Learned clauses never depend on the assumption (conflict
   analysis resolves only on clauses), so the steps check without it. *)
let cert_sink cs =
  {
    Solver.on_clause = (fun id lits -> Rup.add_clause ~id cs.checker lits);
    on_step =
      (fun id lits chain ->
        if not (Rup.add_step ~id ~chain cs.checker lits) then
          cert_fail
            (Printf.sprintf
               "frame %d: derived clause #%d is not closed by its RUP chain"
               cs.depth cs.step);
        cs.step <- cs.step + 1);
  }

(* A frame answered Unsat under the single assumption [bad_lit], which the
   solver can only conclude at decision level 0 — so [-bad_lit] is fixed
   there, and the solver has sent it as a unit step chained to its reason
   (or the formula is refuted outright). The check closes at once against
   that root fact. The blocking clause the search adds next reaches the
   checker the same way, as a problem clause. *)
let certify_clean_frame cs ~depth bad_lit =
  if not (Rup.check_step cs.checker [ -bad_lit ]) then
    cert_fail
      (Printf.sprintf
         "frame %d: UNSAT answer not confirmed — the bad literal is not \
          refuted at the root"
         depth);
  Telemetry.Counter.incr m_cert_rup_valid

(* The bad cone is only ever asserted (assumed true here, clause-blocked
   below), so a positive-polarity Plaisted–Greenbaum encoding would
   suffice for soundness — but not for speed: the one-sided cone stays in
   the incremental instance across all later depths with crippled unit
   propagation, and the [-bad_lit] block stops pruning. Measured on the
   AES FC obligation this costs ~50% more conflicts at depth 10 and >4x
   wall time at depth 13, so the engine asks for the full biconditional
   ([Pos] remains available for one-shot queries). *)
let query_frame ?cert ~depth solver env bad =
  match Tseitin.value_of ~pol:Tseitin.Both env bad with
  | Tseitin.Cst false ->
    (* The bad cone folded to constant false: clean with no SAT query to
       certify (the fact is structural, established by the encoder). *)
    (match cert with
     | Some _ -> Telemetry.Counter.incr m_cert_rup_valid
     | None -> ());
    Clean
  | Tseitin.Cst true -> Violated
  | Tseitin.Lit bad_lit -> (
      match Solver.solve ~assumptions:[ bad_lit ] solver with
      | Solver.Sat -> Violated
      | Solver.Unsat ->
        (match cert with
         | Some cs -> certify_clean_frame cs ~depth bad_lit
         | None -> ());
        (* Exclude this frame's violation from future searches. *)
        Solver.add_clause solver [ -bad_lit ];
        Clean)

(* Greedy counterexample shrinking, entirely on the simulator: try forcing
   each input of each cycle to all-zeros and keep the change whenever the
   trace still violates at its final cycle (with every circuit assumption
   still holding — {!Trace.replay_result} aborts otherwise). The result is
   a locally-minimal witness under per-signal zeroing. *)
let shrink_trace sim trace prop =
  let expected = Trace.length trace - 1 in
  let frames = Array.of_list trace.Trace.frames in
  let current () = { trace with Trace.frames = Array.to_list frames } in
  let confirms () = Trace.replay_result sim (current ()) prop = Some expected in
  Array.iteri
    (fun c (f : Trace.frame) ->
      List.iter
        (fun (name, v) ->
          if not (Bitvec.is_zero v) then begin
            let saved = frames.(c) in
            frames.(c) <-
              {
                saved with
                Trace.inputs =
                  List.map
                    (fun (n, w) ->
                      if String.equal n name then (n, Bitvec.zero (Bitvec.width w))
                      else (n, w))
                    saved.Trace.inputs;
              };
            if not (confirms ()) then frames.(c) <- saved
          end)
        f.Trace.inputs)
    frames;
  current ()

(* Register values in a SAT-extracted trace are read from the reduced
   relation (bits outside the cone of influence read false); after
   shrinking, recompute them from the simulator so the displayed trace is
   self-consistent. *)
let resimulate_regs sim rel trace =
  match trace.Trace.frames with
  | [] -> trace
  | f0 :: _ when f0.Trace.regs = [] -> trace
  | _ ->
    Rtl.Sim.reset sim;
    let sig_name s =
      match Rtl.Ir.signal_name s with Some n -> n | None -> "?"
    in
    let frames =
      List.map
        (fun (f : Trace.frame) ->
          List.iter (fun (n, v) -> Rtl.Sim.set_input sim n v) f.inputs;
          let regs =
            List.map
              (fun (s, _) -> (sig_name s, Rtl.Sim.reg_value sim s))
              rel.reg_sigs
          in
          Rtl.Sim.step sim;
          { f with Trace.regs })
        trace.Trace.frames
    in
    { trace with Trace.frames = frames }

(* Independent confirmation of a counterexample: replay it on the
   cycle-accurate simulator (which shares no code with the
   AIG/Tseitin/CNF pipeline) and require the first violation to land
   exactly on the trace's final cycle, then shrink. *)
let certify_cex circuit prop rel trace =
  let sim = Rtl.Sim.create circuit in
  let expected = Trace.length trace - 1 in
  (match Trace.replay_result sim trace prop with
   | Some c when c = expected -> ()
   | Some c ->
     cert_fail
       (Printf.sprintf
          "counterexample replay diverged: SAT claims a violation at cycle \
           %d, the simulator first violates at cycle %d"
          expected c)
   | None ->
     cert_fail
       (Printf.sprintf
          "counterexample replay diverged: SAT claims a violation at cycle \
           %d, the simulator sees none (or an assumption fails)"
          expected));
  let trace = shrink_trace sim trace prop in
  let trace = resimulate_regs sim rel trace in
  Telemetry.Counter.incr m_cert_replayed;
  trace

(* The sequential bounded search over one (shared, read-only) relation,
   parameterized by a solver configuration and a list of cancellation
   flags (a portfolio's race flag, a caller's job flag). The flags are
   polled both inside the CDCL loop (via [Solver.set_cancel]) and between
   frames, so a cancelled search stops within a bounded amount of work
   wherever it happens to be. *)
(* [warm] frames at the start of the search are trusted clean (the caller
   holds a certified verdict store entry covering them): each is encoded
   and its bad literal blocked as a problem clause, but never solved. The
   search then resumes at [warm + 1] on the full unrolling, so deeper
   verdicts and counterexamples are identical to a cold search — under the
   warm assumption. If the bad cone folds to constant true inside the
   trusted prefix the assumption is contradicted structurally and the
   search raises {!Warm_start_invalid} instead of masking the bug; the
   caller falls back to a cold solve. *)
let bounded_search ?(certify = None) ?(warm = 0) rel ~name ~max_depth
    ~frame_consts ~config ~cancel =
  Telemetry.Span.with_ "bmc.search"
    ~args:
      [ ("prop", Telemetry.Str name);
        ("seed", Telemetry.Int config.seed);
        ("restart_base", Telemetry.Int config.restart_base);
        ("max_depth", Telemetry.Int max_depth) ]
    ~end_args:(fun r ->
      [ ("outcome", Telemetry.Str (outcome_label r.outcome));
        ("frames", Telemetry.Int r.frames_explored) ])
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let solver = solver_of_config config in
  Solver.set_cancel solver cancel;
  let cert =
    match certify with
    | None -> None
    | Some _ ->
      (* Proof recording must precede the first clause; each portfolio
         member certifies its own solver run independently. *)
      let cs = { checker = Rup.create (); depth = 0; step = 0 } in
      Solver.enable_proof solver (cert_sink cs);
      Some cs
  in
  let finish ?(certificate = Uncertified) outcome depth =
    {
      outcome;
      frames_explored = depth;
      wall_time = Unix.gettimeofday () -. t0;
      solver_stats = Solver.stats solver;
      aig_nodes = Aig.nb_nodes rel.aig;
      aig_nodes_raw = rel.raw_nodes;
      reduce_stats = rel.reduce_stats;
      certificate;
      winner = config_label config;
    }
  in
  let rec go envs_rev depth =
    if List.exists Atomic.get cancel then raise Solver.Cancelled;
    if depth > max_depth then
      let certificate =
        match cert with Some _ -> Rup_certified max_depth | None -> Uncertified
      in
      finish ~certificate (Bounded_ok max_depth) max_depth
    else begin
      Telemetry.Progress.tick (fun () ->
          Printf.sprintf "bmc %s: frame %d/%d" name depth max_depth);
      (* Forced: a frame is a whole SAT solve, so one point per frame is
         cheap and guarantees fast obligations still chart their depth
         progression instead of an empty series. *)
      Telemetry.Series.sample ~force:true (fun () ->
          [ ("bmc.depth", float_of_int depth) ]);
      let tf = Unix.gettimeofday () in
      (match cert with
       | Some cs ->
         cs.depth <- depth;
         cs.step <- 0
       | None -> ());
      let binding =
        match envs_rev with [] -> Bind_init | prev :: _ -> Bind_prev prev
      in
      (* Frame at depth [d] models cycle [d - 1]; depth 1 is the reset frame
         and already binds every latch, so temporal constants only matter
         from depth 2 on. *)
      let consts =
        match frame_consts with
        | Some rows when depth >= 2 -> Some rows.(depth - 1)
        | Some _ | None -> None
      in
      let env, answer =
        Telemetry.Span.with_ "bmc.frame"
          ~args:[ ("depth", Telemetry.Int depth) ]
          ~end_args:(fun (_, a) ->
            [ ( "answer",
                Telemetry.Str
                  (match a with Violated -> "violated" | Clean -> "clean") ) ])
          (fun () ->
            let env = make_frame ?consts solver rel binding in
            let answer =
              if depth <= warm then begin
                (* Trusted-clean frame: assert the bad cone false without a
                   SAT query. Under certification the added clause reaches
                   the RUP checker as a problem clause through the proof
                   sink, so the certificate composes: this run
                   certifies frames [warm+1 ..] conditional on the stored
                   certificate for frames [1 .. warm]. *)
                (match Tseitin.value_of ~pol:Tseitin.Both env rel.bad with
                 | Tseitin.Cst false -> ()
                 | Tseitin.Cst true ->
                   raise
                     (Warm_start_invalid
                        (Printf.sprintf
                           "frame %d: bad cone is structurally violated \
                            inside the trusted-clean prefix (stale store \
                            entry?)"
                           depth))
                 | Tseitin.Lit bad_lit -> Solver.add_clause solver [ -bad_lit ]);
                Clean
              end
              else query_frame ?cert ~depth solver env rel.bad
            in
            (env, answer))
      in
      Telemetry.Counter.incr m_frames;
      Telemetry.Gauge.set g_frame_depth depth;
      Telemetry.Histogram.observe h_frame_solve (Unix.gettimeofday () -. tf);
      let envs_rev = env :: envs_rev in
      match answer with
      | Violated ->
        let trace =
          extract_trace solver rel (List.rev envs_rev) ~prop_name:name
        in
        let trace, certificate =
          match certify with
          | Some (circuit, prop) ->
            let trace = certify_cex circuit prop rel trace in
            (trace, Replayed (Trace.length trace - 1))
          | None -> (trace, Uncertified)
        in
        finish ~certificate (Cex trace) depth
      | Clean ->
        (* Between-frame inprocessing: vivify and root-simplify the clause
           database before the next (larger) frame is encoded. Skipped on
           the last frame, where no further query would benefit. Under
           certification each derived clause is checked as it is sent to
           the proof sink (numbered within this frame in messages). *)
        if config.inprocess && depth < max_depth && depth >= warm then
          Solver.simplify_inplace solver;
        go envs_rev (depth + 1)
    end
  in
  go [] 1

(* Race one search per configuration, each in its own domain, on the shared
   relation (Tseitin encoding only reads the AIG). The first finisher
   publishes its report and trips the cancellation flag; losers unwind on
   [Solver.Cancelled] and are discarded. Every member explores depths in
   order, so the winning outcome and counterexample depth are the same
   whichever configuration lands first — only the solver statistics and
   wall time depend on the race. *)
let race_portfolio ?ext_cancel configs run =
  let cancel = Atomic.make false in
  (* Members poll the race flag and the external one (per-job timeout in
     the serve daemon) side by side. Only the race flag is ever written, so
     a shared external flag stays untouched when a winner trips it. *)
  let flags = cancel :: Option.to_list ext_cancel in
  let lock = Mutex.create () in
  let winner = ref None in
  let error = ref None in
  let domains =
    List.map
      (fun config ->
        Domain.spawn (fun () ->
            match run ~config ~cancel:flags with
            | r ->
              Mutex.lock lock;
              (match !winner with
               | None ->
                 winner := Some r;
                 Atomic.set cancel true;
                 Telemetry.Counter.incr m_portfolio_wins;
                 Telemetry.Span.instant "bmc.portfolio.win"
                   ~args:[ ("seed", Telemetry.Int config.seed) ]
               | Some _ -> ());
              Mutex.unlock lock
            | exception Solver.Cancelled ->
              Telemetry.Counter.incr m_portfolio_cancelled;
              Telemetry.Span.instant "bmc.portfolio.cancelled"
                ~args:[ ("seed", Telemetry.Int config.seed) ]
            | exception e ->
              Mutex.lock lock;
              (match !error with
               | None ->
                 error := Some e;
                 Atomic.set cancel true
               | Some _ -> ());
              Mutex.unlock lock))
      configs
  in
  List.iter Domain.join domains;
  match (!winner, !error) with
  | Some r, _ -> r
  | None, Some e -> raise e
  | None, None ->
    (* Every member unwound on the race flag. When the external flag is
       the reason, surface the cooperative-cancellation exception the
       caller is waiting for rather than an internal error. *)
    if match ext_cancel with Some f -> Atomic.get f | None -> false then
      raise Solver.Cancelled
    else failwith "Bmc.race_portfolio: no member finished"

(* ---- prepared obligations ---- *)

(* One bit-blast (and one reduction) per obligation: the prepared relation
   feeds both the cache key and the search, instead of rebuilding the
   relation once for the key and again for the check. *)
type prepared = {
  rel : relation;
  prepared_name : string;
  prepared_key : string Lazy.t;
  (* The source circuit and property, retained for certification: replaying
     a counterexample needs the cycle-accurate simulator, which runs on the
     original IR, not the reduced relation. *)
  prepared_circuit : Rtl.Ir.circuit;
  prepared_prop : Rtl.Ir.signal;
}

(* Serializes everything the BMC outcome depends on — the AIG gate
   structure, the bad edge, the assumption edges and the latch wiring with
   reset values — and digests it. Input names are deliberately excluded:
   obligations that bit-blast to the same graph (the same sub-check
   regenerated for another bug variant or configuration) get the same key,
   which is exactly what the store wants. The reduction pipeline
   is deterministic, so keying the *reduced* graph is stable — and
   obligations that only differ outside their cones of influence now hash
   equal too. *)
let key_of_relation rel =
  let buf = Buffer.create (16 * Aig.nb_nodes rel.aig) in
  let add_int n =
    Buffer.add_char buf (Char.chr (n land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))
  in
  let add_lit (l : Aig.lit) = add_int (l :> int) in
  add_int (Aig.nb_nodes rel.aig);
  for idx = 0 to Aig.nb_nodes rel.aig - 1 do
    match Aig.fanins rel.aig idx with
    | Some (a, b) ->
      add_lit a;
      add_lit b
    | None -> add_int (-1)
  done;
  add_lit rel.bad;
  add_int (List.length rel.assume_lits);
  List.iter add_lit rel.assume_lits;
  add_int (Array.length rel.latch_bits);
  Array.iter
    (fun (cur, next, init) ->
      add_lit cur;
      add_lit next;
      Buffer.add_char buf (if init then '1' else '0'))
    rel.latch_bits;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let prepare ?(reduce = true) ?(sweep = false) circuit ~prop =
  let rel = build_relation ~reduce ~sweep circuit ~prop in
  {
    rel;
    prepared_name = prop_name circuit prop;
    prepared_key = lazy (key_of_relation rel);
    prepared_circuit = circuit;
    prepared_prop = prop;
  }

let prepared_key p = Lazy.force p.prepared_key
let prepared_stats p = p.rel.reduce_stats

(* Cheap revalidation of a stored counterexample: replay it on the
   cycle-accurate simulator (the same independent mechanism certification
   uses) against the prepared obligation's source circuit. Returns the
   first violating cycle, [None] when the trace witnesses nothing. *)
let replay_prepared p trace =
  let sim = Rtl.Sim.create p.prepared_circuit in
  Trace.replay_result sim trace p.prepared_prop

let check_prepared ?(max_depth = 64) ?(portfolio = 1) ?(certify = false)
    ?(config = default_config) ?(warm_depth = 0) ?cancel p =
  (* Temporal decomposition rides the [reduce] switch: with reduction off the
     engine must encode exactly the raw relation (that is the --no-reduce
     contract the A/B regression leans on). The chain below is rooted at
     reset, which is precisely when {!Logic.Reduce.frame_constants} is
     sound; the rows are computed once and shared read-only by every
     portfolio member. *)
  let frame_consts =
    match p.rel.reduce_stats with
    | None -> None
    | Some _ ->
      Some
        (Logic.Reduce.frame_constants p.rel.aig
           ~latches:
             (Array.map
                (fun (cur, next, init) -> { Logic.Reduce.cur; next; init })
                p.rel.latch_bits)
           ~depth:max_depth)
  in
  let certify =
    if certify then Some (p.prepared_circuit, p.prepared_prop) else None
  in
  let warm = min (max 0 warm_depth) max_depth in
  let run ~config ~cancel =
    bounded_search ~certify ~warm p.rel ~name:p.prepared_name ~max_depth
      ~frame_consts ~config ~cancel
  in
  if portfolio <= 1 then run ~config ~cancel:(Option.to_list cancel)
  else
    race_portfolio ?ext_cancel:cancel
      (portfolio_configs ~base:config portfolio)
      run

let check ?max_depth ?portfolio ?certify ?config ?(reduce = true)
    ?(sweep = false) circuit ~prop =
  check_prepared ?max_depth ?portfolio ?certify ?config
    (prepare ~reduce ~sweep circuit ~prop)

let obligation_key ?(reduce = true) ?(sweep = false) circuit ~prop =
  prepared_key (prepare ~reduce ~sweep circuit ~prop)
