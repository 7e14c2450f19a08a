module Ir = Rtl.Ir

type verdict =
  | Bug of Bmc.Trace.t
  | No_bug_up_to of int

type certificate = Bmc.Engine.certificate =
  | Replayed of int
  | Rup_certified of int
  | Uncertified

type report = {
  check : string;
  verdict : verdict;
  wall_time : float;
  bmc_frames : int;
  aig_nodes : int;
  aig_nodes_raw : int;
  reduce_stats : Logic.Reduce.stats option;
  solver_stats : Sat.Solver.stats;
  certificate : certificate;
  key : string;
      (* structural hash of the prepared (reduced) instance — the same
         digest the verdict store keys on, and what journals join on *)
  winner : string;
      (* label of the solver configuration that produced the verdict (the
         portfolio winner when racing) *)
  series : (string * (float * float) list) list;
      (* solver time-series captured on the solving domain while this
         obligation ran: (name, (seconds-since-solve-start, value) list).
         Empty unless [Telemetry.Series] is configured. *)
}

let m_obligations = Telemetry.Counter.make "check.obligations"
let m_bugs = Telemetry.Counter.make "check.bugs"

(* The search side of one obligation: takes an already-prepared (bit-blasted
   and reduced) relation, so preparing once serves both the store key and
   the solve. *)
let run_bmc ?(portfolio = 1) ?(certify = false) ?solver ?(warm_depth = 0)
    ?cancel name ~max_depth prepared =
  Telemetry.Counter.incr m_obligations;
  Telemetry.Span.with_ "check"
    ~args:
      [ ("check", Telemetry.Str name);
        ("max_depth", Telemetry.Int max_depth);
        ("certify", Telemetry.Bool certify);
        ("portfolio", Telemetry.Int portfolio) ]
    ~end_args:(fun r ->
      [ ( "verdict",
          Telemetry.Str
            (match r.verdict with
             | Bug _ -> "bug"
             | No_bug_up_to _ -> "clean") );
        ( "depth",
          Telemetry.Int
            (match r.verdict with
             | Bug t -> Bmc.Trace.length t
             | No_bug_up_to k -> k) );
        ("wall_s", Telemetry.Float r.wall_time) ])
  @@ fun () ->
  (* [run_bmc] executes on whichever domain solves the obligation (a pool
     worker under [run_batch]), so marking/collecting the calling domain's
     rings attributes the samples to exactly this obligation. Portfolio
     members spawn their own domains and are not captured. *)
  if Telemetry.Series.active () then Telemetry.Series.mark ();
  let bmc_report =
    Bmc.Engine.check_prepared ~max_depth ~portfolio ~certify ?config:solver
      ~warm_depth ?cancel prepared
  in
  let series =
    if Telemetry.Series.active () then
      List.map
        (fun (name, pts) ->
          ( name,
            List.map
              (fun p -> Telemetry.Series.(p.at_s, p.value))
              pts ))
        (Telemetry.Series.collect ())
    else []
  in
  let verdict =
    match bmc_report.Bmc.Engine.outcome with
    | Bmc.Engine.Cex t ->
      Telemetry.Counter.incr m_bugs;
      Bug t
    | Bmc.Engine.Bounded_ok k -> No_bug_up_to k
  in
  {
    check = name;
    verdict;
    wall_time = bmc_report.Bmc.Engine.wall_time;
    bmc_frames = bmc_report.Bmc.Engine.frames_explored;
    aig_nodes = bmc_report.Bmc.Engine.aig_nodes;
    aig_nodes_raw = bmc_report.Bmc.Engine.aig_nodes_raw;
    reduce_stats = bmc_report.Bmc.Engine.reduce_stats;
    solver_stats = bmc_report.Bmc.Engine.solver_stats;
    certificate = bmc_report.Bmc.Engine.certificate;
    key = Bmc.Engine.prepared_key prepared;
    winner = bmc_report.Bmc.Engine.winner;
    series;
  }

(* Smallest counter width that cannot wrap within the BMC bound (or reach
   the RB thresholds): saturating/stream counters stay faithful as long as
   2^w exceeds every value they can see. *)
let rec bits_for n = if n <= 1 then 1 else 1 + bits_for ((n + 1) / 2)

let auto_cnt_width cnt_width ~max_depth ~floor =
  match cnt_width with
  | Some w -> w
  | None -> max 2 (bits_for (max (max_depth + 2) (floor + 2)))

(* ---- prepared obligations ----

   An obligation is the instrumentation recipe for one BMC run: a builder
   producing the monitored circuit and property, plus the solve parameters.
   Keeping the build as a closure (rather than an already-built circuit)
   lets the batch driver construct each instance inside the worker domain
   that solves it; the store key is the structural hash of the bit-blasted
   instance, whatever recipe produced it. *)

type obligation = {
  ob_name : string;
  ob_check : string;
  ob_max_depth : int;
  ob_reduce : bool;
  ob_sweep : bool;
  ob_build : unit -> Ir.circuit * Ir.signal;
}

let obligation_name o = o.ob_name

(* Build, bit-blast and reduce the obligation's instance exactly once. *)
let prepare_engine ob =
  Telemetry.Span.with_ "check.prepare"
    ~args:[ ("obligation", Telemetry.Str ob.ob_name) ]
  @@ fun () ->
  let circuit, prop = ob.ob_build () in
  Bmc.Engine.prepare ~reduce:ob.ob_reduce ~sweep:ob.ob_sweep circuit ~prop

let prepare_fc ?name ?(max_depth = 32) ?cnt_width ?shared ?lanes
    ?(reduce = true) ?(sweep = false) build =
  let cnt_width = auto_cnt_width cnt_width ~max_depth ~floor:0 in
  {
    ob_name = (match name with Some n -> n | None -> "FC");
    ob_check = "FC";
    ob_max_depth = max_depth;
    ob_reduce = reduce;
    ob_sweep = sweep;
    ob_build =
      (fun () ->
        let iface = build () in
        let shared_sig = Option.map (fun f -> f iface) shared in
        let monitor =
          match lanes with
          | None -> Fc_monitor.add ~cnt_width ?shared:shared_sig iface
          | Some lanes ->
            Fc_monitor.add_batch ~cnt_width ?shared:shared_sig ~lanes iface
        in
        (iface.Iface.circuit, monitor.Fc_monitor.prop));
  }

let prepare_rb ?name ?(max_depth = 32) ?cnt_width ~tau ?in_min
    ?starvation_bound ?(reduce = true) ?(sweep = false) build =
  let floor =
    max tau (match starvation_bound with Some b -> b | None -> tau)
  in
  let cnt_width = auto_cnt_width cnt_width ~max_depth ~floor in
  {
    ob_name = (match name with Some n -> n | None -> "RB");
    ob_check = "RB";
    ob_max_depth = max_depth;
    ob_reduce = reduce;
    ob_sweep = sweep;
    ob_build =
      (fun () ->
        let iface = build () in
        let monitor =
          Rb_monitor.add ~cnt_width ~tau ?in_min ?starvation_bound iface
        in
        let prop =
          Ir.logand monitor.Rb_monitor.response_prop
            monitor.Rb_monitor.starvation_prop
        in
        (iface.Iface.circuit, prop));
  }

let prepare_sac ?name ?(max_depth = 32) ~spec ?(reduce = true)
    ?(sweep = false) build =
  {
    ob_name = (match name with Some n -> n | None -> "SAC");
    ob_check = "SAC";
    ob_max_depth = max_depth;
    ob_reduce = reduce;
    ob_sweep = sweep;
    ob_build =
      (fun () ->
        let iface = build () in
        let monitor = Sac_monitor.add ~spec iface in
        (iface.Iface.circuit, monitor.Sac_monitor.prop));
  }

(* ---- the persistent verdict store ----

   Policy layer over [Store]: the store library guarantees an entry is
   intact (checksummed, version-matched, key- and fingerprint-exact);
   this layer decides whether the verdict inside may be trusted, and it
   never does so without certificate revalidation — a stored
   counterexample must replay on the cycle-accurate simulator against a
   freshly prepared instance, and a stored clean verdict is accepted only
   when its clean frames were RUP-certified at the recorded depth.
   Anything less degrades to a miss and a (certified) re-solve that
   overwrites the entry.

   Durable verdicts are certified verdicts: every store-mediated solve
   runs with [~certify:true] regardless of the caller's flag, so the
   entries written back always carry a replay- or RUP-backed
   certificate. *)

let m_store_hits = Telemetry.Counter.make "store.hits"
let m_store_misses = Telemetry.Counter.make "store.misses"
let m_store_revalidated = Telemetry.Counter.make "store.revalidated"
let m_store_invalid = Telemetry.Counter.make "store.invalid"
let m_store_warm = Telemetry.Counter.make "store.warm_starts"

(* A hit's report is rebuilt from the entry; [wall] is the time this
   process actually spent (prepare + lookup + revalidate), which is what
   journals and the warm-speedup measurement want. The entry's original
   solve time lives in [Store.e_wall]. *)
let report_of_entry ~check ~key ~wall ~verdict ~certificate
    (e : Store.entry) =
  {
    check;
    verdict;
    wall_time = wall;
    bmc_frames = e.Store.e_frames;
    aig_nodes = e.Store.e_aig_nodes;
    aig_nodes_raw = e.Store.e_aig_nodes_raw;
    reduce_stats = e.Store.e_reduce;
    solver_stats = e.Store.e_solver;
    certificate;
    key;
    winner = e.Store.e_winner;
    series = [];
  }

(* Only fully certified verdicts are durable: a [Bug] with its replayed
   (shrunk) trace, or a clean bound with its RUP depth. *)
let entry_of_report ~fingerprint ~check (r : report) =
  let base verdict cert =
    Some
      {
        Store.e_key = r.key;
        e_fingerprint = fingerprint;
        e_check = check;
        e_verdict = verdict;
        e_cert = cert;
        e_frames = r.bmc_frames;
        e_aig_nodes = r.aig_nodes;
        e_aig_nodes_raw = r.aig_nodes_raw;
        e_winner = r.winner;
        e_wall = r.wall_time;
        e_reduce = r.reduce_stats;
        e_solver = r.solver_stats;
        e_created_s = Unix.gettimeofday ();
      }
  in
  match (r.verdict, r.certificate) with
  | Bug t, Replayed c -> base (Store.Bug t) (Store.Cert_replayed c)
  | No_bug_up_to k, Rup_certified j -> base (Store.Clean k) (Store.Cert_rup j)
  | (Bug _ | No_bug_up_to _), _ -> None

(* Solve one obligation through the store. Returns
   [(store_hit, report)]; [store_hit] is true only when the verdict was
   answered from a revalidated entry without solving. *)
let run_with_store store ?portfolio ?solver ?cancel ob prepared =
  let key = Bmc.Engine.prepared_key prepared in
  let solver_label =
    Bmc.Engine.config_label
      (match solver with Some c -> c | None -> Bmc.Engine.default_config)
  in
  let config =
    Store.config_fingerprint ~reduce:ob.ob_reduce ~sweep:ob.ob_sweep
      ~certify:true ~solver_label
  in
  let fingerprint = Store.fingerprint ~config ~check:ob.ob_check in
  let t0 = Unix.gettimeofday () in
  let solve ?(warm_depth = 0) () =
    let r =
      run_bmc ?portfolio ~certify:true ?solver ~warm_depth ?cancel
        ob.ob_check ~max_depth:ob.ob_max_depth prepared
    in
    (match entry_of_report ~fingerprint ~check:ob.ob_check r with
     | Some e -> Store.store store e
     | None -> ());
    r
  in
  let miss () =
    Telemetry.Counter.incr m_store_misses;
    (false, solve ())
  in
  let invalid_then_miss () =
    Telemetry.Counter.incr m_store_invalid;
    miss ()
  in
  let hit verdict certificate e =
    Telemetry.Counter.incr m_store_hits;
    Telemetry.Counter.incr m_store_revalidated;
    ( true,
      report_of_entry ~check:ob.ob_check ~key
        ~wall:(Unix.gettimeofday () -. t0)
        ~verdict ~certificate e )
  in
  let k = ob.ob_max_depth in
  match Store.lookup store ~key ~fingerprint with
  | None -> miss ()
  | Some e -> (
      match (e.Store.e_verdict, e.Store.e_cert) with
      | Store.Bug t, Store.Cert_replayed _ -> (
          let len = Bmc.Trace.length t in
          (* Revalidate on the independent simulator against the freshly
             prepared instance; only the exact final-cycle violation
             confirms. *)
          match Bmc.Engine.replay_prepared prepared t with
          | Some c when c = len - 1 ->
            if len <= k then hit (Bug t) (Replayed (len - 1)) e
            else
              (* The stored bug is beyond this bound. Entries come from
                 certified searches, which RUP-check every clean frame on
                 the way to the counterexample, so frames 1..len-1 — and a
                 fortiori 1..k — are certified clean. *)
              hit (No_bug_up_to k) (Rup_certified k) e
          | Some _ | None -> invalid_then_miss ())
      | Store.Clean d0, Store.Cert_rup j when j >= d0 ->
        if d0 >= k then hit (No_bug_up_to k) (Rup_certified k) e
        else begin
          (* A deeper bound than the entry covers: resume the bounded
             search from the stored clean depth instead of from reset. The
             re-solve writes the deeper entry back. *)
          Telemetry.Counter.incr m_store_warm;
          match solve ~warm_depth:d0 () with
          | r -> (false, r)
          | exception Bmc.Engine.Warm_start_invalid _ -> invalid_then_miss ()
        end
      | (Store.Bug _ | Store.Clean _), _ ->
        (* Certificate kind disagrees with the verdict: never trust it. *)
        invalid_then_miss ())

(* [(store_hit, report)]: [store_hit] is true only when a store answered
   from a revalidated entry without solving. *)
let solve ?portfolio ?certify ?solver ?store ?cancel ob =
  let prepared = prepare_engine ob in
  match store with
  | Some s -> run_with_store s ?portfolio ?solver ?cancel ob prepared
  | None ->
    ( false,
      run_bmc ?portfolio ?certify ?solver ?cancel ob.ob_check
        ~max_depth:ob.ob_max_depth prepared )

let run_obligation ?portfolio ?certify ?solver ?store ?cancel ob =
  snd (solve ?portfolio ?certify ?solver ?store ?cancel ob)

let found_bug r = match r.verdict with Bug _ -> true | No_bug_up_to _ -> false

let trace_length r =
  match r.verdict with
  | Bug t -> Some (Bmc.Trace.length t)
  | No_bug_up_to _ -> None

(* The paper's flow: one obligation at a time, in the caller's order,
   stopping after the first counterexample. *)
let verify ?portfolio ?store obligations =
  let rec go = function
    | [] -> []
    | ob :: rest ->
      let r = run_obligation ?portfolio ?store ob in
      if found_bug r then [ r ] else r :: go rest
  in
  go obligations

(* ---- the parallel batch driver ---- *)

type batch_entry = {
  entry_name : string;
  entry_report : report;
  entry_cached : bool;
  entry_wall : float;
}

type batch_result = {
  entries : batch_entry list;
  batch_wall : float;
  batch_jobs : int;
  batch_hits : int;
  batch_misses : int;
}

let run_batch ?jobs ?pool ?portfolio ?certify ?solver ?store ?cancel
    obligations =
  let t0 = Unix.gettimeofday () in
  let run ob =
    let t0 = Unix.gettimeofday () in
    let cached, report = solve ?portfolio ?certify ?solver ?store ?cancel ob in
    {
      entry_name = ob.ob_name;
      entry_report = report;
      entry_cached = cached;
      entry_wall = Unix.gettimeofday () -. t0;
    }
  in
  let entries, nworkers =
    match pool with
    | Some p -> (Parallel.Pool.map_list p run obligations, Parallel.Pool.workers p)
    | None ->
      Parallel.Pool.with_pool ?workers:jobs (fun p ->
          (Parallel.Pool.map_list p run obligations, Parallel.Pool.workers p))
  in
  (* Attribute store traffic per entry rather than by diffing the global
     store counters: with two batches sharing one store concurrently, the
     diff charges this batch for the other's lookups. Without a store the
     pair stays 0/0, so printers keep eliding the store summary. *)
  let batch_hits, batch_misses =
    match store with
    | None -> (0, 0)
    | Some _ ->
      List.fold_left
        (fun (h, m) e -> if e.entry_cached then (h + 1, m) else (h, m + 1))
        (0, 0) entries
  in
  {
    entries;
    batch_wall = Unix.gettimeofday () -. t0;
    batch_jobs = nworkers;
    batch_hits;
    batch_misses;
  }

let batch_reports b = List.map (fun e -> e.entry_report) b.entries

let pp_batch fmt b =
  Format.fprintf fmt "batch: %d obligations, %d workers, %.3fs wall"
    (List.length b.entries) b.batch_jobs b.batch_wall;
  if b.batch_hits + b.batch_misses > 0 then
    Format.fprintf fmt " (%d store hit%s / %d solved)" b.batch_hits
      (if b.batch_hits = 1 then "" else "s")
      b.batch_misses;
  List.iter
    (fun e ->
      Format.fprintf fmt "@\n  %-28s %6.3fs%s  " e.entry_name e.entry_wall
        (if e.entry_cached then " (cached)" else "");
      (match e.entry_report.verdict with
       | Bug t -> Format.fprintf fmt "BUG at depth %d" (Bmc.Trace.length t)
       | No_bug_up_to k -> Format.fprintf fmt "clean to %d" k);
      match e.entry_report.certificate with
      | Uncertified -> ()
      | c -> Format.fprintf fmt " [%a]" Bmc.Engine.pp_certificate c)
    b.entries

let pp_report fmt r =
  (match r.verdict with
   | Bug t ->
     Format.fprintf fmt "%s: BUG (%d-cycle counterexample, %.3fs)" r.check
       (Bmc.Trace.length t) r.wall_time
   | No_bug_up_to k ->
     Format.fprintf fmt "%s: clean up to depth %d (%.3fs)" r.check k
       r.wall_time);
  match r.certificate with
  | Uncertified -> ()
  | c -> Format.fprintf fmt " [%a]" Bmc.Engine.pp_certificate c
