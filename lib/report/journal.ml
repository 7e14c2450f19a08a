(* The verification run ledger: an append-only JSONL file, one JSON object
   per line. Line kinds:

   - ["meta"]       — run metadata (command, design, git rev, jobs, seed,
                      flags); written once at the head of each run's
                      contribution.
   - ["obligation"] — one solved A-QED obligation, keyed by the structural
                      hash of its prepared (reduced) instance — the same
                      digest the persistent store keys its verdicts by.
   - ["mutant"]     — one mutant from a fault-injection campaign.

   The schema is versioned; [load] accepts only the current version and
   skips blank lines. Everything here is plain data — rendering lives in
   {!Html}, diffing in {!Compare}. *)

let schema = 1

type meta = {
  created_s : float;  (* unix seconds; 0. when unknown *)
  command : string;   (* "check" | "verify" | "mutate" | "bench" *)
  design : string;
  git_rev : string;   (* "" when not in a git checkout *)
  jobs : int;
  seed : int;
  flags : string list;
  fingerprint : string;
      (* cache-relevant config fingerprint ({!Store.config_fingerprint}):
         format version, reduce/sweep/certify, solver config label. "" in
         journals written before it was recorded. *)
}

type reduce = {
  nodes_before : int;
  nodes_after : int;
  latches_before : int;
  latches_after : int;
}

type solver = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  max_var : int;
  clauses : int;
  lbd_core : int;
  lbd_mid : int;
  lbd_local : int;
  reductions : int;
  vivified : int;
}

type obligation = {
  ob_design : string;
  ob_name : string;        (* batch entry label, e.g. "v1/FC" *)
  ob_check : string;       (* "FC" | "RB" | "SAC" *)
  ob_key : string;         (* structural hash of the prepared instance *)
  ob_verdict : string;     (* "bug" | "clean" *)
  ob_depth : int;          (* cex length or clean bound *)
  ob_certificate : string; (* "replayed:N" | "rup:N" | "none" *)
  ob_winner : string;      (* solver config label that produced the verdict *)
  ob_cached : bool;
  ob_wall_s : float;
  ob_frames : int;
  ob_aig_nodes : int;
  ob_aig_nodes_raw : int;
  ob_reduce : reduce option;
  ob_solver : solver option;
  ob_series : (string * (float * float) list) list;
      (* sampled solver time-series: (name, (t_rel_s, value) list) *)
}

type mutant = {
  mu_design : string;
  mu_id : string;          (* stable structural id *)
  mu_op : string;
  mu_site : string;
  mu_status : string;      (* "killed"|"survived"|"screened-hash"|"screened-miter" *)
  mu_killed_by : string option;  (* "FC"|"RB"|"SAC" when killed *)
  mu_kill_depth : int option;
  mu_screen_s : float;
  mu_checks_s : float;
}

type record =
  | Meta of meta
  | Obligation of obligation
  | Mutant of mutant

type run = {
  run_meta : meta;
  run_obligations : obligation list;
  run_mutants : mutant list;
}
(* One appended run: a meta line and every record up to the next meta.
   [--journal FILE] appends a fresh meta per invocation, so a multi-run
   file must attribute each obligation to the *preceding* meta — its own
   run's configuration — never to the first. *)

type t = {
  path : string;
  meta : meta list;          (* every meta line, in file order *)
  obligations : obligation list;
  mutants : mutant list;
  runs : run list;
      (* file-order run grouping. [load] fills it whenever the file holds
         at least one meta record; hand-built journals, meta-less legacy
         files and files whose records precede their first meta (grouping
         disabled with a warning) leave it empty, in which case consumers
         fall back to the flat lists. *)
}

(* ---- to JSON ---- *)

let json_of_meta m =
  Json.Obj
    [ ("kind", Json.Str "meta");
      ("schema", Json.Int schema);
      ("created_s", Json.Float m.created_s);
      ("command", Json.Str m.command);
      ("design", Json.Str m.design);
      ("git_rev", Json.Str m.git_rev);
      ("jobs", Json.Int m.jobs);
      ("seed", Json.Int m.seed);
      ("flags", Json.List (List.map (fun f -> Json.Str f) m.flags));
      ("fingerprint", Json.Str m.fingerprint) ]

let json_of_reduce r =
  Json.Obj
    [ ("nodes_before", Json.Int r.nodes_before);
      ("nodes_after", Json.Int r.nodes_after);
      ("latches_before", Json.Int r.latches_before);
      ("latches_after", Json.Int r.latches_after) ]

let json_of_solver s =
  Json.Obj
    [ ("decisions", Json.Int s.decisions);
      ("propagations", Json.Int s.propagations);
      ("conflicts", Json.Int s.conflicts);
      ("restarts", Json.Int s.restarts);
      ("learned", Json.Int s.learned);
      ("max_var", Json.Int s.max_var);
      ("clauses", Json.Int s.clauses);
      ("lbd_core", Json.Int s.lbd_core);
      ("lbd_mid", Json.Int s.lbd_mid);
      ("lbd_local", Json.Int s.lbd_local);
      ("reductions", Json.Int s.reductions);
      ("vivified", Json.Int s.vivified) ]

let json_of_series series =
  Json.Obj
    (List.map
       (fun (name, pts) ->
         ( name,
           Json.List
             (List.map
                (fun (t, v) -> Json.List [ Json.Float t; Json.Float v ])
                pts) ))
       series)

let json_of_obligation o =
  Json.Obj
    [ ("kind", Json.Str "obligation");
      ("design", Json.Str o.ob_design);
      ("name", Json.Str o.ob_name);
      ("check", Json.Str o.ob_check);
      ("key", Json.Str o.ob_key);
      ("verdict", Json.Str o.ob_verdict);
      ("depth", Json.Int o.ob_depth);
      ("certificate", Json.Str o.ob_certificate);
      ("winner", Json.Str o.ob_winner);
      ("cached", Json.Bool o.ob_cached);
      ("wall_s", Json.Float o.ob_wall_s);
      ("frames", Json.Int o.ob_frames);
      ("aig_nodes", Json.Int o.ob_aig_nodes);
      ("aig_nodes_raw", Json.Int o.ob_aig_nodes_raw);
      ( "reduce",
        match o.ob_reduce with
        | None -> Json.Null
        | Some r -> json_of_reduce r );
      ( "solver",
        match o.ob_solver with
        | None -> Json.Null
        | Some s -> json_of_solver s );
      ("series", json_of_series o.ob_series) ]

let json_of_mutant m =
  Json.Obj
    [ ("kind", Json.Str "mutant");
      ("design", Json.Str m.mu_design);
      ("id", Json.Str m.mu_id);
      ("op", Json.Str m.mu_op);
      ("site", Json.Str m.mu_site);
      ("status", Json.Str m.mu_status);
      ( "killed_by",
        match m.mu_killed_by with None -> Json.Null | Some c -> Json.Str c );
      ( "kill_depth",
        match m.mu_kill_depth with None -> Json.Null | Some d -> Json.Int d );
      ("screen_s", Json.Float m.mu_screen_s);
      ("checks_s", Json.Float m.mu_checks_s) ]

let json_of_record = function
  | Meta m -> json_of_meta m
  | Obligation o -> json_of_obligation o
  | Mutant m -> json_of_mutant m

let to_line r = Json.to_string (json_of_record r)

(* ---- from JSON ---- *)

let meta_of_json j =
  let v = Json.int_or (-1) (Json.member "schema" j) in
  if v <> schema then
    failwith (Printf.sprintf "journal: schema %d (this build reads %d)" v schema);
  {
    created_s = Json.float_or 0. (Json.member "created_s" j);
    command = Json.str_or "" (Json.member "command" j);
    design = Json.str_or "" (Json.member "design" j);
    git_rev = Json.str_or "" (Json.member "git_rev" j);
    jobs = Json.int_or 1 (Json.member "jobs" j);
    seed = Json.int_or 0 (Json.member "seed" j);
    flags =
      (match Json.member "flags" j with
       | Json.List xs -> List.map Json.to_str xs
       | _ -> []);
    fingerprint = Json.str_or "" (Json.member "fingerprint" j);
  }

let reduce_of_json j =
  {
    nodes_before = Json.to_int (Json.member "nodes_before" j);
    nodes_after = Json.to_int (Json.member "nodes_after" j);
    latches_before = Json.to_int (Json.member "latches_before" j);
    latches_after = Json.to_int (Json.member "latches_after" j);
  }

let solver_of_json j =
  {
    decisions = Json.to_int (Json.member "decisions" j);
    propagations = Json.to_int (Json.member "propagations" j);
    conflicts = Json.to_int (Json.member "conflicts" j);
    restarts = Json.to_int (Json.member "restarts" j);
    learned = Json.to_int (Json.member "learned" j);
    max_var = Json.to_int (Json.member "max_var" j);
    clauses = Json.to_int (Json.member "clauses" j);
    lbd_core = Json.to_int (Json.member "lbd_core" j);
    lbd_mid = Json.to_int (Json.member "lbd_mid" j);
    lbd_local = Json.to_int (Json.member "lbd_local" j);
    reductions = Json.to_int (Json.member "reductions" j);
    vivified = Json.to_int (Json.member "vivified" j);
  }

let series_of_json j =
  match j with
  | Json.Obj kvs ->
    List.map
      (fun (name, pts) ->
        ( name,
          List.map
            (fun p ->
              match p with
              | Json.List [ t; v ] -> (Json.to_float t, Json.to_float v)
              | _ -> failwith "journal: malformed series point")
            (Json.to_list pts) ))
      kvs
  | _ -> []

let obligation_of_json j =
  {
    ob_design = Json.str_or "" (Json.member "design" j);
    ob_name = Json.str_or "" (Json.member "name" j);
    ob_check = Json.str_or "" (Json.member "check" j);
    ob_key = Json.str_or "" (Json.member "key" j);
    ob_verdict = Json.to_str (Json.member "verdict" j);
    ob_depth = Json.to_int (Json.member "depth" j);
    ob_certificate = Json.str_or "none" (Json.member "certificate" j);
    ob_winner = Json.str_or "" (Json.member "winner" j);
    ob_cached = Json.bool_or false (Json.member "cached" j);
    ob_wall_s = Json.to_float (Json.member "wall_s" j);
    ob_frames = Json.int_or 0 (Json.member "frames" j);
    ob_aig_nodes = Json.int_or 0 (Json.member "aig_nodes" j);
    ob_aig_nodes_raw = Json.int_or 0 (Json.member "aig_nodes_raw" j);
    ob_reduce =
      (match Json.member "reduce" j with
       | Json.Null -> None
       | r -> Some (reduce_of_json r));
    ob_solver =
      (match Json.member "solver" j with
       | Json.Null -> None
       | s -> Some (solver_of_json s));
    ob_series = series_of_json (Json.member "series" j);
  }

let mutant_of_json j =
  {
    mu_design = Json.str_or "" (Json.member "design" j);
    mu_id = Json.to_str (Json.member "id" j);
    mu_op = Json.str_or "" (Json.member "op" j);
    mu_site = Json.str_or "" (Json.member "site" j);
    mu_status = Json.to_str (Json.member "status" j);
    mu_killed_by =
      (match Json.member "killed_by" j with
       | Json.Str c -> Some c
       | _ -> None);
    mu_kill_depth =
      (match Json.member "kill_depth" j with
       | Json.Int d -> Some d
       | _ -> None);
    mu_screen_s = Json.float_or 0. (Json.member "screen_s" j);
    mu_checks_s = Json.float_or 0. (Json.member "checks_s" j);
  }

let of_line line =
  let j = Json.of_string line in
  match Json.str_or "" (Json.member "kind" j) with
  | "meta" -> Meta (meta_of_json j)
  | "obligation" -> Obligation (obligation_of_json j)
  | "mutant" -> Mutant (mutant_of_json j)
  | k -> failwith (Printf.sprintf "journal: unknown record kind %S" k)

(* ---- file I/O ---- *)

let write_channel oc records =
  List.iter
    (fun r ->
      output_string oc (to_line r);
      output_char oc '\n')
    records

let append path records =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_channel oc records)

let write path records =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_channel oc records)

(* Group numbered records into runs, each keyed to its preceding meta. A
   record before the first meta of a file that *does* carry metas is a
   truncated or concatenated prefix — there is no way to tell which run
   it belongs to — so per-run grouping is disabled for that file with a
   warning rather than refusing the load: the flat lists still carry
   every record, and run-aware consumers fall back to them exactly as
   they do for meta-less files. Files with no meta at all (hand-built or
   legacy) have no association to get wrong and group to nothing. *)
let group_runs path numbered =
  if not (List.exists (function _, Meta _ -> true | _ -> false) numbered)
  then []
  else begin
    let exception Orphan of int * string in
    let finish (m, obs, mus) =
      { run_meta = m;
        run_obligations = List.rev obs;
        run_mutants = List.rev mus }
    in
    let rec go cur acc = function
      | [] ->
        List.rev (match cur with None -> acc | Some c -> finish c :: acc)
      | (_, Meta m) :: rest ->
        let acc = match cur with None -> acc | Some c -> finish c :: acc in
        go (Some (m, [], [])) acc rest
      | (n, Obligation o) :: rest -> (
        match cur with
        | None -> raise (Orphan (n, "obligation"))
        | Some (m, obs, mus) -> go (Some (m, o :: obs, mus)) acc rest)
      | (n, Mutant mu) :: rest -> (
        match cur with
        | None -> raise (Orphan (n, "mutant"))
        | Some (m, obs, mus) -> go (Some (m, obs, mu :: mus)) acc rest)
    in
    match go None [] numbered with
    | runs -> runs
    | exception Orphan (n, kind) ->
      Printf.eprintf
        "%s:%d: warning: %s record before the first meta (truncated or \
         concatenated prefix) — cannot attribute records to runs; \
         per-run grouping disabled for this file\n%!"
        path n kind;
      []
  end

let load path =
  let ic = open_in path in
  let numbered =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go n acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> go (n + 1) acc
          | line -> (
            match of_line line with
            | r -> go (n + 1) ((n, r) :: acc)
            | exception (Failure msg | Json.Parse_error msg) ->
              failwith (Printf.sprintf "%s:%d: %s" path n msg))
        in
        go 1 [])
  in
  let records = List.map snd numbered in
  {
    path;
    meta = List.filter_map (function Meta m -> Some m | _ -> None) records;
    obligations =
      List.filter_map (function Obligation o -> Some o | _ -> None) records;
    mutants =
      List.filter_map (function Mutant m -> Some m | _ -> None) records;
    runs = group_runs path numbered;
  }

(* The run an obligation belongs to, as (file-order index, meta). Matching
   is by physical identity — [t.obligations] and [t.runs] share their
   values after [load] — so duplicate records in different runs still
   resolve to their own run. [None] for hand-built journals with an empty
   [runs]. *)
let run_for t (o : obligation) =
  let rec find i = function
    | [] -> None
    | r :: rest ->
      if List.exists (fun o' -> o' == o) r.run_obligations then
        Some (i, r.run_meta)
      else find (i + 1) rest
  in
  find 0 t.runs

let meta_for t o = Option.map snd (run_for t o)

(* ---- conversions from in-process results ---- *)

let verdict_string (r : Aqed.Check.report) =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug _ -> "bug"
  | Aqed.Check.No_bug_up_to _ -> "clean"

let depth_of_report (r : Aqed.Check.report) =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> Bmc.Trace.length t
  | Aqed.Check.No_bug_up_to k -> k

let certificate_string = function
  | Aqed.Check.Replayed c -> Printf.sprintf "replayed:%d" c
  | Aqed.Check.Rup_certified k -> Printf.sprintf "rup:%d" k
  | Aqed.Check.Uncertified -> "none"

let reduce_of_stats (s : Logic.Reduce.stats) =
  {
    nodes_before = s.Logic.Reduce.nodes_before;
    nodes_after = s.Logic.Reduce.nodes_after;
    latches_before = s.Logic.Reduce.latches_before;
    latches_after = s.Logic.Reduce.latches_after;
  }

let solver_of_stats (s : Sat.Solver.stats) =
  {
    decisions = s.Sat.Solver.decisions;
    propagations = s.Sat.Solver.propagations;
    conflicts = s.Sat.Solver.conflicts;
    restarts = s.Sat.Solver.restarts;
    learned = s.Sat.Solver.learned;
    max_var = s.Sat.Solver.max_var;
    clauses = s.Sat.Solver.clauses;
    lbd_core = s.Sat.Solver.lbd_core;
    lbd_mid = s.Sat.Solver.lbd_mid;
    lbd_local = s.Sat.Solver.lbd_local;
    reductions = s.Sat.Solver.reductions;
    vivified = s.Sat.Solver.vivified;
  }

let of_report ~design ?name ?(cached = false) (r : Aqed.Check.report) =
  {
    ob_design = design;
    ob_name = (match name with Some n -> n | None -> r.Aqed.Check.check);
    ob_check = r.Aqed.Check.check;
    ob_key = r.Aqed.Check.key;
    ob_verdict = verdict_string r;
    ob_depth = depth_of_report r;
    ob_certificate = certificate_string r.Aqed.Check.certificate;
    ob_winner = r.Aqed.Check.winner;
    ob_cached = cached;
    ob_wall_s = r.Aqed.Check.wall_time;
    ob_frames = r.Aqed.Check.bmc_frames;
    ob_aig_nodes = r.Aqed.Check.aig_nodes;
    ob_aig_nodes_raw = r.Aqed.Check.aig_nodes_raw;
    ob_reduce = Option.map reduce_of_stats r.Aqed.Check.reduce_stats;
    ob_solver = Some (solver_of_stats r.Aqed.Check.solver_stats);
    ob_series = r.Aqed.Check.series;
  }

let of_batch ~design (b : Aqed.Check.batch_result) =
  List.map
    (fun (e : Aqed.Check.batch_entry) ->
      of_report ~design ~name:e.Aqed.Check.entry_name
        ~cached:e.Aqed.Check.entry_cached e.Aqed.Check.entry_report)
    b.Aqed.Check.entries

let of_campaign ~design (c : Mutate.campaign) =
  List.map
    (fun (o : Mutate.outcome) ->
      let status, killed_by, kill_depth =
        match o.Mutate.status with
        | Mutate.Killed d ->
          ("killed", Some d.Mutate.killed_by, Some d.Mutate.kill_depth)
        | Mutate.Survived -> ("survived", None, None)
        | Mutate.Screened Mutate.Equal_hash -> ("screened-hash", None, None)
        | Mutate.Screened Mutate.Equal_miter -> ("screened-miter", None, None)
        | Mutate.Screened Mutate.Distinct ->
          (* [Screened Distinct] cannot come out of a campaign; defensive *)
          ("screened-distinct", None, None)
      in
      {
        mu_design = design;
        mu_id = Mutate.mutation_id o.Mutate.mutation;
        mu_op = Mutate.op_name (Mutate.mutation_op o.Mutate.mutation);
        mu_site = Mutate.site o.Mutate.mutation;
        mu_status = status;
        mu_killed_by = killed_by;
        mu_kill_depth = kill_depth;
        mu_screen_s = o.Mutate.screen_wall;
        mu_checks_s = o.Mutate.checks_wall;
      })
    c.Mutate.outcomes
