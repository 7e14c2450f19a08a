(* The repository benchmark. One invocation runs one workload at one seed
   and prints every end-to-end metric (or, with [--trace 1], every
   per-layer metric) by name with its unit. Every verdict is checked
   against the known-answer table in expected.ml.

     aqed_perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-file FILE]
     aqed_perf.exe --smoke BENCHMARK.json

   The serve workloads spawn the aqed_cli built beside this executable
   (_build/default/bin/aqed_cli.exe).

   The last line of standard output is one JSON object:
     {"correct":B,"attempted":N,"failed":F,"metrics":{NAME:{"value":V,"unit":U}}}
   Exit status: 0 when every request was answered correctly, 1 otherwise
   (and on any set-up failure, without a result line), 2 on a usage
   error. Workloads, metrics and the layer map are described in
   perf/README.md.

   All state (verdict stores, daemon sockets, the trace) lives in a
   private directory under ./.perf_tmp, removed on exit; daemons are
   stopped and reaped. *)

module J = Report.Json
module Journal = Report.Journal
module Check = Aqed.Check
module M = Accel.Memctrl

let now = Unix.gettimeofday

(* ---- statistics ---- *)

(* Nearest-rank quantile; 0 on an empty sample. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let median = quantile 0.5
let sumf = List.fold_left ( +. ) 0.
let div a b = if b > 0. then a /. b else 0.

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* ---- scratch directory, child processes, hard deadline ---- *)

let tmp_root = ".perf_tmp"

let run_dir =
  Filename.concat tmp_root (Printf.sprintf "run-%d" (Unix.getpid ()))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let proc_children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
      match int_of_string_opt d with
      | None -> None
      | Some p -> (
          try
            let ic = open_in (Printf.sprintf "/proc/%d/stat" p) in
            let line =
              Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                  input_line ic)
            in
            (* the command name may hold spaces: fields resume after ')' *)
            let i = String.rindex line ')' in
            Scanf.sscanf
              (String.sub line (i + 1) (String.length line - i - 1))
              " %c %d"
              (fun _ ppid -> if ppid = pid then Some p else None)
          with Sys_error _ | Not_found | End_of_file | Scanf.Scan_failure _
             | Failure _ -> None))

let vmhwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    go ()

(* User plus system CPU of this process and of its reaped children. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

let rec wait_pid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Daemons this process started and has not reaped yet. *)
let live_lock = Mutex.create ()
let live : int list ref = ref []

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) (fun () -> f ())

(* Running, as opposed to exited or a zombie awaiting its reaper. *)
let running pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let line = input_line ic in
    let i = String.rindex line ')' in
    String.length line > i + 2 && line.[i + 2] <> 'Z'

let cleanup () =
  let pids = with_live (fun () -> let l = !live in live := []; l) in
  List.iter
    (fun pid ->
      (* A coordinator's workers are its children, not ours: kill them,
         then wait until they have ended. *)
      let workers = proc_children pid in
      List.iter
        (fun c -> try Unix.kill c Sys.sigkill with Unix.Unix_error _ -> ())
        workers;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (wait_pid pid) with Unix.Unix_error _ -> ());
      let deadline = now () +. 2. in
      while List.exists running workers && now () < deadline do
        Thread.delay 0.01
      done)
    pids;
  (try rm_rf run_dir with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

(* Well inside the 180 s a run may take: a hang becomes a failed run
   (exit 3, no result line) rather than a stalled one. *)
let hard_limit_s = 170.

(* ---- job specs and answers ---- *)

let job ?bug check depth design =
  Serve.job_spec ?bug ~check ~depth ~timeout_s:120. design

let label (s : Serve.job_spec) =
  Printf.sprintf "%s%s/%s@%d" s.Serve.sj_design
    (match s.Serve.sj_bug with Some b -> ":" ^ b | None -> "")
    s.Serve.sj_check s.Serve.sj_depth

let resolve spec =
  match Cli.resolve_job spec with
  | Ok (_, ob) -> ob
  | Error m -> failwith (label spec ^ ": " ^ m)

(* Requests through a store are certified: a counterexample of length n
   must carry "replayed:(n-1)", a clean bound k "rup:k". *)
let judge ~certified spec (o : Journal.obligation) =
  let cert fmt n = if certified then Printf.sprintf fmt n else "none" in
  let ok =
    match Expected.find spec with
    | Some (Expected.Bug n) ->
      o.Journal.ob_verdict = "bug" && o.Journal.ob_depth = n
      && o.Journal.ob_certificate = cert "replayed:%d" (n - 1)
    | Some Expected.Clean ->
      let k = spec.Serve.sj_depth in
      o.Journal.ob_verdict = "clean" && o.Journal.ob_depth = k
      && o.Journal.ob_certificate = cert "rup:%d" k
    | None -> false
  in
  if not ok then
    Printf.eprintf "perf: wrong answer for %s: %s@%d [%s]\n%!" (label spec)
      o.Journal.ob_verdict o.Journal.ob_depth o.Journal.ob_certificate;
  ok

(* ---- requests and rounds ---- *)

type request = {
  spec : Serve.job_spec;
  latency : float;  (* seconds the caller waited for the verdict *)
  cpu : float;  (* in-process requests: CPU seconds they took *)
  engine : float;  (* wall the engine reports for the job *)
  hit : bool;  (* answered from a store or cache, without a solve *)
  ok : bool;
  solved : Check.report option;  (* in-process requests that solved *)
}

let failed spec latency =
  { spec; latency; cpu = 0.; engine = 0.; hit = false; ok = false;
    solved = None }

type round = {
  setups : float list;  (* set-up times before the first request *)
  wall : float;  (* the measured phase *)
  cpu : float;  (* CPU seconds of the round, daemons included *)
  requests : request list;
  rechecks : request list;  (* uncertified re-solves: checked, not timed *)
  daemon_rss_kb : int;  (* daemon plus fleet workers, before SIGTERM *)
  shard : int * int * int;  (* leases, steals, requeued *)
  dup_solves : int;
  drain_ok : bool;
}

(* An in-process round's measured phase is its requests; the collections
   between them are not part of it. *)
let in_process ~setups results =
  let requests = List.map fst results in
  { setups; wall = sumf (List.map (fun r -> r.latency) requests);
    cpu = sumf (List.map (fun (r : request) -> r.cpu) requests); requests;
    rechecks = List.filter_map snd results; daemon_rss_kb = 0;
    shard = (0, 0, 0); dup_solves = 0; drain_ok = true }

let store_counter_names =
  [ "store.hits"; "store.misses"; "store.warm_starts"; "store.invalid";
    "store.writes" ]

let store_counters () =
  List.map
    (fun n -> (n, Telemetry.Counter.get (Telemetry.Counter.make n)))
    store_counter_names

let counter_deltas c0 =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 (store_counters ())

let request_id = ref 0

(* One in-process request: [Check.run_obligation], through [store] when
   given, inside a [perf.request] span. While tracing, a certified store
   miss is then solved again uncertified and store-less inside a
   [perf.uncertified] span carrying the same id — the pair gives the
   certification cost. *)
let run_request ~workload ~leg ?store spec ob =
  incr request_id;
  let id = !request_id in
  (* Each request starts from a collected heap, as a fresh CLI process
     would, so its footprint and its GC work do not depend on the garbage
     its predecessors left — which the seed's order would otherwise
     decide. *)
  Gc.full_major ();
  let c0 = store_counters () in
  let cpu0 = cpu_s () in
  let t0 = now () in
  let result =
    Telemetry.Span.with_ "perf.request"
      ~args:
        [ ("id", Telemetry.Int id);
          ("workload", Telemetry.Str workload);
          ("design", Telemetry.Str spec.Serve.sj_design);
          ("bug", Telemetry.Str (Option.value spec.Serve.sj_bug ~default:""));
          ("check", Telemetry.Str spec.Serve.sj_check);
          ("depth", Telemetry.Int spec.Serve.sj_depth);
          ("leg", Telemetry.Str leg);
          ("store", Telemetry.Bool (store <> None)) ]
      (fun () -> try Ok (Check.run_obligation ?store ob) with e -> Error e)
  in
  let latency = now () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  match result with
  | Error e ->
    Printf.eprintf "perf: %s raised %s\n%!" (label spec)
      (Printexc.to_string e);
    ({ (failed spec latency) with cpu }, None)
  | Ok r ->
    let d = counter_deltas c0 in
    let hit = List.assoc "store.hits" d > 0 in
    let pure_miss =
      List.assoc "store.misses" d > 0 && List.assoc "store.warm_starts" d = 0
    in
    let answer certified (r : Check.report) =
      judge ~certified spec (Journal.of_report ~design:spec.Serve.sj_design r)
    in
    let req =
      { spec; latency; cpu; engine = r.Check.wall_time; hit;
        ok = answer (store <> None) r;
        solved = (if hit then None else Some r) }
    in
    let recheck_req () =
      Gc.full_major ();
      Telemetry.Span.with_ "perf.uncertified"
        ~args:[ ("id", Telemetry.Int id) ]
        (fun () ->
          match Check.run_obligation ob with
          | u -> { (failed spec 0.) with ok = answer false u }
          | exception e ->
            Printf.eprintf "perf: uncertified %s raised %s\n%!" (label spec)
              (Printexc.to_string e);
            failed spec 0.)
    in
    let recheck = Telemetry.enabled () && store <> None && pure_miss in
    (req, if recheck then Some (recheck_req ()) else None)

(* Set-up is timed several times per run and reported as a median: an
   in-process set-up takes well under a millisecond, so it is repeated in
   every round; a daemon's is timed once per round and topped up with
   probes (start, ready, stop) when a run has few rounds. *)
let inproc_setup_reps = 25
let daemon_setups = 9

let timed_setup f =
  let times = List.init inproc_setup_reps (fun _ ->
      let t0 = now () in
      let v = f () in
      (now () -. t0, v))
  in
  (List.map fst times, snd (List.hd (List.rev times)))

(* ---- registry: the Table-1 first-detection flow ---- *)

let registry_flow = [ ("fc", 12); ("rb", 12); ("sac", 10) ]

let registry_round ~smoke rng _dir =
  let bugs =
    if smoke then [ M.Fifo_out_early; M.Db_swap_early; M.Fifo_clock_gate ]
    else M.all_bugs
  in
  let bugs = shuffle rng bugs in
  let setups, flows =
    timed_setup (fun () ->
        List.map
          (fun b ->
            let design = "memctrl-" ^ M.config_name (M.bug_config b) in
            List.map
              (fun (check, depth) ->
                let s = job ~bug:(M.bug_name b) check depth design in
                (s, resolve s))
              registry_flow)
          bugs)
  in
  let results =
    List.concat_map
      (fun flow ->
        let rec go = function
          | [] -> []
          | (s, ob) :: rest ->
            let r, x = run_request ~workload:"registry" ~leg:"flow" s ob in
            let found = Option.fold ~none:false ~some:Check.found_bug r.solved in
            if found then [ (r, x) ] else (r, x) :: go rest
        in
        go flow)
      flows
  in
  in_process ~setups results

(* ---- reverify: the CI `verify --store` loop ---- *)

let reverify_designs =
  [ "memctrl-fifo"; "memctrl-double_buffer"; "memctrl-line_buffer"; "fig2";
    "aes"; "gsm"; "simd"; "dualpath" ]

(* Registry bugs FC finds within 8 frames; one replaces its clean design
   in the dirty leg. All are cheap, so the seed's pick barely moves the
   round's cost. *)
let dirty_bugs =
  [ ("memctrl-fifo", "fifo_oversize_ready"); ("memctrl-fifo", "fifo_count_narrow");
    ("memctrl-fifo", "fifo_out_early"); ("memctrl-fifo", "fifo_clock_gate");
    ("memctrl-fifo", "fifo_ptr_wrap");
    ("memctrl-double_buffer", "db_swap_early");
    ("memctrl-double_buffer", "db_wptr_noreset");
    ("memctrl-double_buffer", "db_ready_during_swap");
    ("memctrl-double_buffer", "db_full_flag_race");
    ("memctrl-line_buffer", "lb_window_index") ]

let reverify_round ~smoke rng dir =
  let designs =
    if smoke then [ "memctrl-line_buffer"; "simd" ] else reverify_designs
  in
  let dirty_design, dirty_bug =
    pick rng (List.filter (fun (d, _) -> List.mem d designs) dirty_bugs)
  in
  let store_dir = Filename.concat dir "store" in
  let setups, (store, at6, at8, dirty) =
    timed_setup (fun () ->
        rm_rf store_dir;
        let store = Store.open_store store_dir in
        let at k =
          List.map (fun d -> let s = job "fc" k d in (d, (s, resolve s))) designs
        in
        let s = job ~bug:dirty_bug "fc" 8 dirty_design in
        (store, at 6, at 8, (s, resolve s)))
  in
  let leg name pairs =
    List.map
      (fun (s, ob) ->
        run_request ~workload:"reverify" ~leg:name ~store s ob)
      (shuffle rng pairs)
  in
  let cold = leg "cold" (List.map snd at6) in
  let warm =
    List.concat
      (List.init (if smoke then 1 else 3) (fun _ ->
           leg "warm" (List.map snd at6)))
  in
  let deeper = leg "deeper" (List.map snd at8) in
  let dirtied =
    leg "dirty"
      (List.map (fun (d, p) -> if d = dirty_design then dirty else p) at8)
  in
  in_process ~setups (cold @ warm @ deeper @ dirtied)

(* ---- serve / serve-fleet: the daemon behind its socket ---- *)

(* Bug-finding and clean FC/RB/SAC jobs over every design family, each
   a certified miss of at most about a second, so no single entry
   dominates a round. *)
let serve_menu ~smoke =
  if smoke then
    [ job ~bug:"lb_coeff_swap" "sac" 10 "memctrl-line_buffer";
      job ~bug:"bug" "rb" 12 "optflow"; job "fc" 12 "simd" ]
  else
    [ job ~bug:"fifo_oversize_ready" "fc" 12 "memctrl-fifo";
      job ~bug:"lb_coeff_swap" "sac" 10 "memctrl-line_buffer";
      job "fc" 10 "memctrl-line_buffer"; job "sac" 10 "memctrl-double_buffer";
      job "fc" 8 "aes"; job "rb" 12 "aes"; job "fc" 10 "gsm";
      job ~bug:"bug" "rb" 16 "dataflow"; job ~bug:"bug" "rb" 12 "optflow";
      job "fc" 12 "simd"; job "fc" 8 "fig2"; job ~bug:"bug" "fc" 8 "dualpath" ]

(* A round's stream opens with every menu entry once, in seeded order,
   then draws with replacement. Every round thus pays the same misses,
   and a later draw rarely finds its entry still in flight, where the
   fleet would solve it twice and the daemon would make it wait — both
   seed-dependent costs that would otherwise dominate the round's
   spread. At 300 jobs the slow answers (the misses) stay well under
   10 %, so latency_p90_s measures the hit path. *)
let serve_jobs ~smoke = if smoke then 8 else 300
let serve_clients = 2

type daemon = { pid : int; out : Unix.file_descr }

let spawn cli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    with_live (fun () ->
        let pid =
          Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin w
            Unix.stderr
        in
        live := pid :: !live;
        pid)
  in
  Unix.close w;
  { pid; out = r }

let read_all fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes buf chunk 0 n; go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* SIGTERM drains the daemon; returns its exit status and stdout. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = wait_pid d.pid in
  with_live (fun () -> live := List.filter (( <> ) d.pid) !live);
  let out = read_all d.out in
  Unix.close d.out;
  (status, out)

let with_client socket f =
  let c = Serve.Client.connect socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* Polls until the daemon answers a status frame — for a fleet, one that
   shows every worker connected. *)
let wait_ready d socket ~workers =
  let deadline = now () +. 30. in
  let rec go () =
    if now () > deadline then failwith "daemon not ready after 30 s";
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
     | 0, _ -> ()
     | _ -> failwith "daemon exited during start-up");
    let ready =
      try
        with_client socket (fun c ->
            J.int_or 0 (J.member "workers" (Serve.Client.status c)) >= workers)
      with Unix.Unix_error _ | Failure _ -> false
    in
    if not ready then (Thread.delay 0.0005; go ())
  in
  go ()

(* Every accepted job must be accounted completed in the drain line. *)
let drain_ok ~jobs status out =
  status = Unix.WEXITED 0
  && List.exists
       (fun line ->
         match
           Scanf.sscanf line
             "serve: drained — %d accepted, %d completed, %d timeouts, %d \
              rejected, %d errors"
             (fun a c t r e -> (a, c, t, r, e))
         with
         | a, c, t, r, e -> a = jobs && c = jobs && t = 0 && r = 0 && e = 0
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false)
       (String.split_on_char '\n' out)

(* Starts a daemon over a fresh store in [dir]. The set-up time runs from
   the spawn to the first status frame that shows it ready. *)
let start_daemon ~cli ~fleet dir =
  let socket = Filename.concat dir "s.sock" in
  let mode =
    if fleet then [ "--workers"; "2"; "-j"; "1" ] else [ "-j"; "2" ]
  in
  let t0 = now () in
  let d =
    spawn cli
      ([ "serve"; "--socket"; socket; "--store"; Filename.concat dir "store" ]
       @ mode)
  in
  (match wait_ready d socket ~workers:(if fleet then 2 else 0) with
   | () -> ()
   | exception e ->
     ignore (stop d);
     raise e);
  (d, socket, now () -. t0)

let setup_probe ~cli ~fleet dir =
  let d, _, setup = start_daemon ~cli ~fleet dir in
  ignore (stop d);
  setup

let serve_round ~cli ~fleet ~smoke rng dir =
  let menu = serve_menu ~smoke in
  let draws =
    List.init (serve_jobs ~smoke - List.length menu) (fun _ -> pick rng menu)
  in
  let stream = Array.of_list (shuffle rng menu @ draws) in
  let cpu0 = cpu_s () in
  let d, socket, setup = start_daemon ~cli ~fleet dir in
  Fun.protect
    ~finally:(fun () ->
      (* a no-op once the normal path below has stopped [d] *)
      if with_live (fun () -> List.mem d.pid !live) then ignore (stop d))
  @@ fun () ->
    let n = Array.length stream in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let client () =
      match Serve.Client.connect socket with
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "perf: connect: %s\n%!" (Unix.error_message e)
      | c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let s = stream.(i) in
            let t = now () in
            let r, alive =
              match Serve.Client.submit c s with
              | Serve.Client.Completed (_, wall, o) ->
                ( { spec = s; latency = now () -. t; cpu = 0.; engine = wall;
                    hit = o.Journal.ob_cached; ok = judge ~certified:true s o;
                    solved = None },
                  true )
              | Serve.Client.Timed_out _ | Serve.Client.Busy _
              | Serve.Client.Refused _ ->
                Printf.eprintf "perf: %s not completed\n%!" (label s);
                (failed s (now () -. t), true)
              | exception (Failure _ | Unix.Unix_error _ | J.Parse_error _) ->
                Printf.eprintf "perf: %s: connection lost\n%!" (label s);
                (failed s (now () -. t), false)
            in
            results.(i) <- Some r;
            if alive then loop ()
          end
        in
        loop ()
    in
    let tm = now () in
    List.iter Thread.join
      (List.init serve_clients (fun _ -> Thread.create client ()));
    let wall = now () -. tm in
    let requests =
      Array.to_list
        (Array.mapi
           (fun i r -> match r with Some r -> r | None -> failed stream.(i) 0.)
           results)
    in
    let status = with_client socket Serve.Client.status in
    let rss =
      List.fold_left
        (fun acc p -> acc + vmhwm_kb (string_of_int p))
        0
        (d.pid :: proc_children d.pid)
    in
    let st k = J.int_or 0 (J.member k status) in
    let code, out = stop d in
    let solves = Hashtbl.create 16 in
    List.iter
      (fun r ->
        if r.ok && not r.hit then
          Hashtbl.replace solves (label r.spec)
            (1 + Option.value (Hashtbl.find_opt solves (label r.spec)) ~default:0))
      requests;
    { setups = [ setup ]; wall; cpu = cpu_s () -. cpu0; requests; rechecks = [];
      daemon_rss_kb = rss;
      shard = (st "leases", st "steals", st "requeued");
      dup_solves = Hashtbl.fold (fun _ n acc -> acc + n - 1) solves 0;
      drain_ok = drain_ok ~jobs:n code out }

(* The daemon cannot be traced, so the serve workloads' layer split comes
   from solving each menu entry once in-process, through a fresh store,
   exactly as the daemon's first arrival of that entry does. *)
let mirror_round ~smoke rng dir =
  let store = Store.open_store (Filename.concat dir "store") in
  let results =
    List.map
      (fun s ->
        run_request ~workload:"mirror" ~leg:"miss" ~store s (resolve s))
      (shuffle rng (serve_menu ~smoke))
  in
  in_process ~setups:[] results

(* ---- workloads ---- *)

type workload = {
  name : string;
  rounds : smoke:bool -> Random.State.t -> string -> round;
      (** the measured rounds *)
  layered : smoke:bool -> Random.State.t -> string -> round;
      (** the in-process pass run twice, untraced and traced, under
          [--trace 1] *)
  probe : (string -> float) option;
      (** daemon workloads: the set-up alone, for runs with fewer than
          [daemon_setups] rounds *)
}

let workloads ~cli =
  [ { name = "registry"; rounds = registry_round; layered = registry_round;
      probe = None };
    { name = "reverify"; rounds = reverify_round; layered = reverify_round;
      probe = None };
    { name = "serve"; rounds = serve_round ~cli ~fleet:false;
      layered = mirror_round; probe = Some (setup_probe ~cli ~fleet:false) };
    { name = "serve-fleet"; rounds = serve_round ~cli ~fleet:true;
      layered = mirror_round; probe = Some (setup_probe ~cli ~fleet:true) } ]

(* One round in its own directory, with inputs drawn from (seed, index). *)
let round_at ~seed ~index f =
  let dir = Filename.concat run_dir (Printf.sprintf "r%d" index) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Random.State.make [| seed; index |]) dir)

(* Rounds until the next one would overrun [seconds]; at least one. *)
let time_boxed ~seconds round =
  let t0 = now () in
  let rec go i acc =
    let acc = round i :: acc in
    let elapsed = now () -. t0 in
    if elapsed *. float_of_int (i + 2) /. float_of_int (i + 1) <= seconds then
      go (i + 1) acc
    else List.rev acc
  in
  go 0 []

(* ---- metrics ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed_n : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let end_to_end ~daemon ~setups rounds =
  let lat = List.concat_map (fun r -> List.map (fun q -> q.latency) r.requests) rounds in
  let rss_kb =
    if daemon then
      int_of_float
        (median (List.map (fun r -> float_of_int r.daemon_rss_kb) rounds))
    else vmhwm_kb "self"
  in
  Printf.printf "rounds %d, set-ups %d, latency samples %d\n"
    (List.length rounds) (List.length setups) (List.length lat);
  [ ("setup_s", median setups, "s");
    ("wall_s", median (List.map (fun r -> r.wall) rounds), "s");
    ("cpu_s", median (List.map (fun r -> r.cpu) rounds), "s");
    ("latency_p50_s", quantile 0.5 lat, "s");
    ("latency_p90_s", quantile 0.9 lat, "s");
    ("peak_rss_mb", float_of_int rss_kb /. 1024., "MB") ]

let per_layer ~verbose ~spans ~traced ~counts ~client ~overhead =
  let module T = Trace_reduce in
  let root = "perf.request" in
  let solved = List.filter_map (fun r -> r.solved) traced.requests in
  let sumi f = float_of_int (List.fold_left (fun a r -> a + f r) 0 solved) in
  let stat f = sumi (fun r -> f r.Check.solver_stats) in
  let arg k (s : T.span) = List.assoc_opt k s.T.args in
  let check_dur name =
    List.filter_map
      (fun (s : T.span) ->
        if s.T.name = name then
          Some (J.int_or 0 (Option.value (arg "id" s) ~default:J.Null),
                T.child_dur "check" s)
        else None)
      spans
  in
  (* Store-less requests: everything outside [check] is preparation. *)
  let prepare =
    sumf
      (List.filter_map
         (fun (s : T.span) ->
           if s.T.name = "perf.uncertified"
              || (s.T.name = root && arg "store" s = Some (J.Bool false))
           then Some (s.T.dur -. T.child_dur "check" s)
           else None)
         spans)
  in
  let uncertified = check_dur "perf.uncertified" in
  let cert =
    sumf
      (List.filter_map
         (fun (id, c) -> Option.map (fun u -> c -. u) (List.assoc_opt id uncertified))
         (check_dur root))
  in
  let solve_s = T.total ~root "sat.solve" spans in
  let reqs = List.concat_map (fun r -> r.requests) client in
  let overheads = List.map (fun r -> r.latency -. r.engine) reqs in
  let shard f = float_of_int (List.fold_left (fun a r -> a + f r.shard) 0 client) in
  if verbose then begin
    T.pp_table stderr spans;
    Printf.eprintf "cert.s %.6f over %d certified misses\n%!" cert
      (List.length uncertified)
  end;
  [ ("prepare.s", prepare, "s");
    ("reduce.s", T.total ~root "reduce" spans, "s");
    ( "reduce.node_ratio",
      div (sumi (fun r -> r.Check.aig_nodes)) (sumi (fun r -> r.Check.aig_nodes_raw)),
      "ratio" );
    ("bmc.frames", sumi (fun r -> r.Check.bmc_frames), "count");
    ("bmc.frame_self_s", T.self ~root "bmc.frame" spans, "s");
    ("sat.solve_s", solve_s, "s");
    ("sat.simplify_s", T.total ~root "sat.simplify" spans, "s");
    ("sat.conflicts", stat (fun s -> s.Sat.Solver.conflicts), "count");
    ("sat.propagations", stat (fun s -> s.Sat.Solver.propagations), "count");
    ("sat.decisions", stat (fun s -> s.Sat.Solver.decisions), "count");
    ( "sat.props_per_s",
      div (stat (fun s -> s.Sat.Solver.propagations)) solve_s,
      "1/s" );
    ("cert.share", div cert (T.total root spans), "ratio") ]
  @ List.map (fun (n, d) -> (n, float_of_int d, "count")) counts
  @ [ ("request.engine_p50_s", median (List.map (fun r -> r.engine) reqs), "s");
      ("request.overhead_p50_s", quantile 0.5 overheads, "s");
      ("request.overhead_p90_s", quantile 0.9 overheads, "s");
      ( "request.hit_frac",
        div (float_of_int (List.length (List.filter (fun r -> r.hit) reqs)))
          (float_of_int (List.length reqs)),
        "ratio" );
      ( "serve.dup_solves",
        float_of_int (List.fold_left (fun a r -> a + r.dup_solves) 0 client),
        "count" );
      ("shard.leases", shard (fun (l, _, _) -> l), "count");
      ("shard.steals", shard (fun (_, s, _) -> s), "count");
      ("shard.requeued", shard (fun (_, _, q) -> q), "count");
      ("trace.overhead", overhead, "ratio") ]

let run ~smoke ~(w : workload) ~seed ~seconds ~trace ~trace_file =
  let all_rounds = ref [] in
  let keep r = all_rounds := r :: !all_rounds; r in
  let measured () =
    time_boxed ~seconds (fun i ->
        keep (round_at ~seed ~index:i (w.rounds ~smoke)))
  in
  let metrics =
    if not trace then begin
      let rounds = measured () in
      let setups = List.concat_map (fun r -> r.setups) rounds in
      let probes =
        match w.probe with
        | None -> []
        | Some probe ->
          List.init (max 0 (daemon_setups - List.length setups)) (fun i ->
              let dir = Filename.concat run_dir (Printf.sprintf "p%d" i) in
              mkdir_p dir;
              Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> probe dir))
      in
      end_to_end ~daemon:(w.probe <> None) ~setups:(setups @ probes) rounds
    end
    else begin
      let client = if w.probe <> None then measured () else [] in
      (* the same inputs twice: untraced, then traced *)
      let pass () =
        keep (round_at ~seed ~index:1_000 (w.layered ~smoke))
      in
      let untraced = pass () in
      Telemetry.reset_events ();
      let c0 = store_counters () in
      Telemetry.enable ();
      let traced = Fun.protect ~finally:Telemetry.disable pass in
      let counts = counter_deltas c0 in
      let path =
        match trace_file with
        | Some p -> p
        | None -> Filename.concat run_dir "trace.json"
      in
      Telemetry.export_file path;
      Telemetry.reset_events ();
      let spans = Trace_reduce.load path in
      per_layer ~verbose:(not smoke) ~spans ~traced ~counts
        ~client:(if w.probe <> None then client else [ traced ])
        ~overhead:(div traced.wall untraced.wall)
    end
  in
  let rounds = !all_rounds in
  let reqs = List.concat_map (fun r -> r.requests @ r.rechecks) rounds in
  let bad = List.length (List.filter (fun r -> not r.ok) reqs) in
  let bad_drains = List.length (List.filter (fun r -> not r.drain_ok) rounds) in
  { correct = bad = 0 && bad_drains = 0; attempted = List.length reqs;
    failed_n = bad + bad_drains; metrics }

let print_result r =
  List.iter
    (fun (n, v, u) -> Printf.printf "%-24s %18.9f %s\n" n v u)
    r.metrics;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool r.correct);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed_n);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   r.metrics) ) ]))

(* Every workload at smoke size in both modes: the printed metric names
   and units must be exactly BENCHMARK.json's, and nothing may fail. *)
let smoke ~cli bench_json =
  let ic = open_in_bin bench_json in
  let spec =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        J.of_string (really_input_string ic (in_channel_length ic)))
  in
  let names key f =
    List.sort compare (List.map f (J.to_list (J.member key spec)))
  in
  let metric m = (J.to_str (J.member "name" m), J.to_str (J.member "unit" m)) in
  let ws = workloads ~cli in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf (fun m -> ok := false; Printf.printf "FAIL %s\n%!" m) fmt
  in
  if names "workloads" (fun w -> J.to_str (J.member "name" w))
     <> List.sort compare (List.map (fun w -> w.name) ws)
  then fail "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r =
            run ~smoke:true ~w ~seed:1 ~seconds:0. ~trace ~trace_file:None
          in
          let key = if trace then "per_layer" else "end_to_end" in
          Printf.printf "%s --trace %d: %d requests, %d failed\n%!" w.name
            (Bool.to_int trace) r.attempted r.failed_n;
          if List.sort compare (List.map (fun (n, _, u) -> (n, u)) r.metrics)
             <> names key metric
          then fail "%s: printed metrics differ from BENCHMARK.json %s" w.name key;
          if r.failed_n > 0 || not r.correct then fail "%s: failed requests" w.name)
        [ false; true ])
    ws;
  if !ok then 0 else 1

let usage () =
  prerr_endline
    "usage: aqed_perf.exe --workload registry|reverify|serve|serve-fleet \
     [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]\n\
    \       aqed_perf.exe --smoke BENCHMARK.json";
  exit 2

let () =
  let opt = Hashtbl.create 8 in
  let known =
    [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-file"; "--smoke" ]
  in
  let rec parse = function
    | k :: v :: rest when List.mem k known ->
      Hashtbl.replace opt k v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = Hashtbl.find_opt opt k in
  let num k conv default =
    match get k with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/aqed_cli.exe"
  in
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  ignore
    (Thread.create
       (fun () ->
         Thread.delay hard_limit_s;
         prerr_endline "perf: hard time limit reached";
         exit 3)
       ());
  let code =
    try
      if not (Sys.file_exists cli) then failwith ("no CLI at " ^ cli);
      mkdir_p run_dir;
      match get "--smoke" with
      | Some bench_json -> smoke ~cli bench_json
      | None ->
        let name = match get "--workload" with Some w -> w | None -> usage () in
        let w =
          match List.find_opt (fun w -> w.name = name) (workloads ~cli) with
          | Some w -> w
          | None -> usage ()
        in
        let trace =
          match get "--trace" with
          | None | Some "0" -> false
          | Some "1" -> true
          | Some _ -> usage ()
        in
        let r =
          run ~smoke:false ~w ~seed:(num "--seed" int_of_string_opt 1)
            ~seconds:(num "--seconds" float_of_string_opt 25.)
            ~trace ~trace_file:(get "--trace-file")
        in
        print_result r;
        if r.correct then 0 else 1
    with e ->
      Printf.eprintf "perf: %s\n%!"
        (match e with Failure m | Sys_error m -> m | e -> Printexc.to_string e);
      1
  in
  exit code
