(* The verification service: one front end over a pluggable executor.

   The front end owns everything a client can observe: the Unix-domain
   socket, the accept and connection loops, admission, the live-job
   table with its deadlines and cancel flags, exactly-once finalization,
   the lifetime counters, the journal, the status frame and the drain.
   What happens between admission and a job's terminal state belongs to
   an [executor]:

   - [in_process] answers a repeated spec from its spec cache on the
     submitting connection's thread, and solves anything else through
     [Check.run_batch] on one shared pool and store ([aqed_cli serve]);
   - [Shard.Fleet] leases it to worker processes over the same socket
     ([aqed_cli serve --workers N]).

   Wire protocol: JSONL — one JSON object per line in both directions,
   printed and parsed with {!Report.Json} (the journal codec, so the
   service adds no dependency and its verdict frames are journal
   records). Requests carry an ["op"]:

     {"op":"submit","design":D,...}   queue one obligation
     {"op":"status"}                  one status frame

   Replies carry a ["frame"]:

     accepted  {"frame":"accepted","job":N}
     busy      {"frame":"busy","active":A,"capacity":C,"draining":B}
     done      {"frame":"done","job":N,"wall_s":S,"obligation":{...}}
     timeout   {"frame":"timeout","job":N,"wall_s":S}
     error     {"frame":"error","message":M}
     status    {"frame":"status",...counters...}

   An executor may claim more ops (the fleet's ["lease"]); such an op
   hands the connection over to the executor.

   The ["obligation"] payload of a [done] frame is byte-identical to a
   journal obligation record ({!Report.Journal.json_of_obligation}), so a
   client can append it to a ledger or diff it against a direct
   [verify --journal] run.

   Robustness model, whatever the executor:
   - each connection runs on its own systhread; a malformed frame gets
     an [error] reply and closes that connection only;
   - SIGPIPE is ignored at [start]: a write to a vanished client fails
     with [EPIPE] and is dropped, while its job still runs to its
     terminal state;
   - admission is bounded: at [capacity] live jobs, or once draining, a
     submit gets a typed [busy] frame;
   - every job has a wall-clock deadline; the watchdog trips its cancel
     flag, and the solve unwinds through {!Sat.Solver.Cancelled} into a
     typed [timeout];
   - every admitted job is finalized exactly once, into exactly one of
     completed/timeouts/errors, and its connection sends exactly one
     terminal frame;
   - reads are idle-bounded ([idle_timeout_s]);
   - the journal is appended incrementally — the meta once, then one
     record per completion, each before its [done] frame — so no
     per-job state outlives the terminal frame;
   - [stop] (wired to SIGTERM/SIGINT by the CLI) drains: the listener
     closes, live jobs reach their terminal frames, then [wait]
     returns. *)

module Json = Report.Json
module Journal = Report.Journal

(* ---- framed socket I/O ---- *)

(* Newline-framed [Report.Json] values over a connected socket: the
   client library, the front end and the fleet's workers all speak
   through this one module. *)
module Wire = struct
  let send_frame fd j =
    let b = Bytes.of_string (Json.to_string j ^ "\n") in
    let rec go off =
      if off < Bytes.length b then
        match Unix.write fd b off (Bytes.length b - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  (* Frames whose failure must not unwind the job that emits them: the
     peer may vanish at any time, and with SIGPIPE ignored the write
     raises [EPIPE]/[ECONNRESET] instead of killing the process. *)
  let send_frame_safe fd j =
    try send_frame fd j with Unix.Unix_error _ -> ()

  type reader = {
    rfd : Unix.file_descr;
    rchunk : Bytes.t;
    mutable rbuf : string;
  }

  let reader fd = { rfd = fd; rchunk = Bytes.create 4096; rbuf = "" }

  (* The receive timeout the server sets on its sockets: every [tick]
     seconds a blocked read wakes to re-check its budget and the drain
     flag, so a drain never waits on an idle peer longer than one tick. *)
  let tick = 0.25

  (* One line; [None] on EOF, a dead peer, [budget] seconds without a
     byte, or a set [stop]. Budget and [stop] are checked when a read
     times out, so they bite only on a socket with SO_RCVTIMEO. *)
  let read_line ?(budget = infinity) ?stop r =
    let stopped () = match stop with Some s -> Atomic.get s | None -> false in
    let rec go left =
      match String.index_opt r.rbuf '\n' with
      | Some i ->
        let l = String.sub r.rbuf 0 i in
        r.rbuf <- String.sub r.rbuf (i + 1) (String.length r.rbuf - i - 1);
        Some l
      | None when left <= 0. || stopped () -> None
      | None -> (
          match Unix.read r.rfd r.rchunk 0 (Bytes.length r.rchunk) with
          | 0 -> None
          | n ->
            r.rbuf <- r.rbuf ^ Bytes.sub_string r.rchunk 0 n;
            go budget
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            go (left -. tick)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left
          | exception Unix.Unix_error _ -> None)
    in
    go budget

  (* One frame, skipping blank lines. A malformed line raises
     [Report.Json.Parse_error]: each caller decides what a garbled peer
     means. *)
  let rec read_frame ?budget ?stop r =
    match read_line ?budget ?stop r with
    | None -> None
    | Some l when String.trim l = "" -> read_frame ?budget ?stop r
    | Some l -> Some (Json.of_string l)
end

(* ---- telemetry ---- *)

let m_accepted = Telemetry.Counter.make "serve.accepted"
let m_rejected = Telemetry.Counter.make "serve.rejected"
let m_timeouts = Telemetry.Counter.make "serve.timeouts"
let m_completed = Telemetry.Counter.make "serve.completed"
let g_active = Telemetry.Gauge.make "serve.active_jobs"

(* ---- job specs ---- *)

type job_spec = {
  sj_design : string;
  sj_bug : string option;
  sj_check : string;          (* "fc" | "rb" | "sac" *)
  sj_depth : int;
  sj_certify : bool;
  sj_timeout_s : float option;  (* per-job override of the server default *)
}

let job_spec ?bug ?(check = "fc") ?(depth = 14) ?(certify = false)
    ?timeout_s design =
  {
    sj_design = design;
    sj_bug = bug;
    sj_check = check;
    sj_depth = depth;
    sj_certify = certify;
    sj_timeout_s = timeout_s;
  }

let json_of_job_spec s =
  Json.Obj
    [ ("op", Json.Str "submit");
      ("design", Json.Str s.sj_design);
      ("bug", match s.sj_bug with None -> Json.Null | Some b -> Json.Str b);
      ("check", Json.Str s.sj_check);
      ("depth", Json.Int s.sj_depth);
      ("certify", Json.Bool s.sj_certify);
      ( "timeout_s",
        match s.sj_timeout_s with None -> Json.Null | Some t -> Json.Float t
      ) ]

let job_spec_of_json j =
  let design = Json.str_or "" (Json.member "design" j) in
  if design = "" then failwith "submit: missing design";
  {
    sj_design = design;
    sj_bug = (match Json.member "bug" j with Json.Str b -> Some b | _ -> None);
    sj_check = Json.str_or "fc" (Json.member "check" j);
    sj_depth = Json.int_or 14 (Json.member "depth" j);
    sj_certify = Json.bool_or false (Json.member "certify" j);
    sj_timeout_s =
      (match Json.member "timeout_s" j with
       | Json.Float t -> Some t
       | Json.Int t -> Some (float_of_int t)
       | _ -> None);
  }

(* ---- solving one obligation ---- *)

type outcome =
  | Done of Journal.obligation
  | Timeout
  | Failed of string

(* The spec cache: a job's answer keyed on what it asks, not on the
   instance it builds. The key is the spec with its check lower-cased
   and its deadline dropped (a deadline bounds the wait, not the
   answer), so a repeat is found before any build. *)
type cache = (job_spec, Aqed.Check.batch_entry) Parallel.Cache.t

let create_cache () = Parallel.Cache.create ()

let spec_key s =
  { s with sj_check = String.lowercase_ascii s.sj_check; sj_timeout_s = None }

(* A miss runs the exact batch path a direct CLI run uses (store +
   certification), so a [Done] record is byte-identical to a
   [verify --journal] record; a hit replays that record marked cached.
   Only a [Done] is cached: cancellation and failures propagate out of
   the single-flight compute, so a waiter retries under its own
   deadline. Total: cancellation becomes [Timeout] and anything the
   solve throws becomes [Failed], so every job reaches exactly one
   terminal state. *)
let solve ~pool ~cache ?store ~span ~id ~cancel spec design ob =
  try
    Telemetry.Span.with_ span
      ~args:[ ("job", Telemetry.Int id); ("design", Telemetry.Str design) ]
    @@ fun () ->
    match
      Parallel.Cache.find_or_compute cache (spec_key spec) (fun () ->
          match
            Aqed.Check.run_batch ~pool ?store ~certify:spec.sj_certify
              ~cancel [ ob ]
          with
          | { Aqed.Check.entries = [ e ]; _ } -> e
          | _ -> failwith "internal: batch returned no entry")
    with
    | hit, e ->
      Done
        (Journal.of_report ~design ~name:e.Aqed.Check.entry_name
           ~cached:(hit || e.Aqed.Check.entry_cached)
           e.Aqed.Check.entry_report)
    | exception Sat.Solver.Cancelled -> Timeout
    | exception Bmc.Engine.Certification_failed m ->
      Failed ("certification failed: " ^ m)
    | exception Failure m -> Failed m
  with e -> Failed ("uncaught: " ^ Printexc.to_string e)

(* ---- configuration ---- *)

type config = {
  socket_path : string;
  resolve : job_spec -> (string * Aqed.Check.obligation, string) result;
  capacity : int;
  job_timeout_s : float;
  idle_timeout_s : float;
  journal : (string * Journal.meta) option;
}

let config ?(capacity = 32) ?(job_timeout_s = 300.) ?(idle_timeout_s = 30.)
    ?journal ~resolve socket_path =
  {
    socket_path;
    resolve;
    capacity = max 1 capacity;
    job_timeout_s;
    idle_timeout_s;
    journal;
  }

type summary = {
  sm_accepted : int;
  sm_completed : int;
  sm_timeouts : int;
  sm_rejected : int;
  sm_errors : int;
}

(* ---- server state ---- *)

type job = {
  id : int;
  spec : job_spec;
  design : string;
  ob : Aqed.Check.obligation;
  timeout_s : float;
  submitted : float;
  cancel : bool Atomic.t;
}

type executor = {
  run : server -> job -> unit;
  tick : server -> unit;
  ops :
    (string * (server -> Unix.file_descr -> Wire.reader -> Json.t -> unit))
    list;
  queued : unit -> int;
  status : unit -> (string * Json.t) list;
  shutdown : unit -> unit;
}

and server = {
  cfg : config;
  exec : executor;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  wd_stop : bool Atomic.t;
  lock : Mutex.t;  (* guards every mutable field below and [live] *)
  finished : Condition.t;  (* broadcast whenever a job is finalized *)
  live : (int, entry) Hashtbl.t;  (* admitted, not yet terminal *)
  mutable next_job : int;
  mutable accepted : int;
  mutable completed : int;
  mutable timeouts : int;
  mutable rejected : int;
  mutable errors : int;
  jlock : Mutex.t;  (* serializes journal appends, apart from [lock] so
                       disk I/O never blocks status frames *)
  mutable journal_started : bool;  (* meta record already appended *)
  mutable conns : Thread.t list;   (* live connection threads only:
                                      each prunes itself on exit *)
  mutable accept_th : Thread.t option;
  mutable watchdog_th : Thread.t option;
}

and entry = {
  job : job;
  mutable terminal : (float * outcome) option;  (* wall, outcome *)
}

let locked srv f = Mutex.protect srv.lock f
let draining srv = Atomic.get srv.stop_flag
let active srv = locked srv (fun () -> Hashtbl.length srv.live)

(* The one place a job leaves the live table. The first call wins and
   later ones are no-ops; the job's connection thread, waiting in
   [await], then journals and sends the terminal frame. *)
let finalize srv job ~wall outcome =
  locked srv @@ fun () ->
  match Hashtbl.find_opt srv.live job.id with
  | None -> ()
  | Some e ->
    e.terminal <- Some (wall, outcome);
    Hashtbl.remove srv.live job.id;
    (match outcome with
     | Done _ ->
       srv.completed <- srv.completed + 1;
       Telemetry.Counter.incr m_completed
     | Timeout ->
       srv.timeouts <- srv.timeouts + 1;
       Telemetry.Counter.incr m_timeouts
     | Failed _ -> srv.errors <- srv.errors + 1);
    Telemetry.Gauge.set g_active (Hashtbl.length srv.live);
    Condition.broadcast srv.finished

(* ---- frames ---- *)

let frame name fields = Json.Obj (("frame", Json.Str name) :: fields)
let error_frame msg = frame "error" [ ("message", Json.Str msg) ]

let busy_frame srv =
  frame "busy"
    [ ("active", Json.Int (active srv));
      ("capacity", Json.Int srv.cfg.capacity);
      ("draining", Json.Bool (draining srv)) ]

let status_frame srv =
  let active, accepted, completed, timeouts, rejected, errors =
    locked srv (fun () ->
        ( Hashtbl.length srv.live, srv.accepted, srv.completed, srv.timeouts,
          srv.rejected, srv.errors ))
  in
  frame "status"
    ([ ("active", Json.Int active);
       ("queued", Json.Int (srv.exec.queued ()));
       ("capacity", Json.Int srv.cfg.capacity);
       ("accepted", Json.Int accepted);
       ("completed", Json.Int completed);
       ("timeouts", Json.Int timeouts);
       ("rejected", Json.Int rejected);
       ("errors", Json.Int errors);
       ("draining", Json.Bool (draining srv)) ]
     @ srv.exec.status ())

let terminal_frame id wall = function
  | Done oblig ->
    frame "done"
      [ ("job", Json.Int id);
        ("wall_s", Json.Float wall);
        ("obligation", Journal.json_of_obligation oblig) ]
  | Timeout ->
    frame "timeout" [ ("job", Json.Int id); ("wall_s", Json.Float wall) ]
  | Failed msg ->
    frame "error" [ ("job", Json.Int id); ("message", Json.Str msg) ]

(* ---- jobs ---- *)

(* Incremental journal: the meta heads the run (so multi-run grouping
   stays well-formed) and each completed obligation is appended as it
   finishes. An append failure is reported on stderr but never unwinds
   the job. *)
let journal_append srv oblig =
  match srv.cfg.journal with
  | None -> ()
  | Some (path, meta) ->
    Mutex.protect srv.jlock @@ fun () ->
    let records =
      if srv.journal_started then [ Journal.Obligation oblig ]
      else [ Journal.Meta meta; Journal.Obligation oblig ]
    in
    (match Journal.append path records with
     | () -> srv.journal_started <- true
     | exception Sys_error m ->
       Printf.eprintf "serve: journal append failed: %s\n%!" m)

let admit srv spec design ob =
  locked srv @@ fun () ->
  if draining srv || Hashtbl.length srv.live >= srv.cfg.capacity then begin
    srv.rejected <- srv.rejected + 1;
    None
  end
  else begin
    srv.accepted <- srv.accepted + 1;
    srv.next_job <- srv.next_job + 1;
    let job =
      {
        id = srv.next_job;
        spec;
        design;
        ob;
        timeout_s =
          Option.value spec.sj_timeout_s ~default:srv.cfg.job_timeout_s;
        submitted = Unix.gettimeofday ();
        cancel = Atomic.make false;
      }
    in
    let e = { job; terminal = None } in
    Hashtbl.replace srv.live job.id e;
    Telemetry.Gauge.set g_active (Hashtbl.length srv.live);
    Some e
  end

let await srv e =
  locked srv @@ fun () ->
  let rec go () =
    match e.terminal with
    | Some t -> t
    | None ->
      Condition.wait srv.finished srv.lock;
      go ()
  in
  go ()

(* [`Continue] keeps the connection open for the next request; [`Close]
   tears it down (protocol violations only — typed rejections like [busy]
   keep the connection). *)
let handle_submit srv fd j =
  match job_spec_of_json j with
  | exception (Failure m | Json.Parse_error m) ->
    Wire.send_frame fd (error_frame ("bad submit: " ^ m));
    `Close
  | spec -> (
      match srv.cfg.resolve spec with
      | Error m ->
        Wire.send_frame fd (error_frame m);
        `Close
      | Ok (design, ob) ->
        (match admit srv spec design ob with
         | None ->
           Telemetry.Counter.incr m_rejected;
           Wire.send_frame fd (busy_frame srv)
         | Some e ->
           Telemetry.Counter.incr m_accepted;
           (* Admitted: even if this client already vanished, the job
              runs to its terminal state so its slot is released and
              accounting holds — the frame writes below are drop-safe. *)
           Wire.send_frame_safe fd
             (frame "accepted" [ ("job", Json.Int e.job.id) ]);
           srv.exec.run srv e.job;
           let wall, outcome = await srv e in
           (match outcome with Done o -> journal_append srv o | _ -> ());
           Wire.send_frame_safe fd (terminal_frame e.job.id wall outcome));
        `Continue)

let handle_conn srv fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO Wire.tick;
  let r = Wire.reader fd in
  let rec loop () =
    match
      Wire.read_frame ~budget:srv.cfg.idle_timeout_s ~stop:srv.stop_flag r
    with
    | None -> ()
    | exception Json.Parse_error m ->
      (* Crash isolation: a malformed frame poisons this connection
         only. Reply typed, then close. *)
      Wire.send_frame fd (error_frame ("parse error: " ^ m))
    | Some j -> (
        match Json.str_or "" (Json.member "op" j) with
        | "status" ->
          Wire.send_frame fd (status_frame srv);
          loop ()
        | "submit" -> (
            match handle_submit srv fd j with
            | `Continue -> loop ()
            | `Close -> ())
        | op -> (
            match List.assoc_opt op srv.exec.ops with
            | Some take_over -> take_over srv fd r j
            | None ->
              Wire.send_frame fd
                (error_frame (Printf.sprintf "unknown op %S" op))))
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* Self-prune: a long-lived server must not retain one Thread.t per
     connection ever accepted. If the acceptor has not registered this
     thread yet (create/registration race) the handle stays until drain,
     where joining an already-finished thread returns immediately. *)
  let self = Thread.id (Thread.self ()) in
  locked srv (fun () ->
      srv.conns <- List.filter (fun t -> Thread.id t <> self) srv.conns)

(* ---- lifecycle ---- *)

(* Every 50 ms: trip the cancel flag of each job past its deadline, then
   give the executor its tick (the fleet's lease bookkeeping, and the
   wake-up that delivers a drain begun from a signal handler). *)
let watchdog srv () =
  while not (Atomic.get srv.wd_stop) do
    let now = Unix.gettimeofday () in
    locked srv (fun () ->
        Hashtbl.iter
          (fun _ e ->
            if now >= e.job.submitted +. e.job.timeout_s then
              Atomic.set e.job.cancel true)
          srv.live);
    srv.exec.tick srv;
    Thread.delay 0.05
  done

let accept_loop srv () =
  let rec go () =
    if not (draining srv) then begin
      (match Unix.select [ srv.listen_fd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.accept srv.listen_fd with
           | fd, _ ->
             let th = Thread.create (handle_conn srv) fd in
             locked srv (fun () -> srv.conns <- th :: srv.conns)
           | exception Unix.Unix_error (_, _, _) -> ())
       | exception Unix.Unix_error (_, _, _) -> ());
      go ()
    end
  in
  go ()

let start ~executor cfg =
  (* A client that disconnects mid-job must not take the server with it:
     with the default disposition, the next frame write to its socket
     raises SIGPIPE and kills the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     executor.shutdown ();
     raise e);
  let srv =
    {
      cfg;
      exec = executor;
      listen_fd;
      stop_flag = Atomic.make false;
      wd_stop = Atomic.make false;
      lock = Mutex.create ();
      finished = Condition.create ();
      live = Hashtbl.create 64;
      next_job = 0;
      accepted = 0;
      completed = 0;
      timeouts = 0;
      rejected = 0;
      errors = 0;
      jlock = Mutex.create ();
      journal_started = false;
      conns = [];
      accept_th = None;
      watchdog_th = None;
    }
  in
  srv.accept_th <- Some (Thread.create (accept_loop srv) ());
  srv.watchdog_th <- Some (Thread.create (watchdog srv) ());
  srv

(* Begin the drain. Only flips an atomic, so it is safe from a signal
   handler (the CLI wires SIGTERM/SIGINT here). *)
let stop srv = Atomic.set srv.stop_flag true

let wait srv =
  Option.iter Thread.join srv.accept_th;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink srv.cfg.socket_path with Unix.Unix_error _ -> ());
  (* The acceptor has stopped, so no new entries land in [conns]. Client
     connections exit after their job's terminal frame, once their next
     read observes the drain; executor connections (fleet workers) once
     every admitted job is terminal. The watchdog must outlive them all:
     its tick is what wakes drain-waiters. *)
  let conns = locked srv (fun () -> srv.conns) in
  List.iter Thread.join conns;
  Atomic.set srv.wd_stop true;
  Option.iter Thread.join srv.watchdog_th;
  srv.exec.shutdown ();
  locked srv (fun () ->
      {
        sm_accepted = srv.accepted;
        sm_completed = srv.completed;
        sm_timeouts = srv.timeouts;
        sm_rejected = srv.rejected;
        sm_errors = srv.errors;
      })

(* ---- the in-process executor ---- *)

let in_process ?store ?workers () =
  let pool = Parallel.Pool.create ?workers () in
  let cache = create_cache () in
  {
    run =
      (fun srv job ->
        let t0 = Unix.gettimeofday () in
        let outcome =
          solve ~pool ~cache ?store ~span:"serve.job" ~id:job.id
            ~cancel:job.cancel job.spec job.design job.ob
        in
        finalize srv job ~wall:(Unix.gettimeofday () -. t0) outcome);
    tick = ignore;
    ops = [];
    queued = (fun () -> Parallel.Pool.queued pool);
    status = (fun () -> []);
    shutdown = (fun () -> Parallel.Pool.shutdown pool);
  }

(* ---- client ---- *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    r : Wire.reader;
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; r = Wire.reader fd }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send t j = Wire.send_frame t.fd j

  (* Blocking: the server always answers a request with at least one
     frame, and a drain completes in-flight jobs before closing. *)
  let recv t =
    match Wire.read_frame t.r with
    | Some j -> j
    | None -> failwith "serve: connection closed by server"

  type outcome =
    | Completed of int * float * Journal.obligation
        (** job id, server-side wall seconds, the verdict record *)
    | Timed_out of int * float
    | Busy of int * int  (** active, capacity *)
    | Refused of string

  let submit t spec =
    send t (json_of_job_spec spec);
    let rec next () =
      let j = recv t in
      match Json.str_or "" (Json.member "frame" j) with
      | "accepted" -> next ()
      | "done" ->
        Completed
          ( Json.int_or 0 (Json.member "job" j),
            Json.float_or 0. (Json.member "wall_s" j),
            Journal.obligation_of_json (Json.member "obligation" j) )
      | "timeout" ->
        Timed_out
          ( Json.int_or 0 (Json.member "job" j),
            Json.float_or 0. (Json.member "wall_s" j) )
      | "busy" ->
        Busy
          ( Json.int_or 0 (Json.member "active" j),
            Json.int_or 0 (Json.member "capacity" j) )
      | "error" -> Refused (Json.str_or "" (Json.member "message" j))
      | f -> Refused (Printf.sprintf "unexpected frame %S" f)
    in
    next ()

  let status t =
    send t (Json.Obj [ ("op", Json.Str "status") ]);
    recv t
end
