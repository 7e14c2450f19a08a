(* Sharded multi-process verification: the fleet executor and its worker.

   [Fleet] plugs into the {!Serve} front end, which still owns the
   socket, admission, deadlines, accounting, the journal and the drain.
   Instead of solving, the fleet queues every admitted job and leases it,
   one obligation at a time, to worker processes connected to the same
   socket:

     {"op":"lease","worker":W}                worker asks for work
     {"frame":"job","job":N,"epoch":E,...}      ... and gets one job
     {"frame":"drain"}                          ... or is sent home
     {"op":"heartbeat","job":N,"epoch":E}     while the worker solves
     {"op":"result","job":N,"epoch":E,...}    terminal outcome

   Work-stealing falls out of the queue shape: whichever worker goes
   idle first takes the next pending job, re-queued jobs first (those
   leases are counted as steals).

   The re-queue invariant:
   - a worker that crashes mid-job (EOF on its connection), goes silent
     past [heartbeat_grace_s], or garbles a frame has its lease
     re-queued at the front of the pending queue under a bumped epoch; a
     late result from the old lease is dropped by its stale epoch.
     Re-solving is harmless: store writes are content-addressed, so a
     duplicate solve re-derives the same certified entry;
   - a still-heartbeating lease that overruns the job deadline by
     [lease_grace_s] is answered as a timeout by the fleet itself (the
     worker enforces the deadline through cooperative cancellation, so
     this fires only when cancellation could not bite);
   - a job re-queued more than [max_requeues] times, or pending with no
     worker connected past [pending_grace_s], is answered with a typed
     error instead of cycling through the fleet forever.

   Lock order: the fleet's lock, then the front end's (through
   [Serve.finalize]/[Serve.active]); the front end never calls the
   fleet while holding its own. *)

module Json = Report.Json
module Journal = Report.Journal
module Wire = Serve.Wire

(* ---- telemetry ---- *)

let m_leases = Telemetry.Counter.make "shard.leases"
let m_steals = Telemetry.Counter.make "shard.steals"
let m_requeued = Telemetry.Counter.make "shard.requeued"
let m_worker_deaths = Telemetry.Counter.make "shard.worker_deaths"
let m_stale_results = Telemetry.Counter.make "shard.stale_results"
let g_workers = Telemetry.Gauge.make "shard.workers"
let g_pending = Telemetry.Gauge.make "shard.pending"

(* One gauge per worker name, interned on first use: 1 while the worker
   holds a lease, 0 while idle — a live load map of the fleet. *)
let worker_gauge name =
  Telemetry.Gauge.make (Printf.sprintf "shard.worker.%s.active" name)

let op_of j = Json.str_or "" (Json.member "op" j)

(* The fleet's pending queue: O(1) push, re-queue, pop and length. *)
module Pending = struct
  type 'a t = {
    fresh : 'a Queue.t;       (* admitted, oldest first *)
    mutable front : 'a list;  (* re-queued, most recent first *)
    mutable length : int;
  }

  let create () = { fresh = Queue.create (); front = []; length = 0 }

  let push q x =
    Queue.push x q.fresh;
    q.length <- q.length + 1

  let requeue q x =
    q.front <- x :: q.front;
    q.length <- q.length + 1

  let pop q =
    let x =
      match q.front with
      | x :: rest ->
        q.front <- rest;
        Some x
      | [] -> Queue.take_opt q.fresh
    in
    if Option.is_some x then q.length <- q.length - 1;
    x

  let length q = q.length
end

module Fleet = struct
  let lease_grace_s = 10.
  let max_requeues = 3

  type stats = {
    st_pending : int;
    st_leased : int;
    st_workers : int;
    st_leases : int;
    st_steals : int;
    st_requeued : int;
    st_worker_deaths : int;
    st_stale_results : int;
  }

  type lease = {
    l_worker : string;
    l_started : float;
  }

  type state = Queued | Leased of lease | Finished

  type fjob = {
    job : Serve.job;
    mutable epoch : int;  (* bumped on re-queue and on finish, so a
                             result from a lost lease is recognizably
                             stale *)
    mutable state : state;
    mutable requeues : int;
  }

  type t = {
    heartbeat_grace_s : float;
    pending_grace_s : float;
    lock : Mutex.t;  (* guards every mutable field below *)
    cond : Condition.t;  (* pending pushed / job finished / watchdog
                            tick — lease- and drain-waiters re-check *)
    queue : fjob Pending.t;  (* may hold jobs finished while queued;
                                [next_lease] skips them *)
    live : (int, fjob) Hashtbl.t;  (* unfinished jobs only *)
    mutable workers : int;
    mutable leases : int;
    mutable steals : int;
    mutable requeued : int;
    mutable worker_deaths : int;
    mutable stale_results : int;
  }

  let create ?(heartbeat_grace_s = 5.) ?(pending_grace_s = 60.) () =
    {
      heartbeat_grace_s;
      pending_grace_s;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Pending.create ();
      live = Hashtbl.create 64;
      workers = 0;
      leases = 0;
      steals = 0;
      requeued = 0;
      worker_deaths = 0;
      stale_results = 0;
    }

  let locked t f = Mutex.protect t.lock f

  (* Under [t.lock]. *)
  let finish t srv fj ~wall outcome =
    if fj.state <> Finished then begin
      fj.state <- Finished;
      fj.epoch <- fj.epoch + 1;
      Hashtbl.remove t.live fj.job.Serve.id;
      Serve.finalize srv fj.job ~wall outcome;
      (* Drain-waiting workers watch [Serve.active]; wake them. *)
      Condition.broadcast t.cond
    end

  (* Under [t.lock]. Give a lost lease back to the queue — or, past the
     re-queue budget, fail the job so one worker-killing obligation
     cannot cycle through the fleet forever. *)
  let requeue t srv fj =
    if fj.state <> Finished then begin
      fj.requeues <- fj.requeues + 1;
      if fj.requeues > max_requeues then
        finish t srv fj ~wall:0.
          (Serve.Failed
             (Printf.sprintf
                "job failed on %d workers (crashed or silent); giving up"
                fj.requeues))
      else begin
        fj.epoch <- fj.epoch + 1;
        fj.state <- Queued;
        Pending.requeue t.queue fj;
        t.requeued <- t.requeued + 1;
        Telemetry.Counter.incr m_requeued;
        Telemetry.Gauge.set g_pending (Pending.length t.queue);
        Condition.broadcast t.cond
      end
    end

  let run t _srv job =
    locked t @@ fun () ->
    let fj = { job; epoch = 0; state = Queued; requeues = 0 } in
    Hashtbl.replace t.live job.Serve.id fj;
    Pending.push t.queue fj;
    Telemetry.Gauge.set g_pending (Pending.length t.queue);
    Condition.broadcast t.cond

  (* Blocks until there is a job to lease or the fleet is drained.
     Returns with the job already marked leased (under the lock), so no
     other worker can race for it. *)
  let next_lease t srv ~worker =
    locked t @@ fun () ->
    let rec go () =
      match Pending.pop t.queue with
      | Some ({ state = Queued; _ } as fj) ->
        fj.state <-
          Leased { l_worker = worker; l_started = Unix.gettimeofday () };
        t.leases <- t.leases + 1;
        Telemetry.Counter.incr m_leases;
        if fj.requeues > 0 then begin
          t.steals <- t.steals + 1;
          Telemetry.Counter.incr m_steals
        end;
        Telemetry.Gauge.set g_pending (Pending.length t.queue);
        `Job (fj, fj.epoch)
      | Some _ -> go () (* finished while queued (pending grace) *)
      | None when Serve.draining srv && Serve.active srv = 0 -> `Drain
      | None ->
        (* Woken by a submit, a re-queue, a finish, or the watchdog
           tick (which exists so a drain begun from a signal handler —
           where broadcasting is unsafe — still wakes us). *)
        Condition.wait t.cond t.lock;
        go ()
    in
    go ()

  let job_frame fj epoch =
    let job = fj.job in
    Json.Obj
      [ ("frame", Json.Str "job");
        ("job", Json.Int job.Serve.id);
        ("epoch", Json.Int epoch);
        ("timeout_s", Json.Float job.Serve.timeout_s);
        ("requeues", Json.Int fj.requeues);
        ("spec", Serve.json_of_job_spec job.Serve.spec) ]

  (* A result frame from a worker. Epoch-checked under the lock: a
     result for a re-queued or already-finished lease is dropped (the
     solve it reports was re-run or superseded). *)
  let handle_result t srv j =
    let id = Json.int_or (-1) (Json.member "job" j) in
    let epoch = Json.int_or (-1) (Json.member "epoch" j) in
    let wall = Json.float_or 0. (Json.member "wall_s" j) in
    (* Parse outside the lock; a malformed obligation payload fails the
       job rather than poisoning the server. *)
    let outcome =
      match Json.str_or "" (Json.member "outcome" j) with
      | "done" -> (
          match Journal.obligation_of_json (Json.member "obligation" j) with
          | oblig -> Serve.Done oblig
          | exception _ ->
            Serve.Failed "worker sent a malformed result payload")
      | "timeout" -> Serve.Timeout
      | _ ->
        Serve.Failed
          (match Json.str_or "" (Json.member "message" j) with
           | "" -> "worker error"
           | m -> m)
    in
    locked t @@ fun () ->
    match Hashtbl.find_opt t.live id with
    | Some fj when fj.epoch = epoch -> finish t srv fj ~wall outcome
    | _ ->
      t.stale_results <- t.stale_results + 1;
      Telemetry.Counter.incr m_stale_results

  (* One worker connection, taken over from the front end at its first
     [lease] op: serve leases until the fleet drains or the worker dies. *)
  let serve_worker t srv fd r j =
    let worker =
      match Json.str_or "" (Json.member "worker" j) with
      | "" -> "anonymous"
      | w -> w
    in
    let gauge = worker_gauge worker in
    let set_workers d =
      locked t (fun () ->
          t.workers <- t.workers + d;
          Telemetry.Gauge.set g_workers t.workers)
    in
    set_workers 1;
    (* Every worker frame must arrive within the heartbeat grace: while
       solving, heartbeats; after a result, the next lease op follows
       within microseconds. *)
    let read () =
      try Wire.read_frame ~budget:t.heartbeat_grace_s r
      with Json.Parse_error _ -> None
    in
    let dead ?lease () =
      locked t @@ fun () ->
      t.worker_deaths <- t.worker_deaths + 1;
      Telemetry.Counter.incr m_worker_deaths;
      match lease with
      | Some (fj, epoch) when fj.epoch = epoch -> requeue t srv fj
      | _ -> ()
    in
    let rec await lease =
      match read () with
      | None ->
        dead ~lease ();
        false
      | Some j when op_of j = "result" ->
        handle_result t srv j;
        true
      | Some _ -> await lease (* heartbeat *)
    in
    let rec serve () =
      match next_lease t srv ~worker with
      | `Drain ->
        Wire.send_frame_safe fd (Json.Obj [ ("frame", Json.Str "drain") ])
      | `Job (fj, epoch) ->
        Telemetry.Gauge.set gauge 1;
        let alive =
          match Wire.send_frame fd (job_frame fj epoch) with
          | () -> await (fj, epoch)
          | exception Unix.Unix_error _ ->
            (* Gone between its lease op and our job frame: nobody has
               seen the job — re-queue it. *)
            dead ~lease:(fj, epoch) ();
            false
        in
        Telemetry.Gauge.set gauge 0;
        if alive then
          match read () with
          | Some j when op_of j = "lease" -> serve ()
          | _ -> dead ()
    in
    serve ();
    set_workers (-1)

  (* Every watchdog tick: answer leases that overran deadline + grace
     with a timeout, fail jobs pending with no fleet attached, and wake
     lease- and drain-waiters. *)
  let tick t srv =
    let now = Unix.gettimeofday () in
    locked t @@ fun () ->
    Hashtbl.fold
      (fun _ fj acc ->
        match fj.state with
        | Leased l
          when now > l.l_started +. fj.job.Serve.timeout_s +. lease_grace_s ->
          (fj, now -. l.l_started, Serve.Timeout) :: acc
        | Queued
          when t.workers = 0
               && now > fj.job.Serve.submitted +. t.pending_grace_s ->
          (fj, 0., Serve.Failed "no worker joined the fleet in time") :: acc
        | _ -> acc)
      t.live []
    |> List.iter (fun (fj, wall, outcome) -> finish t srv fj ~wall outcome);
    Condition.broadcast t.cond

  let stats t =
    locked t @@ fun () ->
    {
      st_pending = Pending.length t.queue;
      st_leased =
        Hashtbl.fold
          (fun _ fj n -> match fj.state with Leased _ -> n + 1 | _ -> n)
          t.live 0;
      st_workers = t.workers;
      st_leases = t.leases;
      st_steals = t.steals;
      st_requeued = t.requeued;
      st_worker_deaths = t.worker_deaths;
      st_stale_results = t.stale_results;
    }

  let leases t =
    locked t @@ fun () ->
    Hashtbl.fold
      (fun _ fj acc ->
        match fj.state with Leased l -> l.l_worker :: acc | _ -> acc)
      t.live []

  let status t () =
    let s = stats t in
    [ ("workers", Json.Int s.st_workers);
      ("leased", Json.Int s.st_leased);
      ("leases", Json.Int s.st_leases);
      ("steals", Json.Int s.st_steals);
      ("requeued", Json.Int s.st_requeued);
      ("worker_deaths", Json.Int s.st_worker_deaths);
      ("stale_results", Json.Int s.st_stale_results) ]

  let executor t =
    {
      Serve.run = run t;
      tripped = ignore;
      tick = tick t;
      ops = [ ("lease", serve_worker t) ];
      queued = (fun () -> (stats t).st_pending);
      status = status t;
      shutdown = ignore;
    }
end

module Worker = struct
  let heartbeat_s = 1.0
  let connect_timeout_s = 30.

  type config = {
    socket_path : string;
    name : string;
    resolve :
      Serve.job_spec -> (string * Aqed.Check.obligation, string) result;
    store : Store.t option;
    pool_workers : int;
  }

  let config ?name ?store ?(pool_workers = 1) ~resolve socket_path =
    {
      socket_path;
      name =
        (match name with
         | Some n -> n
         | None -> Printf.sprintf "w%d" (Unix.getpid ()));
      resolve;
      store;
      pool_workers = max 1 pool_workers;
    }

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  (* The coordinator may be spawned concurrently with its workers (serve
     --workers N forks before the socket necessarily exists), so the
     connect retries within a budget. *)
  let connect_retry path =
    let deadline = Unix.gettimeofday () +. connect_timeout_s in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception
          Unix.Unix_error
            ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
        when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.1;
        go ()
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        failwith
          (Printf.sprintf "worker: cannot reach coordinator at %s: %s" path
             (Unix.error_message e))
    in
    go ()

  (* The lease being solved, as the ticker sees it. *)
  type current = {
    c_id : int;
    c_epoch : int;
    c_deadline : float;
    c_cancel : bool Atomic.t;
    mutable c_beat : float;  (* last heartbeat sent *)
  }

  let run cfg =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = connect_retry cfg.socket_path in
    let r = Wire.reader fd in
    (* [wlock] serializes the ticker's heartbeats with the job loop's
       frames and guards [current]. The job loop clears [current] and
       sends its result in one critical section, so no heartbeat ever
       follows a result. *)
    let wlock = Mutex.create () in
    let current = ref None in
    let send j = Mutex.protect wlock (fun () -> Wire.send_frame fd j) in
    let heartbeat c =
      Json.Obj
        [ ("op", Json.Str "heartbeat");
          ("worker", Json.Str cfg.name);
          ("job", Json.Int c.c_id);
          ("epoch", Json.Int c.c_epoch) ]
    in
    (* One ticker per worker process: heartbeats and the deadline for
       whichever lease is current. *)
    let stopping = Atomic.make false in
    let ticker =
      Thread.create
        (fun () ->
          while not (Atomic.get stopping) do
            let now = Unix.gettimeofday () in
            Mutex.protect wlock (fun () ->
                match !current with
                | None -> ()
                | Some c ->
                  if now >= c.c_deadline then Atomic.set c.c_cancel true;
                  if now -. c.c_beat >= heartbeat_s then begin
                    c.c_beat <- now;
                    Wire.send_frame_safe fd (heartbeat c)
                  end);
            Thread.delay 0.05
          done)
        ()
    in
    let pool = Parallel.Pool.create ~workers:cfg.pool_workers () in
    let cache = Serve.create_cache () in
    let leases = ref 0 and completed = ref 0 in
    let timeouts = ref 0 and errors = ref 0 in
    let lease_op =
      Json.Obj [ ("op", Json.Str "lease"); ("worker", Json.Str cfg.name) ]
    in
    (* Solve one leased job on this worker's own pool. Every lease ends
       in exactly one result frame. *)
    let do_job j =
      let id = Json.int_or 0 (Json.member "job" j) in
      let epoch = Json.int_or 0 (Json.member "epoch" j) in
      let timeout_s = Json.float_or 300. (Json.member "timeout_s" j) in
      incr leases;
      let resolved =
        match Serve.job_spec_of_json (Json.member "spec" j) with
        | spec -> Result.map (fun (d, ob) -> (spec, d, ob)) (cfg.resolve spec)
        | exception (Failure m | Json.Parse_error m) -> Error m
      in
      let fields =
        match resolved with
        | Error m ->
          incr errors;
          [ ("outcome", Json.Str "error"); ("message", Json.Str m) ]
        | Ok (spec, design, ob) -> (
            let t0 = Unix.gettimeofday () in
            let c =
              { c_id = id; c_epoch = epoch; c_deadline = t0 +. timeout_s;
                c_cancel = Atomic.make false; c_beat = neg_infinity }
            in
            Mutex.protect wlock (fun () -> current := Some c);
            let outcome =
              Serve.solve ~pool ~cache ?store:cfg.store ~span:"shard.job" ~id
                ~cancel:c.c_cancel spec design ob
            in
            let wall = ("wall_s", Json.Float (Unix.gettimeofday () -. t0)) in
            match outcome with
            | Serve.Done oblig ->
              incr completed;
              [ ("outcome", Json.Str "done"); wall;
                ("obligation", Journal.json_of_obligation oblig) ]
            | Serve.Timeout ->
              incr timeouts;
              [ ("outcome", Json.Str "timeout"); wall ]
            | Serve.Failed m ->
              incr errors;
              [ ("outcome", Json.Str "error"); wall; ("message", Json.Str m) ])
      in
      Mutex.protect wlock (fun () ->
          current := None;
          Wire.send_frame fd
            (Json.Obj
               ([ ("op", Json.Str "result");
                  ("worker", Json.Str cfg.name);
                  ("job", Json.Int id);
                  ("epoch", Json.Int epoch) ]
                @ fields)))
    in
    (* Ends on [drain], on the coordinator's EOF, or when a write fails
       because the coordinator is gone. *)
    let rec loop () =
      match Wire.read_frame r with
      | Some j when Json.str_or "" (Json.member "frame" j) = "job" ->
        do_job j;
        send lease_op;
        loop ()
      | Some j when Json.str_or "" (Json.member "frame" j) = "drain" -> ()
      | Some _ -> loop ()
      | None -> ()
    in
    (try
       send lease_op;
       loop ()
     with Unix.Unix_error _ | Json.Parse_error _ -> ());
    Atomic.set stopping true;
    Thread.join ticker;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Parallel.Pool.shutdown pool;
    {
      wk_leases = !leases;
      wk_completed = !completed;
      wk_timeouts = !timeouts;
      wk_errors = !errors;
    }
end
