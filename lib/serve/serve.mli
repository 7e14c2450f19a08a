(** The verification service behind [aqed_cli serve]: one front end over
    a pluggable {!executor}.

    The front end owns everything a client can observe — the Unix-domain
    socket, the accept and connection loops, admission, the live-job
    table with per-job deadlines and cancel flags, exactly-once
    finalization, the lifetime counters, the journal, the status frame
    and the drain. An executor decides how an admitted job reaches its
    terminal state: {!in_process} answers it from one spec {!cache} or
    solves it on one shared {!Parallel.Pool} and (optionally)
    {!Store.t};
    [Shard.Fleet] leases it to worker processes. The wire protocol is
    JSONL in both directions, printed and parsed with {!Report.Json};
    the verdict payload of a completed job is byte-identical to a
    journal obligation record ({!Report.Journal.json_of_obligation}), so
    service results diff cleanly against direct [verify --journal] runs.

    Robustness, whatever the executor: bounded admission (typed [busy]
    frame at capacity or while draining), per-job wall-clock deadlines
    enforced through the solver's cooperative cancellation
    ({!Sat.Solver.Cancelled} becomes a typed [timeout] frame),
    per-connection crash isolation (a malformed frame closes that
    connection only; a client that disconnects mid-job costs nothing —
    SIGPIPE is ignored, dead-peer writes are dropped and the job still
    runs to a terminal state), idle-client read timeouts, incremental
    journal appends, and graceful drain: {!stop} stops accepting, live
    jobs finish and stream their frames, {!wait} returns. Every admitted
    job is counted in exactly one of completed/timeouts/errors. *)

(** {1 Wire framing}

    Newline-framed {!Report.Json} values over a connected socket, shared
    by the client library, the front end and the fleet's workers. *)

module Wire : sig
  val send_frame : Unix.file_descr -> Report.Json.t -> unit
  (** One JSON value, newline-terminated. Raises [Unix.Unix_error] on a
      dead peer. *)

  val send_frame_safe : Unix.file_descr -> Report.Json.t -> unit
  (** Like {!send_frame} but drops the frame on any [Unix.Unix_error] —
      for frames whose failure must not unwind the sender. *)

  type reader
  (** Buffered line reader over one socket. *)

  val reader : Unix.file_descr -> reader

  val read_frame :
    ?budget:float -> ?stop:bool Atomic.t -> reader -> Report.Json.t option
  (** One frame, skipping blank lines; [None] on EOF or a dead peer.
      On a socket with a receive timeout (the server's sockets), also
      [None] after [budget] seconds without a byte or once [stop] is
      set. Raises [Report.Json.Parse_error] on a malformed line. *)
end

(** {1 Job specs} *)

type job_spec = {
  sj_design : string;           (** registry name, e.g. ["aes"] *)
  sj_bug : string option;       (** bug to inject, as in [check -b] *)
  sj_check : string;            (** ["fc"], ["rb"] or ["sac"] *)
  sj_depth : int;               (** BMC bound *)
  sj_certify : bool;
  sj_timeout_s : float option;  (** per-job override of the server's
                                    default deadline *)
}

val job_spec :
  ?bug:string -> ?check:string -> ?depth:int -> ?certify:bool ->
  ?timeout_s:float -> string -> job_spec
(** [job_spec design] with the CLI defaults: ["fc"], depth 14, no
    certification, the server's default timeout. *)

val json_of_job_spec : job_spec -> Report.Json.t
val job_spec_of_json : Report.Json.t -> job_spec
(** Wire codec for submit requests. [job_spec_of_json] raises [Failure]
    on a missing design and tolerates absent optional fields. *)

(** {1 Solving} *)

type outcome =
  | Done of Report.Journal.obligation
  | Timeout  (** the cancel flag was tripped *)
  | Failed of string

type cache
(** A single-flight {!Parallel.Cache} of completed jobs, keyed on the
    job spec: design, bug, lower-cased check, depth and [certify] — not
    [timeout_s], which bounds the wait and not the answer. The value is
    the batch entry of that spec's first [Done]. Each executor holds
    one: {!in_process} for the whole server, the fleet one per worker
    process. *)

val create_cache : unit -> cache

val solve :
  pool:Parallel.Pool.t -> cache:cache -> ?store:Store.t ->
  span:string -> id:int -> cancel:bool Atomic.t -> job_spec -> string ->
  Aqed.Check.obligation -> outcome
(** [solve ~pool ~cache ~span ~id ~cancel spec design ob], inside a
    [span] trace span. A spec already in [cache] is answered on the
    calling thread, without building [ob] or entering [pool]: the first
    answer's record, marked cached. Otherwise [ob] runs through
    {!Aqed.Check.run_batch} on [pool] (and [store]), and a [Done] lands
    in [cache]; concurrent submissions of one spec solve once, the
    others wait for it. A waiter still honours its own [cancel]: once it
    trips and {!Parallel.Cache.wake} runs on [cache], the waiter leaves
    with [Timeout] while the solve goes on for its leader. A timeout or
    an error is never cached, so a waiter whose leader failed retries
    under its own deadline. Total: {!Sat.Solver.Cancelled} and
    {!Parallel.Cache.Cancelled} become [Timeout] and any other exception
    becomes [Failed]. The one outcome classifier shared by {!in_process}
    and the fleet's workers. *)

(** {1 Server} *)

type config = {
  socket_path : string;
  resolve : job_spec -> (string * Aqed.Check.obligation, string) result;
      (** maps a job to its (design label, prepared-able obligation) at
          admission; the CLI builds this from its design registry, tests
          from whatever toy designs they like. [Error] becomes a typed
          [error] frame for the client. The label and the obligation
          must be a function of the spec's {!cache}d fields alone
          (design, bug, check up to case, depth, [certify]): a repeat of
          a cached spec is answered with the first answer, and its own
          obligation is never built. *)
  capacity : int;               (** max admitted-but-unfinished jobs *)
  job_timeout_s : float;        (** default per-job wall-clock deadline *)
  idle_timeout_s : float;       (** silent-connection read timeout *)
  journal : (string * Report.Journal.meta) option;
      (** appended incrementally: the meta once, before the first
          completed obligation, then one record per completion *)
}

val config :
  ?capacity:int -> ?job_timeout_s:float -> ?idle_timeout_s:float ->
  ?journal:(string * Report.Journal.meta) ->
  resolve:(job_spec -> (string * Aqed.Check.obligation, string) result) ->
  string -> config
(** [config ~resolve socket_path]. Defaults: capacity 32, 300 s job
    timeout, 30 s idle timeout, no journal. *)

type summary = {
  sm_accepted : int;
  sm_completed : int;
  sm_timeouts : int;
  sm_rejected : int;
  sm_errors : int;
}
(** Lifetime totals, returned by {!wait}. Every accepted job is accounted
    in exactly one of [completed]/[timeouts]/[errors]. *)

type server

(** An admitted job, as the front end hands it to its executor. *)
type job = {
  id : int;
  spec : job_spec;
  design : string;               (** label from [resolve] *)
  ob : Aqed.Check.obligation;    (** from [resolve] *)
  timeout_s : float;             (** effective deadline, in seconds *)
  submitted : float;             (** admission time *)
  cancel : bool Atomic.t;        (** tripped by the watchdog at
                                     [submitted +. timeout_s] *)
}

(** How admitted jobs are executed. *)
type executor = {
  run : server -> job -> unit;
      (** called on the submitting connection's thread right after the
          [accepted] frame; must lead to exactly one {!finalize} of the
          job, now or later, from any thread *)
  tripped : unit -> unit;
      (** on the watchdog's thread, after it trips at least one job's
          [cancel] flag *)
  tick : server -> unit;  (** every watchdog tick (50 ms) *)
  ops :
    (string
    * (server -> Unix.file_descr -> Wire.reader -> Report.Json.t -> unit))
    list;
      (** extra request ops: the handler takes the connection over and
          it is closed when the handler returns *)
  queued : unit -> int;  (** the status frame's ["queued"] *)
  status : unit -> (string * Report.Json.t) list;
      (** extra status-frame fields, appended after the front end's *)
  shutdown : unit -> unit;  (** once the drain is complete *)
}

val in_process : ?store:Store.t -> ?workers:int -> unit -> executor
(** Run each job through {!solve} on the submitting connection's
    thread, with one {!cache}, one shared pool of [workers] domains
    (default: {!Parallel.Pool.create}'s) and the optional store. A
    cached spec never reaches the pool, so a repeat does not queue
    behind misses. Its [tripped] wakes the cache, so a job waiting on
    another's solve of its spec times out on its own deadline. *)

val finalize : server -> job -> wall:float -> outcome -> unit
(** Record the job's terminal state and release its slot. Exactly-once:
    every call after the first is a no-op. *)

val active : server -> int
(** Admitted jobs not yet finalized. *)

val draining : server -> bool

val start : executor:executor -> config -> server
(** Binds the socket (unlinking a stale one), spawns the acceptor and the
    watchdog, and returns immediately. Also ignores SIGPIPE process-wide
    so a client disconnect surfaces as [EPIPE] on the write instead of
    killing the server. Raises [Unix.Unix_error] (after shutting the
    executor down) when the socket cannot be bound. *)

val stop : server -> unit
(** Begins the drain: stop accepting, let live jobs finish. Only flips an
    atomic, so it is safe from a signal handler. Idempotent. *)

val wait : server -> summary
(** Blocks until the drain completes: joins the acceptor, every live
    connection thread and the watchdog, shuts the executor down, removes
    the socket file. Call {!stop} first (or from a signal handler /
    another thread) — [wait] alone never returns. *)

(** {1 Client} *)

module Client : sig
  type t

  val connect : string -> t
  (** Connect to a server's socket path. Raises [Unix.Unix_error] when no
      server is listening. *)

  val close : t -> unit

  type outcome =
    | Completed of int * float * Report.Journal.obligation
        (** job id, server-side wall seconds, the verdict record *)
    | Timed_out of int * float
        (** the job hit its deadline; the server survives *)
    | Busy of int * int
        (** rejected at admission: (active, capacity). Also the drain
            answer — retry later or elsewhere *)
    | Refused of string
        (** typed error frame (unknown design, certification failure, …) *)

  val submit : t -> job_spec -> outcome
  (** Submit one job and block until its terminal frame. *)

  val status : t -> Report.Json.t
  (** One status frame: active/queued/capacity plus lifetime counters. *)

  val send : t -> Report.Json.t -> unit
  val recv : t -> Report.Json.t
  (** Raw frame I/O, for tests poking at the protocol. [recv] raises
      [Failure] when the server closes the connection. *)
end
