(** Sharded multi-process verification behind [aqed_cli serve --workers N].

    {!Fleet} is a {!Serve.executor}: the {!Serve} front end keeps the
    socket, admission, deadlines, accounting, the journal and the drain,
    and the fleet leases each admitted job, one obligation at a time, to
    {!Worker} processes connected to the same socket. A worker is a thin
    lease loop over {!Serve.solve} with its own domain pool and spec
    {!Serve.cache} (a repeat it has answered before skips the build),
    sharing one on-disk {!Store.t} with the rest of the fleet (the
    store's tmp-then-rename + revalidation discipline, plus its advisory
    gc lock, make cross-process sharing safe).

    Clients cannot tell the executors apart, except that the status
    frame gains fleet fields. The fleet↔worker wire reuses
    {!Serve.Wire} with three more ops:

    - [{"op":"lease","worker":W}] — an idle worker asks for
      work and blocks; the fleet answers with a [{"frame":"job",...}]
      carrying the submit spec, the job id, a lease epoch, the
      deadline and the time the job waited since submission, or
      [{"frame":"drain"}] when the server is draining and no job is
      left. Whichever worker goes idle first takes the next
      pending job: re-queued jobs first, then fresh ones oldest first.
    - [{"op":"heartbeat","job":N,"epoch":E}] — sent every second while
      the worker solves; silence beyond the heartbeat grace means the
      worker is presumed dead and its lease is re-queued.
    - [{"op":"result","job":N,"epoch":E,"outcome":...}] — the terminal
      outcome; a [done] outcome carries the journal obligation record.

    Re-queue invariant: a worker that crashes mid-job, goes silent past
    the heartbeat grace, or garbles a frame has the job re-queued under
    a bumped lease epoch; a late result from the old lease is recognized
    by its stale epoch and dropped. Re-running a re-queued obligation is
    harmless — store writes are content-addressed. A job's deadline
    counts from its submission, as in the in-process executor: a job
    still pending at its deadline is answered as a timeout without a
    lease. A job re-queued more than 3 times, a lease still running 10 s
    past its deadline, or a job pending with no worker connected past
    the pending grace, is answered with a typed error (or timeout)
    rather than hanging its client. *)

(** {1 Pending queue} *)

(** The fleet's FIFO with a priority front: re-queued jobs are leased
    before fresh ones, the most recently re-queued first. Every
    operation is O(1). *)
module Pending : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** A fresh job, at the back. *)

  val requeue : 'a t -> 'a -> unit
  (** A lost lease, at the front. *)

  val pop : 'a t -> 'a option
  val length : 'a t -> int
end

(** {1 Fleet executor} *)

module Fleet : sig
  type t

  val create : ?heartbeat_grace_s:float -> ?pending_grace_s:float -> unit -> t
  (** Defaults: 5 s heartbeat grace (worker silence beyond which its
      lease is re-queued), 60 s pending grace (how long a job may wait
      with no worker connected before a typed error). *)

  val executor : t -> Serve.executor
  (** Claims the [lease] op, adds the fleet fields to the status frame,
      reports pending jobs as ["queued"]. Runs no domain pool, so a
      fleet server may fork. *)

  type stats = {
    st_pending : int;        (** waiting for a lease *)
    st_leased : int;         (** leased to a worker right now *)
    st_workers : int;        (** worker connections live right now *)
    st_leases : int;         (** job frames handed to workers *)
    st_steals : int;         (** leases of a re-queued job — work stolen
                                 from a dead or silent peer *)
    st_requeued : int;
    st_worker_deaths : int;
    st_stale_results : int;  (** results dropped for a stale epoch *)
  }

  val stats : t -> stats

  val leases : t -> string list
  (** The names of the workers currently holding a lease, one per
      leased job. *)
end

(** {1 Worker} *)

module Worker : sig
  type config = {
    socket_path : string;
    name : string;
    resolve : Serve.job_spec -> (string * Aqed.Check.obligation, string) result;
        (** same contract as {!Serve.config}'s resolve. [Error] becomes
            a typed error result for the submitting client. *)
    store : Store.t option;  (** the fleet-shared verdict store *)
    pool_workers : int;      (** width of this worker's domain pool *)
  }

  val config :
    ?name:string -> ?store:Store.t -> ?pool_workers:int ->
    resolve:(Serve.job_spec -> (string * Aqed.Check.obligation, string) result) ->
    string -> config
  (** [config ~resolve socket_path]. Defaults: name ["w<pid>"], no
      store, pool width 1. *)

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  val run : config -> summary
  (** Connect (retrying for up to 30 s — a worker may start before the
      server has bound its socket), then loop: lease, solve through
      {!Serve.solve} on this worker's own pool and cache, report the
      result, lease again — until the server sends [drain] or its
      socket closes. One ticker thread per worker sends the current
      lease's heartbeats and trips its cancel flag at the deadline, so a
      timed-out job becomes a [timeout] result and the pool survives.
      Raises [Failure] when the server cannot be reached. *)
end
