(** A work-stealing pool of OCaml 5 domains with a futures API.

    Built from scratch on [Domain], [Mutex] and [Condition] — no external
    dependencies. Each worker owns a deque: it pushes and pops work at the
    back (LIFO, cache-friendly for task trees) while idle workers steal from
    the front (FIFO, takes the oldest — largest — work first). Tasks
    submitted from outside the pool are sprayed round-robin across the
    deques.

    Results are communicated through futures, so the completion order of the
    workers never leaks into caller-visible ordering: {!map_list} always
    returns results positionally, identical to [List.map], whatever the
    scheduling. Tasks must not themselves block indefinitely on external
    events; a task awaiting another future is safe ({!await} lends the
    blocked worker to the queue). *)

type t

type 'a future

val create : ?workers:int -> unit -> t
(** Spawns [workers] worker domains (default
    [Domain.recommended_domain_count () - 1], at least 1 — one domain is
    the caller's). [workers] is clamped to [1 .. 128]. *)

val workers : t -> int

val queued : t -> int
(** Number of submitted tasks not yet picked up by a worker — a momentary
    snapshot across the deques, intended for load gauges (e.g. a service
    deciding whether to shed new work). Tasks already executing are not
    counted. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueues a task and returns its future immediately. Raises
    [Invalid_argument] if the pool has been shut down. *)

val await : 'a future -> 'a
(** Blocks until the task has run; returns its value or re-raises its
    exception. When called from a pool worker, the worker executes other
    queued tasks while it waits instead of idling. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic, position-stable result order.
    Exceptions re-raise at the position of the failing element. *)

val shutdown : t -> unit
(** Waits for queued tasks to drain, then joins every worker. Idempotent. *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
