(** A concurrent single-flight memo cache.

    Safe to use from any number of threads and domains. When several
    callers ask for the same key at once, exactly one computes it and the
    others block until the value lands ("single flight"), so a burst of
    identical requests costs one computation. A failed computation is not
    cached; the next asker retries.

    Used by [Serve.cache] to answer a repeated verification job from its
    first answer, keyed on the job spec. *)

type ('k, 'v) t

exception Cancelled
(** Raised to a waiter that gives up on an in-flight computation. *)

val create : unit -> ('k, 'v) t

val find_or_compute :
  ('k, 'v) t -> 'k -> cancel:bool Atomic.t -> (unit -> 'v) -> bool * 'v
(** [find_or_compute t k ~cancel f] returns [(hit, v)]: the cached value
    when present ([hit = true]), otherwise [f ()], stored under [k].
    Re-raises [f]'s exception without caching anything. A caller waiting
    on another's in-flight computation of [k] raises {!Cancelled} once it
    finds [cancel] set: on entry, or when woken by {!wake} or by a
    computation landing. [cancel] is only read. *)

val wake : ('k, 'v) t -> unit
(** Wakes every waiter to re-read its [cancel] flag. Call it after
    setting a flag a waiter may hold; the waiters whose flag is still
    clear go back to waiting. *)
