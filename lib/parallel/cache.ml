type 'v slot = In_flight | Value of 'v

exception Cancelled

(* Telemetry series, aggregated across every cache instance. A
   single-flight wait wakeup counts under [cache.wait_wakeups]; the loser
   still lands in [cache.hits] when the winning computation publishes. *)
let m_hits = Telemetry.Counter.make "cache.hits"
let m_misses = Telemetry.Counter.make "cache.misses"
let m_waits = Telemetry.Counter.make "cache.wait_wakeups"

type ('k, 'v) t = {
  m : Mutex.t;
  c : Condition.t;  (* broadcast when an in-flight slot lands, and by [wake] *)
  tbl : ('k, 'v slot) Hashtbl.t;
}

let create () =
  { m = Mutex.create (); c = Condition.create (); tbl = Hashtbl.create 64 }

let find_or_compute t k ~cancel f =
  Mutex.lock t.m;
  let rec get () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Value v) ->
      Telemetry.Counter.incr m_hits;
      Mutex.unlock t.m;
      (true, v)
    | Some In_flight when Atomic.get cancel ->
      Mutex.unlock t.m;
      raise Cancelled
    | Some In_flight ->
      Telemetry.Counter.incr m_waits;
      Condition.wait t.c t.m;
      get ()
    | None ->
      Hashtbl.replace t.tbl k In_flight;
      Telemetry.Counter.incr m_misses;
      Mutex.unlock t.m;
      (match f () with
       | v ->
         Mutex.lock t.m;
         Hashtbl.replace t.tbl k (Value v);
         Condition.broadcast t.c;
         Mutex.unlock t.m;
         (false, v)
       | exception e ->
         Mutex.lock t.m;
         Hashtbl.remove t.tbl k;
         Condition.broadcast t.c;
         Mutex.unlock t.m;
         raise e)
  in
  get ()

(* Taking the lock orders this broadcast after any waiter's flag check:
   a waiter either saw the flag already set or is parked and is woken. *)
let wake t = Mutex.protect t.m (fun () -> Condition.broadcast t.c)
