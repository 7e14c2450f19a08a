(* CDCL solver. Literals use the DIMACS convention (+v / -v) throughout;
   [lit_index] maps a literal to a dense array index for the watch lists.

   Clauses live in one flat int arena (MiniSat's clause allocator — Eén &
   Sörensson, SAT 2003). A clause reference [cr] is the offset of its
   header in [arena]; the clause occupies [hdr + len] consecutive words:

     cr + 0        (len lsl 1) lor deleted-bit
     cr + 1        LBD at learning time, at least 1; 0 for problem clauses,
                   which is how [is_learnt] tells the two apart
     cr + 2        slot: the clause's index in [clauses] or [learnts]
                   (which one is [is_learnt]); also its activity slot
     cr + 3        proof id as the sink knows it; 0 when recording is off
     cr + hdr ..   the literals; the first two are the watched ones

   In a reason clause of length >= 3 the implied literal sits at position
   0: it is true while its variable is assigned, so propagation never
   swaps it out. A binary clause is watched under the tag [lnot cr] (a
   negative number), its blocker always being its other literal, so
   propagation implies that literal, or finds the conflict, without
   reading the arena; a binary reason's implied literal may therefore
   sit at either position, and [analyze] tells it by value.

   Assignments live in [vals], indexed by [voff + lit]: 1 when [lit] is
   true, -1 when it is false, 0 when its variable is unassigned, so a
   literal's value is one load. *)

let hdr = 4

type proof_sink = {
  on_clause : int -> int list -> unit;
  on_step : int -> int list -> int array -> unit;
}

type result = Sat | Unsat

type restart_style = Luby | Ema

exception Cancelled

type stats = {
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

(* Growable int array: watch lists, clause lists, trail limits, proof
   chains. Specialised to [int] so every access is a flat array access. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 16 0; size = 0 }

  let reserve v n =
    if v.size + n > Array.length v.data then begin
      let data = Array.make (max (v.size + n) (2 * Array.length v.data)) 0 in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end

  let push v x =
    reserve v 1;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.size
  let shrink v n = v.size <- n
  let clear v = v.size <- 0
end

let null_sink = { on_clause = (fun _ _ -> ()); on_step = (fun _ _ _ -> ()) }

(* Clause-database tiers (Glucose-style): glue <= core_glue is kept forever,
   glue <= mid_glue ages by activity, everything above is the local tier and
   is reduced aggressively. *)
let core_glue = 3
let mid_glue = 6

(* EMA restart parameters: a fast and a slow exponential moving average of
   learned-clause glue; when the recent average exceeds the long-run one by
   [ema_margin] the current descent is producing unusually poor clauses and
   a restart is forced. *)
let ema_fast_alpha = 1. /. 32.
let ema_slow_alpha = 1. /. 4096.
let ema_margin = 1.25

type t = {
  mutable nvars : int;
  (* Per-literal values: [vals.(voff + lit)] is 1 / -1 / 0 for [lit]
     true / false / unassigned. [voff] is the per-variable arrays' length. *)
  mutable vals : int array;
  mutable voff : int;
  (* Per-variable state, indexed by variable (1-based). *)
  mutable level : int array;
  mutable reason : int array;        (* clause ref; -1 when decision/unset *)
  mutable activity : float array;
  mutable phase : bool array;        (* saved phase *)
  mutable seen : bool array;
  (* Clause minimization's walks: [up.(v)] is the variable whose reason
     the walk expanded when it reached [v]; [failed.(v)] is the analysis
     stamp under which a walk through [v] is known to fail. *)
  mutable up : int array;
  mutable failed : int array;
  mutable heap_pos : int array;      (* -1 when not in heap *)
  (* Per-literal watch lists, indexed by lit_index. Each holds interleaved
     (clause ref, blocker) pairs; the blocker is some other literal of the
     clause: when it is already true the clause is satisfied and need not
     be dereferenced at all. A binary clause's entry is ([lnot cr], its
     other literal). *)
  mutable watches : Vec.t array;
  (* Trail *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  trail_lim : Vec.t;                 (* trail size at each decision level *)
  (* Clause database: the arena (see the layout at the top of this file),
     its used prefix, and the refs of the live problem and learned clauses
     in the order they are attached. [cla_act.(i)] is the activity of
     [learnts.(i)]. *)
  mutable arena : int array;
  mutable arena_size : int;
  clauses : Vec.t;
  learnts : Vec.t;
  mutable cla_act : float array;
  (* Branching heap (max-heap on activity), holds variables. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;                 (* false once the empty clause is derived *)
  (* Configuration (portfolio diversification knobs) *)
  mutable rng : int;                 (* xorshift state; 0 = no tie-breaking *)
  mutable restart_base : int;        (* conflicts per Luby unit / EMA floor *)
  mutable phase_init : bool;         (* initial saved phase of fresh vars *)
  mutable phase_saving : bool;       (* when false, always branch phase_init *)
  mutable restart_style : restart_style;
  (* EMA restart state. *)
  mutable ema_fast : float;
  mutable ema_slow : float;
  (* Adaptive reduction schedule: the next reduction fires when
     [n_conflicts] reaches [reduce_next]; the interval stretches a little
     after every round so reduction cost stays amortized. *)
  mutable reduce_next : int;
  mutable reduce_interval : int;
  (* Assumptions of the previous [solve], for warm-start trail reuse. *)
  mutable last_assumptions : int array;
  (* Scratch for glue computation: [level_stamp.(lvl) = stamp] marks level
     [lvl] as already counted for the clause currently being measured. *)
  mutable level_stamp : int array;
  mutable stamp : int;
  (* Cooperative cancellation: polled periodically from the CDCL loop;
     any set flag stops the search. *)
  mutable cancel : bool Atomic.t list;
  mutable poll : int;
  (* Conflict budget for [solve_limited]; [max_int] when unlimited. *)
  mutable conflict_ceiling : int;
  (* Proof recording: every problem clause (verbatim — the database itself
     simplifies units away) and every derived clause goes to [sink] the
     moment it exists, under a fresh id from [next_cid], with the chain of
     ids that closes it. [chain] collects a derivation's ids in the order a
     checker can replay them ([resolved] holds conflict analysis's main
     loop share until it is appended) and is handed over 0-terminated.
     Both are reused scratch, so a learned clause's chain allocates
     nothing. The first [proof_root] trail literals (all at level 0) have
     been sent as unit steps, each chained through [unit_chain] to its
     reason. *)
  mutable proof_enabled : bool;
  mutable sink : proof_sink;
  mutable next_cid : int;
  chain : Vec.t;
  resolved : Vec.t;
  mutable proof_root : int;
  unit_chain : int array;
  (* Statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learned : int;
  mutable n_lbd_core : int;
  mutable n_lbd_mid : int;
  mutable n_lbd_local : int;
  mutable n_reductions : int;
  mutable n_vivified : int;
  (* [n_propagations] already added to the [sat.propagations] counter. *)
  mutable published_props : int;
  (* Telemetry: wall-clock start and conflict count at [solve] entry, so the
     progress hook can report conflicts/sec for the current solve. *)
  mutable solve_t0 : float;
  mutable solve_c0 : int;
}

(* Global telemetry series, bumped by the per-solve deltas at solve exit (the
   CDCL loop itself keeps plain per-solver fields and stays untouched).
   Reductions and vivification are rare events bumped at the event site.
   Propagation also happens outside [solve] (root-level [add_clause] units,
   [simplify_inplace] probing), so [sat.propagations] is published from a
   high-water mark instead of a per-solve delta: see [publish_props]. *)
let m_conflicts = Telemetry.Counter.make "sat.conflicts"
let m_decisions = Telemetry.Counter.make "sat.decisions"
let m_propagations = Telemetry.Counter.make "sat.propagations"
let m_restarts = Telemetry.Counter.make "sat.restarts"
let m_lbd_core = Telemetry.Counter.make "sat.lbd_core"
let m_lbd_mid = Telemetry.Counter.make "sat.lbd_mid"
let m_lbd_local = Telemetry.Counter.make "sat.lbd_local"
let m_reductions = Telemetry.Counter.make "sat.reductions"
let m_vivified = Telemetry.Counter.make "sat.vivified"

(* Adds every propagation not yet counted — wherever it happened — so the
   counter always agrees with [stats]. *)
let publish_props s =
  Telemetry.Counter.add m_propagations (s.n_propagations - s.published_props);
  s.published_props <- s.n_propagations

let create ?(seed = 0) ?(restart_base = 100) ?(phase_init = false)
    ?(phase_saving = true) ?(restarts = Luby) ?(reduce_first = 2000) () =
  let reduce_interval = max 100 reduce_first in
  {
    nvars = 0;
    vals = Array.make 32 0;
    voff = 16;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.;
    phase = Array.make 16 phase_init;
    seen = Array.make 16 false;
    up = Array.make 16 0;
    failed = Array.make 16 0;
    heap_pos = Array.make 16 (-1);
    watches = Array.init 32 (fun _ -> Vec.create ());
    trail = Array.make 16 0;
    trail_size = 0;
    qhead = 0;
    trail_lim = Vec.create ();
    arena = Array.make 1024 0;
    arena_size = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    cla_act = Array.make 16 0.;
    heap = Array.make 16 0;
    heap_size = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    rng = abs seed;
    restart_base = max 1 restart_base;
    phase_init;
    phase_saving;
    restart_style = restarts;
    ema_fast = 0.;
    ema_slow = 0.;
    reduce_next = reduce_interval;
    reduce_interval;
    last_assumptions = [||];
    level_stamp = Array.make 16 0;
    stamp = 0;
    cancel = [];
    poll = 0;
    conflict_ceiling = max_int;
    proof_enabled = false;
    sink = null_sink;
    next_cid = 0;
    chain = Vec.create ();
    resolved = Vec.create ();
    proof_root = 0;
    unit_chain = [| 0 |];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learned = 0;
    n_lbd_core = 0;
    n_lbd_mid = 0;
    n_lbd_local = 0;
    n_reductions = 0;
    n_vivified = 0;
    published_props = 0;
    solve_t0 = 0.;
    solve_c0 = 0;
  }

let lit_index lit = if lit > 0 then 2 * lit else (2 * (-lit)) + 1
let var_of lit = abs lit

(* xorshift64; only consulted when a non-zero seed was given. *)
let next_random s =
  let x = s.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  let x = if x = 0 then 0x2545F491 else x in
  s.rng <- x;
  x

let set_cancel s flags = s.cancel <- flags

(* One snapshot of the per-solve series, shared between the rate-limited
   poll-site sample below and the forced first/last samples in [solve]. *)
let series_snapshot s () =
  let conflicts = s.n_conflicts - s.solve_c0 in
  let dt = Telemetry.now_s () -. s.solve_t0 in
  [ ("sat.conflict_rate",
     if dt > 1e-9 then float_of_int conflicts /. dt else 0.);
    ("sat.learnts", float_of_int (Vec.size s.learnts));
    ("sat.level", float_of_int (Vec.size s.trail_lim));
    ("sat.lbd_core", float_of_int s.n_lbd_core);
    ("sat.lbd_mid", float_of_int s.n_lbd_mid);
    ("sat.lbd_local", float_of_int s.n_lbd_local) ]

let check_cancel s =
  s.poll <- s.poll + 1;
  if s.poll land 255 = 0 then begin
    if List.exists Atomic.get s.cancel then raise Cancelled;
    (* Piggyback the progress sample on the cancellation-poll cadence: the
       fast path below is one Atomic.get when no reporter is configured. *)
    Telemetry.Progress.tick (fun () ->
        let conflicts = s.n_conflicts - s.solve_c0 in
        let dt = Telemetry.now_s () -. s.solve_t0 in
        Printf.sprintf
          "sat: %d conflicts (%.0f/s), %d restarts, %d learned, level %d"
          conflicts
          (if dt > 1e-9 then float_of_int conflicts /. dt else 0.)
          s.n_restarts s.n_learned (Vec.size s.trail_lim));
    (* Same cadence feeds the journal's solver time-series: conflict rate,
       learned-DB size, decision level and the LBD tier tallies land in the
       solving domain's ring buffers for per-obligation export. *)
    Telemetry.Series.sample (series_snapshot s)
  end

let nb_vars s = s.nvars

(* ---- branching heap (max-heap keyed by activity) ---- *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b; s.heap.(j) <- a;
  s.heap_pos.(b) <- i; s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_size = Array.length s.heap then begin
      let h = Array.make (2 * s.heap_size) 0 in
      Array.blit s.heap 0 h 0 s.heap_size;
      s.heap <- h
    end;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* ---- variable allocation ---- *)

let grow_var_arrays s needed =
  let cur = Array.length s.level in
  if needed >= cur then begin
    let n = max needed (2 * cur) in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 cur; b
    in
    let vals = Array.make (2 * n) 0 in
    Array.blit s.vals 0 vals (n - cur) (2 * cur);
    s.vals <- vals;
    s.voff <- n;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.activity <- grow s.activity 0.;
    s.phase <- grow s.phase s.phase_init;
    s.seen <- grow s.seen false;
    s.up <- grow s.up 0;
    s.failed <- grow s.failed 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.trail <- grow s.trail 0;
    s.level_stamp <- grow s.level_stamp 0;
    let wcur = Array.length s.watches in
    if 2 * n + 2 >= wcur then begin
      let sz = max (2 * n + 2) (2 * wcur) in
      s.watches <-
        Array.init sz (fun i ->
            if i < wcur then s.watches.(i) else Vec.create ())
    end
  end

let new_var s =
  s.nvars <- s.nvars + 1;
  grow_var_arrays s (s.nvars + 1);
  (* Seeded VSIDS tie-breaking: a sub-1e-6 initial activity perturbs the
     branching order among untouched variables without ever outweighing a
     real conflict bump (var_inc starts at 1.0). *)
  if s.rng <> 0 then
    s.activity.(s.nvars) <- float_of_int (next_random s land 0xFFFF) *. 1e-12;
  heap_insert s s.nvars;
  s.nvars

(* ---- assignment ---- *)

let lit_sat s lit = s.vals.(s.voff + lit) > 0
let lit_false s lit = s.vals.(s.voff + lit) < 0
let assigned s v = s.vals.(s.voff + v) <> 0

let decision_level s = Vec.size s.trail_lim

let enqueue s lit reason =
  let v = var_of lit in
  s.vals.(s.voff + lit) <- 1;
  s.vals.(s.voff - lit) <- -1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  if s.phase_saving then s.phase.(v) <- lit > 0;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

(* ---- clause arena ---- *)

let clause_len s cr = s.arena.(cr) lsr 1
let is_deleted s cr = s.arena.(cr) land 1 = 1
let set_deleted s cr = s.arena.(cr) <- s.arena.(cr) lor 1
let undelete s cr = s.arena.(cr) <- s.arena.(cr) land lnot 1
let clause_lbd s cr = s.arena.(cr + 1)
let is_learnt s cr = s.arena.(cr + 1) > 0
let clause_slot s cr = s.arena.(cr + 2)
let clause_cid s cr = s.arena.(cr + 3)
let clause_lit s cr k = s.arena.(cr + hdr + k)
let clause_lits s cr = Array.sub s.arena (cr + hdr) (clause_len s cr)

let clause_exists s cr f =
  let rec go k = k < clause_len s cr && (f (clause_lit s cr k) || go (k + 1)) in
  go 0

(* Appends a clause to the arena and returns its ref. The caller files the
   ref in [clauses] or [learnts] at index [slot]. *)
let alloc_clause s ~lbd ~slot ~cid lits =
  let len = Array.length lits in
  let cr = s.arena_size in
  let need = cr + hdr + len in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 cr;
    s.arena <- a
  end;
  let a = s.arena in
  a.(cr) <- len lsl 1;
  a.(cr + 1) <- lbd;
  a.(cr + 2) <- slot;
  a.(cr + 3) <- cid;
  Array.blit lits 0 a (cr + hdr) len;
  s.arena_size <- need;
  cr

(* Files a new learned clause at the end of [learnts] with activity [act]. *)
let push_learnt s ~lbd ~cid ~act lits =
  let slot = Vec.size s.learnts in
  let cr = alloc_clause s ~lbd ~slot ~cid lits in
  Vec.push s.learnts cr;
  if slot = Array.length s.cla_act then begin
    let a = Array.make (2 * slot) 0. in
    Array.blit s.cla_act 0 a 0 slot;
    s.cla_act <- a
  end;
  s.cla_act.(slot) <- act;
  cr

let push_problem s ~cid lits =
  let cr = alloc_clause s ~lbd:0 ~slot:(Vec.size s.clauses) ~cid lits in
  Vec.push s.clauses cr;
  cr

let push_watch ws cr blocker =
  Vec.reserve ws 2;
  ws.Vec.data.(ws.Vec.size) <- cr;
  ws.Vec.data.(ws.Vec.size + 1) <- blocker;
  ws.Vec.size <- ws.Vec.size + 2

(* ---- propagation ---- *)

(* Propagates all enqueued literals. Returns the conflicting clause, or -1
   if no conflict. Standard two-watched-literal scheme: a clause is
   registered in the watch lists of the negations of lits 0 and 1; when a
   watched literal becomes false we search a replacement. A binary clause
   has no replacement to search: its tagged entry implies its blocker, or
   conflicts, from the watch list alone. *)
let propagate s =
  let conflict = ref (-1) in
  let a = s.arena and vals = s.vals and voff = s.voff in
  while !conflict < 0 && s.qhead < s.trail_size do
    let lit = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = -lit in
    (* The scanned list never gains entries during its own scan: a new
       watch goes to a non-false literal, never to [false_lit]. *)
    let ws = s.watches.(lit_index false_lit) in
    let d = ws.Vec.data in
    let n = ws.Vec.size in
    let keep = ref 0 in
    let i = ref 0 in
    while !conflict < 0 && !i < n do
      let cr = d.(!i) and blocker = d.(!i + 1) in
      i := !i + 2;
      let bval = vals.(voff + blocker) in
      if bval > 0 then begin
        (* Satisfied via the blocker: keep without touching the clause. *)
        d.(!keep) <- cr;
        d.(!keep + 1) <- blocker;
        keep := !keep + 2
      end
      else if cr < 0 then begin
        (* Binary: the blocker is the other literal. Never deleted while
           watched, so there is no deleted bit to check. *)
        d.(!keep) <- cr;
        d.(!keep + 1) <- blocker;
        keep := !keep + 2;
        if bval = 0 then enqueue s blocker (lnot cr)
        else begin
          (* Conflict: order the literals as a scan of the clause would
             have left them, false_lit at position 1. *)
          let cr = lnot cr in
          a.(cr + hdr) <- blocker;
          a.(cr + hdr + 1) <- false_lit;
          conflict := cr
        end
      end
      else if a.(cr) land 1 = 1 then ()  (* deleted: drop lazily *)
      else begin
        (* Ensure the false literal is at position 1. *)
        let l0 = cr + hdr in
        if a.(l0) = false_lit then begin
          a.(l0) <- a.(l0 + 1);
          a.(l0 + 1) <- false_lit
        end;
        let first = a.(l0) in
        (* Every outcome but a moved watch keeps the entry, with [first] as
           its fresher blocker; a moved watch leaves the slot to be reused. *)
        d.(!keep) <- cr;
        d.(!keep + 1) <- first;
        let fval = vals.(voff + first) in
        if fval > 0 then keep := !keep + 2  (* clause satisfied *)
        else begin
          (* Look for a new literal to watch. *)
          let stop = l0 + (a.(cr) lsr 1) in
          let k = ref (l0 + 2) in
          while !k < stop && vals.(voff + a.(!k)) < 0 do incr k done;
          if !k < stop then begin
            a.(l0 + 1) <- a.(!k);
            a.(!k) <- false_lit;
            push_watch s.watches.(lit_index a.(l0 + 1)) cr first
          end
          else begin
            keep := !keep + 2;
            if fval = 0 then
              (* Unit: propagate first. *)
              enqueue s first cr
            else
              (* Conflict: first is false too. *)
              conflict := cr
          end
        end
      end
    done;
    (* After a conflict the entries not yet visited stay, in order. *)
    while !i < n do
      d.(!keep) <- d.(!i);
      d.(!keep + 1) <- d.(!i + 1);
      keep := !keep + 2;
      i := !i + 2
    done;
    Vec.shrink ws !keep
  done;
  !conflict

(* ---- activities ---- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 1 to s.nvars do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let clause_bump s cr =
  let i = clause_slot s cr in
  s.cla_act.(i) <- s.cla_act.(i) +. s.cla_inc;
  if s.cla_act.(i) > 1e20 then begin
    for j = 0 to Vec.size s.learnts - 1 do
      s.cla_act.(j) <- s.cla_act.(j) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let clause_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* ---- backtracking ---- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = var_of l in
      s.vals.(s.voff + l) <- 0;
      s.vals.(s.voff - l) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    Vec.shrink s.trail_lim lvl
  end

(* ---- conflict analysis (first UIP) ---- *)

(* Literal block distance (glue): the number of distinct decision levels
   among a clause's literals, measured before backtracking while the levels
   are still current. Low-glue clauses chain propagations across few levels
   and are empirically the ones worth keeping (Audemard & Simon). *)
let compute_lbd s lits =
  s.stamp <- s.stamp + 1;
  let st = s.stamp in
  List.fold_left
    (fun n q ->
      let lvl = s.level.(var_of q) in
      if lvl > 0 && s.level_stamp.(lvl) <> st then begin
        s.level_stamp.(lvl) <- st;
        n + 1
      end
      else n)
    0 lits

(* Is the negation of [q0] implied by the marked clause literals plus the
   root level? Iterative depth-first walk over reason clauses (MiniSat's
   litRedundant); aborts — undoing its marks — on reaching a decision
   variable or a decision level outside [abstract_levels] (a chain can only
   close back onto the clause through levels the clause itself touches).
   On success the intermediate variables stay marked: they are implied too,
   which caches the answer for later queries; their cleanup is the caller's
   via [acc]. Under proof recording a successful walk also appends the
   ids of the reasons it expanded to [s.chain], latest-expanded first —
   reasons before the clauses whose literals they imply; a failed walk
   leaves [s.chain] as it found it.

   A failed walk also poisons the variable whose reason it failed on
   and, through [up], every variable on the path that led there: they
   are stamped [failed] with [poison], fresh for each analysis (the
   seen_failed marks of MiniSat's later litRedundant — Sörensson &
   Biere, SAT 2009). A later walk of the same analysis that reaches a
   poisoned variable fails at once. It would have failed anyway: no
   walk can mark a variable on that path, since every walk through it
   reaches the failing literal, so the path stays open down to it. As a
   failed walk's marks and chain are discarded, the learned clause and
   its chain are those of the unpoisoned walk. *)
let lit_redundant s acc abstract_levels poison q0 =
  let marked = ref [] in
  let base = Vec.size s.chain in
  let ok = ref true in
  let stack = ref [ q0 ] in
  s.up.(var_of q0) <- 0;
  (try
     while !stack <> [] do
       let q = List.hd !stack in
       stack := List.tl !stack;
       let u = var_of q in
       let r = s.reason.(u) in
       if s.proof_enabled then Vec.push s.chain (clause_cid s r);
       for k = 0 to clause_len s r - 1 do
         let p = clause_lit s r k in
         let v = var_of p in
         if p <> -q && (not s.seen.(v)) && s.level.(v) > 0 then begin
           if s.reason.(v) >= 0
              && abstract_levels land (1 lsl (s.level.(v) land 31)) <> 0
              && s.failed.(v) <> poison
           then begin
             s.seen.(v) <- true;
             s.up.(v) <- u;
             marked := v :: !marked;
             stack := p :: !stack
           end
           else begin
             let w = ref u in
             while !w <> 0 do
               s.failed.(!w) <- poison;
               w := s.up.(!w)
             done;
             List.iter (fun u -> s.seen.(u) <- false) !marked;
             ok := false;
             raise Exit
           end
         end
       done
     done
   with Exit -> ());
  if !ok then begin
    acc := !marked @ !acc;
    let ids = s.chain.Vec.data in
    let i = ref base and j = ref (Vec.size s.chain - 1) in
    while !i < !j do
      let t = ids.(!i) in
      ids.(!i) <- ids.(!j);
      ids.(!j) <- t;
      incr i;
      decr j
    done
  end
  else Vec.shrink s.chain base;
  !ok

(* Returns (learnt clause as int array with the asserting literal first,
   backtrack level, glue of the kept clause). Under proof recording it
   leaves in [s.chain] the ids of every clause the derivation resolved on:
   the minimization walks' reasons in call order, then the main loop's
   reasons in trail order, then the conflict clause — an order in which
   each named clause is unit (the last one falsified) once the learnt
   clause is negated. *)
let analyze s conflict =
  Vec.clear s.chain;
  Vec.clear s.resolved;
  let learnt = ref [] in
  let counter = ref 0 in
  let lit = ref 0 in
  let cls = ref conflict in
  let idx = ref (s.trail_size - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !cls in
    if is_learnt s c then clause_bump s c;
    if s.proof_enabled then Vec.push s.resolved (clause_cid s c);
    (* Every literal but the one [c] implied (none, for the conflict). *)
    for k = 0 to clause_len s c - 1 do
      let q = clause_lit s c k in
      let v = var_of q in
      if q <> !lit && (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* Select the next literal on the trail to resolve on. *)
    while not s.seen.(var_of s.trail.(!idx)) do decr idx done;
    lit := s.trail.(!idx);
    decr idx;
    let v = var_of !lit in
    s.seen.(v) <- false;
    cls := s.reason.(v);
    decr counter;
    if !counter = 0 then continue := false
  done;
  let learnt = - !lit :: !learnt in
  (* Clause minimization: drop a literal whose negation is already implied
     by the rest of the clause, following reason chains through
     intermediate propagated literals. *)
  let seen_marks = List.map var_of (List.tl learnt) in
  List.iter (fun v -> s.seen.(v) <- true) seen_marks;
  let kept =
    match learnt with
    | [] -> assert false
    | uip :: rest ->
      let abstract_levels =
        List.fold_left
          (fun acc q -> acc lor (1 lsl (s.level.(var_of q) land 31)))
          0 rest
      in
      let extra = ref [] in
      s.stamp <- s.stamp + 1;
      let poison = s.stamp in
      let kept =
        uip
        :: List.filter
             (fun q ->
               s.reason.(var_of q) < 0
               || not (lit_redundant s extra abstract_levels poison q))
             rest
      in
      List.iter (fun v -> s.seen.(v) <- false) !extra;
      kept
  in
  List.iter (fun v -> s.seen.(v) <- false) seen_marks;
  if s.proof_enabled then
    for i = Vec.size s.resolved - 1 downto 0 do
      Vec.push s.chain (Vec.get s.resolved i)
    done;
  (* Recompute the backtrack level from the kept literals. *)
  let btlevel =
    match kept with
    | [ _ ] -> 0
    | _ :: rest ->
      List.fold_left (fun acc q -> max acc s.level.(var_of q)) 0 rest
    | [] -> assert false
  in
  let lbd = compute_lbd s kept in
  (Array.of_list kept, btlevel, lbd)

(* ---- clause attachment ---- *)

let fresh_cid s =
  s.next_cid <- s.next_cid + 1;
  s.next_cid

let emit_step s lits chain =
  let id = fresh_cid s in
  s.sink.on_step id lits chain;
  id

(* Sends each level-0 literal not yet sent as a unit step chained to its
   reason. Trail order makes every other literal of that reason a root
   fact by then. A literal without a reason came from a unit the sink
   has already seen: a unit step, or a problem clause [add_clause]
   handled itself. *)
let flush_root_units s =
  let top =
    if decision_level s = 0 then s.trail_size else Vec.get s.trail_lim 0
  in
  while s.proof_root < top do
    let l = s.trail.(s.proof_root) in
    let r = s.reason.(var_of l) in
    s.proof_root <- s.proof_root + 1;
    if r >= 0 then begin
      s.unit_chain.(0) <- clause_cid s r;
      ignore (emit_step s [ l ] s.unit_chain)
    end
  done

(* Hands a derived clause and the chain that closes it to the sink under
   a fresh id, which it returns. The level-0 literals go first, so the
   chain may leave them out. *)
let record_step s lits chain =
  flush_root_units s;
  emit_step s lits chain

(* The empty clause, once the database is refuted at the root: the clause
   proof id [cid] is falsified there. *)
let record_refutation s cid =
  if s.proof_enabled then ignore (record_step s [] [| cid |])

(* Propagates at the root; a conflict refutes the database. *)
let propagate_root s =
  let conflict = propagate s in
  if conflict >= 0 then begin
    s.ok <- false;
    record_refutation s (clause_cid s conflict)
  end

(* A clause is registered under each of its two watched literals; when a
   literal L becomes true, the clauses watching -L are scanned. *)
let attach_clause s cr =
  let l0 = clause_lit s cr 0 and l1 = clause_lit s cr 1 in
  let tag = if clause_len s cr = 2 then lnot cr else cr in
  push_watch s.watches.(lit_index l0) tag l1;
  push_watch s.watches.(lit_index l1) tag l0

let add_clause s lits =
  if s.ok then begin
    List.iter
      (fun l ->
        let v = var_of l in
        if v = 0 || v > s.nvars then
          invalid_arg "Solver.add_clause: literal over unallocated variable")
      lits;
    (* Send the clause verbatim: the database below deduplicates, drops
       satisfied clauses and strips units, so it cannot serve as the formula
       an external proof checker runs against. *)
    let cid =
      if s.proof_enabled then begin
        let id = fresh_cid s in
        s.sink.on_clause id lits;
        id
      end
      else 0
    in
    (* Deduplicate; detect tautologies. *)
    let lits = List.sort_uniq Int.compare lits in
    let taut = List.exists (fun l -> List.mem (-l) lits) lits in
    if not taut then begin
      (* Clauses are added at level 0 only: unwind any model left by a
         previous solve. *)
      cancel_until s 0;
      let live = List.filter (fun l -> not (lit_false s l)) lits in
      if List.exists (lit_sat s) live then ()
      else
        match live with
        | [] ->
          s.ok <- false;
          record_refutation s cid
        | [ l ] ->
          (* Its other literals are root-false, so the checker is told
             [l] as a unit step. *)
          if s.proof_enabled && List.compare_length_with lits 1 > 0 then
            ignore (record_step s [ l ] [| cid |]);
          enqueue s l (-1);
          propagate_root s
        | _ :: _ :: _ ->
          attach_clause s (push_problem s ~cid (Array.of_list live))
    end
  end

let record_learnt s lits lbd =
  s.n_learned <- s.n_learned + 1;
  if lbd <= core_glue then s.n_lbd_core <- s.n_lbd_core + 1
  else if lbd <= mid_glue then s.n_lbd_mid <- s.n_lbd_mid + 1
  else s.n_lbd_local <- s.n_lbd_local + 1;
  let cid =
    if s.proof_enabled then begin
      Vec.push s.chain 0;
      record_step s (Array.to_list lits) s.chain.Vec.data
    end
    else 0
  in
  if Array.length lits = 1 then begin
    cancel_until s 0;
    enqueue s lits.(0) (-1)
  end
  else begin
    (* lits.(0) is the asserting literal; make lits.(1) the highest-level
       other literal so the watches are correct after backtracking. *)
    let best = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if s.level.(var_of lits.(k)) > s.level.(var_of lits.(!best)) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let c = push_learnt s ~lbd ~cid ~act:0. lits in
    attach_clause s c;
    clause_bump s c;
    enqueue s lits.(0) c
  end

(* ---- learned clause DB reduction ---- *)

(* The assigned variable [c] is the reason of, or 0. Only a binary's
   implied literal can sit at position 1. *)
let reason_var s c =
  let implied k =
    let v = var_of (clause_lit s c k) in
    assigned s v && s.reason.(v) = c
  in
  if implied 0 then var_of (clause_lit s c 0)
  else if clause_len s c = 2 && implied 1 then var_of (clause_lit s c 1)
  else 0

let locked s c = reason_var s c > 0

(* Purge deleted clauses and rebuild every watch list from scratch. Watch
   positions 0/1 of a live clause are preserved, so the two-watched
   invariant — valid at any decision level — carries over.

   The arena is compacted in place: live clauses slide down in arena order
   (a strip replacement can sit far from its list position, so list order
   is not arena order). First each clause list drops its deleted entries
   and every survivor's slot word is set to its new list index — its back
   index, also its new activity slot. Then one linear walk moves each live
   clause down and, through its back index, rewrites its list entry; the
   reason of an assigned variable follows its clause. A deleted clause can
   only be a reason at level 0, where conflict analysis never looks; its
   variable's reason becomes -1 so that no moved clause inherits it (under
   proof recording, the level-0 literals are sent as unit steps first,
   while their reasons can still chain them). The watches are rebuilt
   last, in list order. *)
let rebuild_watches s =
  if s.proof_enabled then flush_root_units s;
  let renumber vec ~learnt =
    let keep = ref 0 in
    for i = 0 to Vec.size vec - 1 do
      let cr = Vec.get vec i in
      if not (is_deleted s cr) then begin
        Vec.set vec !keep cr;
        s.arena.(cr + 2) <- !keep;
        if learnt then s.cla_act.(!keep) <- s.cla_act.(i);
        incr keep
      end
    done;
    Vec.shrink vec !keep
  in
  renumber s.clauses ~learnt:false;
  renumber s.learnts ~learnt:true;
  let a = s.arena in
  let r = ref 0 and w = ref 0 in
  while !r < s.arena_size do
    let size = hdr + (a.(!r) lsr 1) in
    let v = reason_var s !r in
    if a.(!r) land 1 = 1 then begin
      if v > 0 then s.reason.(v) <- -1
    end
    else begin
      if !w < !r then Array.blit a !r a !w size;
      Vec.set (if a.(!w + 1) > 0 then s.learnts else s.clauses) a.(!w + 2) !w;
      if v > 0 then s.reason.(v) <- !w;
      w := !w + size
    end;
    r := !r + size
  done;
  s.arena_size <- !w;
  for i = 0 to (2 * s.nvars) + 1 do
    Vec.clear s.watches.(i)
  done;
  for i = 0 to Vec.size s.clauses - 1 do
    attach_clause s (Vec.get s.clauses i)
  done;
  for i = 0 to Vec.size s.learnts - 1 do
    attach_clause s (Vec.get s.learnts i)
  done

let reduce_db s =
  s.n_reductions <- s.n_reductions + 1;
  Telemetry.Counter.incr m_reductions;
  (* Three-tier policy: core clauses (glue <= core_glue), binaries and
     locked clauses are permanent; the mid tier ages out its least active
     quarter; the local tier loses half every round. The watch lists are
     rebuilt afterwards so propagation never scans a dead clause. *)
  let mid = ref [] and local = ref [] in
  for i = 0 to Vec.size s.learnts - 1 do
    let c = Vec.get s.learnts i in
    let lbd = clause_lbd s c in
    if not
         (is_deleted s c || locked s c || clause_len s c = 2
         || lbd <= core_glue)
    then
      if lbd <= mid_glue then mid := c :: !mid else local := c :: !local
  done;
  let act c = s.cla_act.(clause_slot s c) in
  let drop_least_active frac cs =
    let arr = Array.of_list cs in
    Array.sort (fun a b -> Float.compare (act a) (act b)) arr;
    let k = int_of_float (frac *. float_of_int (Array.length arr)) in
    for i = 0 to k - 1 do
      set_deleted s arr.(i)
    done
  in
  drop_least_active 0.25 !mid;
  drop_least_active 0.5 !local;
  rebuild_watches s;
  (* Stretch the schedule so reduction cost stays amortized. *)
  s.reduce_interval <- s.reduce_interval + 300;
  s.reduce_next <- s.n_conflicts + s.reduce_interval

(* ---- inprocessing: clause vivification ---- *)

(* Vivification probes a clause literal by literal: assert the negation of
   each literal in turn on one scratch decision level — with the clause
   itself unwatched so it cannot assist — and propagate. A conflict, or a
   literal found already true, proves a prefix of the clause; a literal
   found false drops out. Every shortened clause is RUP with respect to a
   database that still contains the original, so under proof recording the
   replacement goes to the sink like any learned clause, chained through
   the reasons on the probe trail and then the conflict clause, or else
   the original clause itself, which the negated prefix and the dropped
   literals falsify. The checker never deletes, so the original remains
   available as a premise. Nothing this pass derives falls outside RUP,
   hence nothing needs disabling under [enable_proof]. *)
let simplify_inplace ?(budget = 30_000) s =
  Fun.protect ~finally:(fun () -> publish_props s) @@ fun () ->
  if s.ok then
    Telemetry.Span.with_ "sat.simplify"
      ~args:[ ("budget", Telemetry.Int budget) ]
      ~end_args:(fun () ->
        [ ("vivified_total", Telemetry.Int s.n_vivified) ])
    @@ fun () ->
    cancel_until s 0;
    s.last_assumptions <- [||];
    propagate_root s;
    if s.ok then begin
      (* Probing must not pollute the saved phases. *)
      let saving = s.phase_saving in
      s.phase_saving <- false;
      let p0 = s.n_propagations in
      let over () = s.n_propagations - p0 > budget in
      let vivify c =
        set_deleted s c;
        let base = s.trail_size in
        Vec.push s.trail_lim base;
        let n = clause_len s c in
        let kept = ref [] and conflict = ref (-1) in
        (try
           for j = 0 to n - 1 do
             let l = clause_lit s c j in
             if lit_sat s l then begin
               (* The kept prefix propagates l: prefix @ [l] subsumes. *)
               kept := l :: !kept;
               raise Exit
             end
             else if lit_false s l then () (* implied false: drop l *)
             else begin
               kept := l :: !kept;
               enqueue s (-l) (-1);
               conflict := propagate s;
               if !conflict >= 0 then
                 (* Negating the prefix is contradictory: prefix is RUP. *)
                 raise Exit
             end
           done
         with Exit -> ());
        let kept = List.rev !kept in
        let shortened = List.length kept < n in
        if shortened && s.proof_enabled then begin
          Vec.clear s.chain;
          for i = base to s.trail_size - 1 do
            let r = s.reason.(var_of s.trail.(i)) in
            if r >= 0 then Vec.push s.chain (clause_cid s r)
          done;
          Vec.push s.chain
            (clause_cid s (if !conflict >= 0 then !conflict else c));
          Vec.push s.chain 0
        end;
        cancel_until s 0;
        if shortened then Some kept
        else begin
          undelete s c;
          None
        end
      in
      let apply c kept =
        s.n_vivified <- s.n_vivified + 1;
        Telemetry.Counter.incr m_vivified;
        let cid =
          if s.proof_enabled then record_step s kept s.chain.Vec.data else 0
        in
        match kept with
        | [] -> s.ok <- false
        | [ l ] ->
          if lit_false s l then begin
            s.ok <- false;
            record_refutation s cid
          end
          else if not (lit_sat s l) then begin
            enqueue s l (-1);
            propagate_root s
          end
        | _ :: _ :: _ ->
          (* Attached by the rebuild below; the original stays deleted. *)
          let lits = Array.of_list kept in
          if is_learnt s c then
            ignore
              (push_learnt s
                 ~lbd:(min (clause_lbd s c) (Array.length lits - 1))
                 ~cid ~act:s.cla_act.(clause_slot s c) lits)
          else ignore (push_problem s ~cid lits)
      in
      let probe vec =
        (* Snapshot the size: shortened replacements pushed past it are not
           re-probed this round. *)
        let n = Vec.size vec in
        let i = ref 0 in
        while s.ok && (not (over ())) && !i < n do
          let c = Vec.get vec !i in
          incr i;
          if (not (is_deleted s c)) && clause_len s c >= 3 then
            match vivify c with
            | Some kept -> apply c kept
            | None -> ()
        done
      in
      probe s.learnts;
      probe s.clauses;
      s.phase_saving <- saving;
      (* Root simplification + watch rebuild: drop satisfied clauses, strip
         root-false literals (each strip is itself a RUP step), reattach the
         survivors, then propagate to a fixpoint. *)
      if s.ok then begin
        let units = ref [] in
        (* A shortened clause is allocated afresh and takes over the
           original's list index (hence its activity slot); shrinking it in
           place would leave words a linear arena walk cannot skip. *)
        let strip vec =
          for i = 0 to Vec.size vec - 1 do
            let c = Vec.get vec i in
            if not (is_deleted s c) then begin
              if clause_exists s c (lit_sat s) then set_deleted s c
              else if clause_exists s c (lit_false s) then begin
                let lits =
                  Array.of_list
                    (List.filter (fun l -> not (lit_false s l))
                       (Array.to_list (clause_lits s c)))
                in
                (* The original clause, all of whose other literals are
                   root-false, is the whole derivation. *)
                let cid =
                  if s.proof_enabled then
                    record_step s (Array.to_list lits) [| clause_cid s c |]
                  else clause_cid s c
                in
                set_deleted s c;
                match Array.length lits with
                | 0 -> s.ok <- false
                | 1 -> units := (lits.(0), cid) :: !units
                | _ ->
                  Vec.set vec i
                    (alloc_clause s ~lbd:(clause_lbd s c) ~slot:i ~cid lits)
              end
            end
          done
        in
        strip s.clauses;
        strip s.learnts;
        rebuild_watches s;
        List.iter
          (fun (l, cid) ->
            if lit_false s l then begin
              s.ok <- false;
              record_refutation s cid
            end
            else if not (lit_sat s l) then enqueue s l (-1))
          !units;
        if s.ok then propagate_root s
      end
    end

(* ---- Luby restart sequence ---- *)

(* luby i = 2^(k-1) when i = 2^k - 1, else luby (i - 2^(k-1) + 1) for the
   unique k with 2^(k-1) <= i < 2^k - 1. *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* ---- main search ---- *)

let pick_branch s =
  let rec go () =
    if s.heap_size = 0 then 0
    else
      let v = heap_pop s in
      if assigned s v then go () else v
  in
  go ()

exception Done of result

(* Under proof recording, the assumption [a] was found false above level
   0: the clause "some assumption decided so far is false, or [-a]" is
   sent, chained through the reasons on the trail up to [-a] (whose reason
   it falsifies). Assumptions are the only decisions of those levels. When
   [-a] is at level 0 there is nothing to send: it goes as a unit step. *)
let record_failed_assumption s a =
  if s.level.(var_of a) > 0 then begin
    Vec.clear s.chain;
    let lits = ref [ -a ] and i = ref (Vec.get s.trail_lim 0) in
    let reached = ref false in
    while not !reached do
      let l = s.trail.(!i) in
      let r = s.reason.(var_of l) in
      if r >= 0 then Vec.push s.chain (clause_cid s r) else lits := -l :: !lits;
      reached := l = -a;
      incr i
    done;
    Vec.push s.chain 0;
    ignore (record_step s !lits s.chain.Vec.data)
  end

(* Internal: the [solve_limited] conflict budget ran out. *)
exception Limit_hit

let search s ~assumptions ~restart_budget =
  let conflicts = ref 0 in
  try
    while true do
      check_cancel s;
      let conflict = propagate s in
      if conflict >= 0 then begin
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts;
        if decision_level s = 0 then begin
          record_refutation s (clause_cid s conflict);
          raise (Done Unsat)
        end;
        if s.n_conflicts >= s.conflict_ceiling then raise Limit_hit;
        let learnt, btlevel, lbd = analyze s conflict in
        let g = float_of_int lbd in
        s.ema_fast <- s.ema_fast +. ((g -. s.ema_fast) *. ema_fast_alpha);
        s.ema_slow <- s.ema_slow +. ((g -. s.ema_slow) *. ema_slow_alpha);
        (* Never backtrack past the assumption levels unless forced: if the
           asserting level is inside the assumptions we must re-examine
           them, which [decide] below handles by re-assuming. *)
        cancel_until s btlevel;
        record_learnt s learnt lbd;
        var_decay s;
        clause_decay s
      end
      else begin
        let restart =
          match s.restart_style with
          | Luby -> !conflicts >= restart_budget
          | Ema ->
            (* Glucose-style: restart when recent conflicts produce
               markedly worse (higher-glue) clauses than the long-run
               average; [restart_base] is the minimum spacing. *)
            !conflicts >= s.restart_base
            && s.ema_fast > ema_margin *. s.ema_slow
        in
        if restart then begin
          s.n_restarts <- s.n_restarts + 1;
          Telemetry.Span.instant "sat.restart"
            ~args:[ ("conflicts", Telemetry.Int s.n_conflicts) ];
          cancel_until s 0;
          raise Exit
        end;
        if s.n_conflicts >= s.reduce_next then reduce_db s;
        (* Decide: first re-establish assumptions, then VSIDS. *)
        let lvl = decision_level s in
        if lvl < Array.length assumptions then begin
          let a = assumptions.(lvl) in
          if lit_sat s a then begin
            (* Already satisfied: open an empty level so indices advance. *)
            Vec.push s.trail_lim s.trail_size
          end
          else if lit_false s a then begin
            if s.proof_enabled then record_failed_assumption s a;
            raise (Done Unsat)
          end
          else begin
            Vec.push s.trail_lim s.trail_size;
            enqueue s a (-1)
          end
        end
        else begin
          let v = pick_branch s in
          if v = 0 then raise (Done Sat)
          else begin
            s.n_decisions <- s.n_decisions + 1;
            Vec.push s.trail_lim s.trail_size;
            enqueue s (if s.phase.(v) then v else -v) (-1)
          end
        end
      end
    done;
    assert false
  with Exit -> None
     | Done r -> Some r

let solve_body ~assumptions s =
  if not s.ok then Unsat
  else begin
    let assum = Array.of_list assumptions in
    (* Assumption-aware warm start: instead of unconditionally unwinding to
       level 0, keep the decision levels that decided an unchanged prefix
       of the assumptions. Sound because clause addition already cancels to
       the root, so a trail above level 0 can only be left over from an
       earlier solve of the same database — its propagations are still
       exact, and deletions by reduction never retract implications. *)
    let prev = s.last_assumptions in
    let bound = min (Array.length prev) (Array.length assum) in
    let k = ref 0 in
    while !k < bound && prev.(!k) = assum.(!k) do incr k done;
    cancel_until s (min !k (decision_level s));
    s.last_assumptions <- assum;
    (* A warm (level > 0) trail is fully propagated, so the entry
       propagation pass is only needed — and a conflict only meaningful —
       at the root. *)
    if decision_level s = 0 then propagate_root s;
    if not s.ok then Unsat
    else begin
      try
        let rec loop i =
          let budget =
            match s.restart_style with
            | Luby -> s.restart_base * luby i
            | Ema -> max_int (* the EMA condition governs restarts *)
          in
          match search s ~assumptions:assum ~restart_budget:budget with
          | Some r -> r
          | None -> loop (i + 1)
        in
        let r = loop 1 in
        (match r with
         | Sat -> ()
         | Unsat ->
           cancel_until s 0;
           (* A refuted assumption is a root fact by now. *)
           if s.proof_enabled then flush_root_units s);
        r
      with Cancelled ->
        (* Defensive reset so a cancelled solver can be re-entered (the
           portfolio reuses losers): drop the assumption decision levels and
           restart propagation from the base of the trail, revalidating any
           level-0 units a truncated propagation pass left half-processed. *)
        cancel_until s 0;
        s.qhead <- 0;
        raise Cancelled
    end
  end

(* Wrap the search in a telemetry span and publish the per-solve statistic
   deltas to the global series (also on Cancelled, so portfolio losers'
   effort is accounted). *)
let solve ?(assumptions = []) s =
  s.conflict_ceiling <- max_int;
  s.solve_t0 <- Telemetry.now_s ();
  s.solve_c0 <- s.n_conflicts;
  (* Sub-interval solves would otherwise contribute zero series points (the
     poll-site sample is rate-limited): force one sample at entry and one
     at exit so every solve leaves at least a first and a last point. *)
  Telemetry.Series.sample ~force:true (series_snapshot s);
  let d0 = s.n_decisions and r0 = s.n_restarts in
  let lc0 = s.n_lbd_core and lm0 = s.n_lbd_mid and ll0 = s.n_lbd_local in
  let account () =
    Telemetry.Series.sample ~force:true (series_snapshot s);
    Telemetry.Counter.add m_conflicts (s.n_conflicts - s.solve_c0);
    Telemetry.Counter.add m_decisions (s.n_decisions - d0);
    publish_props s;
    Telemetry.Counter.add m_restarts (s.n_restarts - r0);
    Telemetry.Counter.add m_lbd_core (s.n_lbd_core - lc0);
    Telemetry.Counter.add m_lbd_mid (s.n_lbd_mid - lm0);
    Telemetry.Counter.add m_lbd_local (s.n_lbd_local - ll0)
  in
  match
    Telemetry.Span.with_ "sat.solve"
      ~args:
        [ ("vars", Telemetry.Int s.nvars);
          ("clauses", Telemetry.Int (Vec.size s.clauses));
          ("assumptions", Telemetry.Int (List.length assumptions)) ]
      ~end_args:(fun r ->
        [ ("result", Telemetry.Str (match r with Sat -> "sat" | Unsat -> "unsat"));
          ("conflicts", Telemetry.Int (s.n_conflicts - s.solve_c0)) ])
      (fun () -> solve_body ~assumptions s)
  with
  | r ->
    account ();
    r
  | exception e ->
    account ();
    raise e

(* A bounded query: give up after [conflicts] conflicts. Used by SAT
   sweeping, where an inconclusive equivalence candidate is simply not
   merged. The solver stays reusable after a limit hit — same defensive
   reset as cancellation (drop assumption levels, re-propagate from the
   trail base). *)
let solve_limited ?(assumptions = []) ~conflicts s =
  if conflicts < 1 then invalid_arg "Solver.solve_limited";
  s.conflict_ceiling <-
    (if s.n_conflicts > max_int - conflicts then max_int
     else s.n_conflicts + conflicts);
  s.solve_t0 <- Telemetry.now_s ();
  s.solve_c0 <- s.n_conflicts;
  let d0 = s.n_decisions and r0 = s.n_restarts in
  let lc0 = s.n_lbd_core and lm0 = s.n_lbd_mid and ll0 = s.n_lbd_local in
  let account () =
    s.conflict_ceiling <- max_int;
    Telemetry.Counter.add m_conflicts (s.n_conflicts - s.solve_c0);
    Telemetry.Counter.add m_decisions (s.n_decisions - d0);
    publish_props s;
    Telemetry.Counter.add m_restarts (s.n_restarts - r0);
    Telemetry.Counter.add m_lbd_core (s.n_lbd_core - lc0);
    Telemetry.Counter.add m_lbd_mid (s.n_lbd_mid - lm0);
    Telemetry.Counter.add m_lbd_local (s.n_lbd_local - ll0)
  in
  match
    Telemetry.Span.with_ "sat.solve"
      ~args:
        [ ("vars", Telemetry.Int s.nvars);
          ("limit", Telemetry.Int conflicts);
          ("assumptions", Telemetry.Int (List.length assumptions)) ]
      ~end_args:(fun r ->
        [ ("result",
           Telemetry.Str
             (match r with
              | Some Sat -> "sat"
              | Some Unsat -> "unsat"
              | None -> "limit"));
          ("conflicts", Telemetry.Int (s.n_conflicts - s.solve_c0)) ])
      (fun () ->
        match solve_body ~assumptions s with
        | r -> Some r
        | exception Limit_hit ->
          cancel_until s 0;
          s.qhead <- 0;
          None)
  with
  | r ->
    account ();
    r
  | exception e ->
    account ();
    raise e

let value s v =
  if v <= 0 || v > s.nvars then invalid_arg "Solver.value";
  s.vals.(s.voff + v) > 0

let lit_value s lit =
  let b = value s (var_of lit) in
  if lit > 0 then b else not b

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learned = s.n_learned;
    max_var = s.nvars;
    clauses = Vec.size s.clauses;
    lbd_core = s.n_lbd_core;
    lbd_mid = s.n_lbd_mid;
    lbd_local = s.n_lbd_local;
    reductions = s.n_reductions;
    vivified = s.n_vivified;
  }

let pp_stats fmt st =
  Format.fprintf fmt
    "vars=%d clauses=%d decisions=%d propagations=%d conflicts=%d restarts=%d \
     learned=%d glue(core/mid/local)=%d/%d/%d reductions=%d vivified=%d"
    st.max_var st.clauses st.decisions st.propagations st.conflicts st.restarts
    st.learned st.lbd_core st.lbd_mid st.lbd_local st.reductions st.vivified

let enable_proof s sink =
  if Vec.size s.clauses > 0 || s.trail_size > 0 then
    invalid_arg "Solver.enable_proof: clauses already added";
  s.proof_enabled <- true;
  s.sink <- sink
