(** Persistent content-addressed verdict store.

    One directory holds one entry file per (structural key, config
    fingerprint) pair. The key is {!Bmc.Engine.prepared_key} — the digest
    of the reduced AIG, bad edge, assumptions and latch wiring — so two
    preparations with equal keys have identical BMC behaviour at every
    depth. The fingerprint pins everything else a durable verdict depends
    on: the store format version, the check kind, and the
    reduce/sweep/certify/solver configuration that produced the entry.

    Trust model: the store never answers on its own authority. An entry is
    only surfaced when its file parses, its trailing MD5 checksum matches,
    and its recorded key and fingerprint are byte-identical to the lookup's
    — anything else degrades to a miss (counted on [store.invalid]), never
    a wrong verdict. The caller then revalidates the certificate payload
    (replay the counterexample on {!Rtl.Sim}, or accept an UNSAT entry
    whose clean frames were RUP-certified at the recorded depth) before
    trusting the verdict; that policy lives in [Aqed.Check], not here.

    Durability: entries are written to a temp file in the store directory
    and atomically renamed into place, so concurrent writers (two pools
    sharing one store) never produce a torn read — a reader sees the old
    entry, the new entry, or no entry. *)

type t
(** A handle on one store directory. *)

val format_version : int
(** Bumped whenever the entry codec changes; part of every fingerprint, so
    entries written by an older build are version-skewed misses, not parse
    hazards. *)

val open_store : string -> t
(** Opens (creating if needed) the store directory. *)

val dir : t -> string

(** {1 Entries} *)

type verdict =
  | Bug of Bmc.Trace.t
      (** The stored shrunk, replay-confirmed counterexample; its length is
          the depth the bug was found at. *)
  | Clean of int  (** No violation within the recorded bound. *)

type cert =
  | Cert_replayed of int
      (** Counterexample confirmed by simulator replay at the recorded
          cycle when the entry was written. *)
  | Cert_rup of int
      (** Every clean frame up to the recorded depth passed the RUP check
          when the entry was written. *)

type entry = {
  e_key : string;          (** {!Bmc.Engine.prepared_key} of the instance *)
  e_fingerprint : string;  (** full fingerprint, see {!fingerprint} *)
  e_check : string;        (** "FC" | "RB" | "SAC" *)
  e_verdict : verdict;
  e_cert : cert;
  e_frames : int;          (** frames explored by the original search *)
  e_aig_nodes : int;
  e_aig_nodes_raw : int;
  e_winner : string;       (** solver-config label that produced the verdict *)
  e_wall : float;          (** original solve wall time, seconds *)
  e_reduce : Logic.Reduce.stats option;
  e_solver : Sat.Solver.stats;
  e_created_s : float;     (** unix seconds at write time *)
}

(** {1 Fingerprints} *)

val config_fingerprint :
  reduce:bool -> sweep:bool -> certify:bool -> solver_label:string -> string
(** The run-level configuration identity: store format version plus every
    flag that can change what a solve produces or how it is certified.
    Journal meta records carry this string so [report --compare] can
    refuse to compare wall times across configurations. *)

val fingerprint : config:string -> check:string -> string
(** The per-entry fingerprint: a {!config_fingerprint} extended with the
    check kind. Lookups match it byte-for-byte. *)

(** {1 Lookup and store} *)

val lookup : t -> key:string -> fingerprint:string -> entry option
(** [None] when no entry exists for the pair — or when one exists but is
    truncated, corrupted, version-skewed or records a different
    key/fingerprint (counted on [store.invalid]; the caller's re-solve
    will overwrite it). *)

val store : t -> entry -> unit
(** Writes (or atomically replaces) the entry for
    [(e.e_key, e.e_fingerprint)]. Counted on [store.writes]. *)

val locked : t -> (unit -> 'a) -> 'a
(** Runs [f] holding the store's cross-process advisory lock (fcntl on a
    dedicated [.lock] file in the store directory). Writers hold it
    across their atomic rename and {!gc} holds it across its whole
    stat-and-remove pass, so a publish can never race a collection's
    stale directory scan — without it, gc could reap a just-renamed
    entry whose mtime (preserved from the writer's temp file) predates
    the scan. fcntl locks are per-process: the lock orders processes
    sharing one store directory, not threads within one process. *)

(** {1 Maintenance} *)

type stats = {
  n_entries : int;
  n_bytes : int;
}

val stats : t -> stats
(** Entry files only: writer temp files ([*.tmp.*], possibly orphaned by a
    crashed writer) are never counted. *)

type gc_result = {
  gc_kept : int;
  gc_removed : int;
  gc_bytes : int;  (** bytes remaining after collection *)
  gc_tmp_removed : int;
      (** orphaned writer temp files reclaimed by this pass *)
}

val gc : ?max_bytes:int -> ?max_entries:int -> ?tmp_grace_s:float -> t ->
  gc_result
(** Size-bounded collection: removes oldest entries (by mtime) until the
    store fits both bounds. With neither bound given the entry pass is a
    no-op. Removals are counted on [store.gc_removed]. Every pass also
    deletes writer temp files older than [tmp_grace_s] (default 600 s) —
    debris from a writer that crashed between creating its temp file and
    the atomic rename; the grace period keeps live writers' in-flight
    files safe. *)

type scan_item = {
  s_file : string;                    (** basename within the store dir *)
  s_entry : (entry, string) result;   (** [Error reason] for invalid files *)
}

val scan : t -> scan_item list
(** Parses every entry in the store (deterministic filename order,
    [*.tmp.*] writer debris excluded) — the engine behind
    [aqed_cli store verify]. *)
