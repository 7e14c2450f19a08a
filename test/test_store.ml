(* The persistent verdict store: entry round-trips through the on-disk
   codec, hit/miss/dirty behaviour through Aqed.Check, certificate
   revalidation, warm starts and depth clamping, robustness against
   truncated/corrupted/fingerprint-skewed entries, concurrent writers, and
   size-bounded GC.

   All solves use the cheap 4-bit echo design (clean, and with the
   parity-twist bug) so the suite stays fast and deterministic. *)

module Ir = Rtl.Ir

let echo ?(twist = false) () =
  let c = Ir.create "echo_store" in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:4 ()
  in
  let have = Ir.reg0 c "have" 1 in
  let value = Ir.reg0 c "value" 4 in
  let parity = Ir.reg0 c "parity" 1 in
  let in_ready = Ir.lognot have in
  let in_fire = Ir.logand in_valid in_ready in
  let out_fire = Ir.logand have out_ready in
  let base = Ir.add in_data (Ir.constant c ~width:4 3) in
  let stored =
    if twist then Ir.mux parity (Ir.logxor base (Ir.constant c ~width:4 1)) base
    else base
  in
  Ir.connect c value (Ir.mux in_fire stored value);
  Ir.connect c have (Ir.mux in_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));
  Ir.connect c parity (Ir.mux in_fire (Ir.lognot parity) parity);
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid:have
    ~out_data:value ~out_ready ()

(* cnt_width is pinned: the FC monitor's auto-sized counter tracks
   max_depth, and a depth-dependent monitor means a depth-dependent key —
   which would hide the warm-start and clamping paths these tests target. *)
let ob_fc ?(twist = false) ~depth () =
  Aqed.Check.prepare_fc ~max_depth:depth ~cnt_width:8 (fun () ->
      echo ~twist ())

(* Fresh store directory per test; removed on the way out. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_store label f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aqed_test_store_%d_%s" (Unix.getpid ()) label)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.open_store dir))

let counter name = Telemetry.Counter.get (Telemetry.Counter.make name)

let entry_files store =
  Sys.readdir (Store.dir store)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")

let verdict_sig (r : Aqed.Check.report) =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> Printf.sprintf "bug@%d" (Bmc.Trace.length t)
  | Aqed.Check.No_bug_up_to k -> Printf.sprintf "clean@%d" k

(* ---- hit / miss / revalidation through Aqed.Check ---- *)

let test_bug_miss_then_hit () =
  with_store "bug_hit" (fun store ->
      let h0 = counter "store.hits" and m0 = counter "store.misses" in
      let cold = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ()) in
      Alcotest.(check bool) "bug found" true (Aqed.Check.found_bug cold);
      (* Store-mediated solves are certified even without ~certify. *)
      (match cold.Aqed.Check.certificate with
       | Aqed.Check.Replayed _ -> ()
       | _ -> Alcotest.fail "cold bug solve must carry a replay certificate");
      Alcotest.(check int) "one entry written" 1
        (Store.stats store).Store.n_entries;
      Alcotest.(check int) "cold was a miss" (m0 + 1) (counter "store.misses");
      let warm = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ()) in
      Alcotest.(check string) "verdict parity" (verdict_sig cold)
        (verdict_sig warm);
      Alcotest.(check string) "same key" cold.Aqed.Check.key
        warm.Aqed.Check.key;
      Alcotest.(check int) "warm was a revalidated hit" (h0 + 1)
        (counter "store.hits");
      match warm.Aqed.Check.certificate with
      | Aqed.Check.Replayed c ->
        Alcotest.(check (option int)) "violation on the final cycle"
          (Some (c + 1)) (Aqed.Check.trace_length warm)
      | _ -> Alcotest.fail "hit must carry the replay certificate")

let test_clean_miss_then_hit () =
  with_store "clean_hit" (fun store ->
      let cold = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      (match cold.Aqed.Check.certificate with
       | Aqed.Check.Rup_certified 6 -> ()
       | _ -> Alcotest.fail "expected rup@6 on the cold clean solve");
      let h0 = counter "store.hits" in
      let warm = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      Alcotest.(check string) "verdict parity" "clean@6" (verdict_sig warm);
      Alcotest.(check int) "hit" (h0 + 1) (counter "store.hits");
      match warm.Aqed.Check.certificate with
      | Aqed.Check.Rup_certified 6 -> ()
      | _ -> Alcotest.fail "hit must carry the RUP certificate")

let test_dirty_key_misses () =
  (* The clean and twisted designs prepare to different structural keys, so
     entries never cross: a changed design is always a fresh solve. *)
  with_store "dirty" (fun store ->
      let clean = Aqed.Check.run_obligation ~store (ob_fc ~depth:8 ()) in
      let h0 = counter "store.hits" in
      let bug = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:8 ()) in
      Alcotest.(check bool) "keys differ" true
        (clean.Aqed.Check.key <> bug.Aqed.Check.key);
      Alcotest.(check int) "no cross-hit" h0 (counter "store.hits");
      Alcotest.(check int) "both entries kept" 2
        (Store.stats store).Store.n_entries)

let test_fingerprint_mismatch_misses () =
  (* Same key, different solver configuration: the fingerprint differs, so
     the entry is invisible — a verdict is never reused across configs. *)
  with_store "fp" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      let h0 = counter "store.hits" and m0 = counter "store.misses" in
      let ema = { Bmc.Engine.default_config with restarts = Sat.Solver.Ema } in
      let r = Aqed.Check.run_obligation ~store ~solver:ema (ob_fc ~depth:6 ()) in
      Alcotest.(check string) "same verdict either way" "clean@6"
        (verdict_sig r);
      Alcotest.(check int) "no hit across configs" h0 (counter "store.hits");
      Alcotest.(check int) "counted as a miss" (m0 + 1)
        (counter "store.misses");
      Alcotest.(check int) "one entry per config" 2
        (Store.stats store).Store.n_entries)

(* ---- warm starts and depth clamping ---- *)

let test_warm_start_deepens_clean () =
  with_store "warm" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:4 ()) in
      let w0 = counter "store.warm_starts" and h0 = counter "store.hits" in
      let deep = Aqed.Check.run_obligation ~store (ob_fc ~depth:8 ()) in
      Alcotest.(check string) "deepened to the new bound" "clean@8"
        (verdict_sig deep);
      (match deep.Aqed.Check.certificate with
       | Aqed.Check.Rup_certified 8 -> ()
       | _ -> Alcotest.fail "deepened solve must be RUP-certified to 8");
      Alcotest.(check int) "warm-started, not answered" (w0 + 1)
        (counter "store.warm_starts");
      Alcotest.(check int) "not a hit" h0 (counter "store.hits");
      (* The deeper result overwrote the entry: depth 8 now answers. *)
      let again = Aqed.Check.run_obligation ~store (ob_fc ~depth:8 ()) in
      Alcotest.(check int) "entry deepened" (h0 + 1) (counter "store.hits");
      Alcotest.(check string) "parity" "clean@8" (verdict_sig again))

let test_warm_start_does_not_mask_bug () =
  (* A clean-to-d entry must never hide a bug that lives past d: the warm
     re-search resumes from d and still finds it, with the same trace
     length as a cold search. *)
  with_store "warm_bug" (fun store ->
      let cold = Aqed.Check.run_obligation (ob_fc ~twist:true ~depth:10 ()) in
      let len =
        match Aqed.Check.trace_length cold with
        | Some n -> n
        | None -> Alcotest.fail "twist must have a bug within depth 10"
      in
      Alcotest.(check bool) "bug deeper than 1 frame" true (len > 1);
      (* Clean entry strictly below the bug... *)
      let shallow =
        Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:(len - 1) ())
      in
      Alcotest.(check string) "clean below the bug"
        (Printf.sprintf "clean@%d" (len - 1))
        (verdict_sig shallow);
      (* ...then a deeper bound warm-starts and still reports the bug. *)
      let deep =
        Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ())
      in
      Alcotest.(check string) "bug found past the warm prefix"
        (verdict_sig cold) (verdict_sig deep))

let test_clamp_clean_entry_to_shallower_bound () =
  with_store "clamp_clean" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:8 ()) in
      let h0 = counter "store.hits" in
      let r = Aqed.Check.run_obligation ~store (ob_fc ~depth:5 ()) in
      Alcotest.(check string) "clamped to the requested bound" "clean@5"
        (verdict_sig r);
      (match r.Aqed.Check.certificate with
       | Aqed.Check.Rup_certified 5 -> ()
       | _ -> Alcotest.fail "clamped verdict reports the requested depth");
      Alcotest.(check int) "answered as a hit" (h0 + 1)
        (counter "store.hits"))

let test_clamp_bug_entry_to_shallower_bound () =
  (* A stored counterexample longer than the requested bound cannot be
     reported as a bug at that bound; the certified clean prefix is. *)
  with_store "clamp_bug" (fun store ->
      let cold =
        Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ())
      in
      let len =
        match Aqed.Check.trace_length cold with
        | Some n -> n
        | None -> Alcotest.fail "expected a bug"
      in
      let h0 = counter "store.hits" in
      let r =
        Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:(len - 1) ())
      in
      Alcotest.(check string) "clean at the shallower bound"
        (Printf.sprintf "clean@%d" (len - 1))
        (verdict_sig r);
      Alcotest.(check int) "hit (the entry's clean prefix answers)" (h0 + 1)
        (counter "store.hits"))

(* ---- robustness: truncation, corruption, skew ---- *)

let corrupt_file path f =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f content);
  close_out oc

let test_truncated_entry_degrades_to_miss () =
  with_store "trunc" (fun store ->
      let cold = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      let file =
        match entry_files store with
        | [ f ] -> Filename.concat (Store.dir store) f
        | _ -> Alcotest.fail "expected exactly one entry file"
      in
      corrupt_file file (fun s -> String.sub s 0 (String.length s / 2));
      let h0 = counter "store.hits" and m0 = counter "store.misses" in
      let r = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      Alcotest.(check string) "verdict unaffected" (verdict_sig cold)
        (verdict_sig r);
      Alcotest.(check int) "no hit from the stump" h0 (counter "store.hits");
      Alcotest.(check int) "fell back to a miss" (m0 + 1)
        (counter "store.misses");
      (* The re-solve rewrote the entry: it parses again... *)
      List.iter
        (fun (i : Store.scan_item) ->
          match i.Store.s_entry with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("entry not rewritten: " ^ e))
        (Store.scan store);
      (* ...and answers. *)
      let h1 = counter "store.hits" in
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      Alcotest.(check int) "hits again" (h1 + 1) (counter "store.hits"))

let test_corrupted_payload_degrades_to_miss () =
  with_store "corrupt" (fun store ->
      let cold = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ()) in
      let file =
        match entry_files store with
        | [ f ] -> Filename.concat (Store.dir store) f
        | _ -> Alcotest.fail "expected exactly one entry file"
      in
      (* Flip a digit somewhere in the middle: the checksum no longer
         matches, whatever the byte used to mean. *)
      corrupt_file file (fun s ->
          let b = Bytes.of_string s in
          let i = String.length s / 2 in
          Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
          Bytes.to_string b);
      let h0 = counter "store.hits" in
      let r = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ()) in
      Alcotest.(check string) "verdict unaffected" (verdict_sig cold)
        (verdict_sig r);
      Alcotest.(check int) "corrupted entry never answers" h0
        (counter "store.hits"))

let test_version_in_fingerprint_and_skew () =
  (* The format version leads the config fingerprint, so entries written by
     another codec version are fingerprint mismatches — scanned misses, not
     parse hazards. *)
  let fp =
    Store.config_fingerprint ~reduce:true ~sweep:false ~certify:true
      ~solver_label:"x"
  in
  let prefix = Printf.sprintf "v%d;" Store.format_version in
  Alcotest.(check string) "fingerprint pins the format version" prefix
    (String.sub fp 0 (String.length prefix));
  with_store "skew" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      let e =
        match Store.scan store with
        | [ { Store.s_entry = Ok e; _ } ] -> e
        | _ -> Alcotest.fail "expected one parseable entry"
      in
      let i0 = counter "store.invalid" in
      (* Direct lookup with a skewed fingerprint: the file exists and
         parses, but is refused and counted invalid. *)
      (match
         Store.lookup store ~key:e.Store.e_key
           ~fingerprint:(e.Store.e_fingerprint ^ "-skew")
       with
       | None -> ()
       | Some _ -> Alcotest.fail "skewed fingerprint must not answer");
      Alcotest.(check bool) "nothing counted for a missing file" true
        (counter "store.invalid" = i0))

(* ---- concurrency: two pools, one store directory ---- *)

let test_concurrent_writers_no_torn_reads () =
  with_store "concurrent" (fun store ->
      let dir = Store.dir store in
      (* Two domains, each with its own handle on the same directory, both
         solving (and writing) the same obligations repeatedly while racing
         each other. Atomic tmp-then-rename means every file a reader ever
         sees must parse. *)
      let worker () =
        Domain.spawn (fun () ->
            let s = Store.open_store dir in
            for _ = 1 to 3 do
              ignore (Aqed.Check.run_obligation ~store:s (ob_fc ~depth:5 ()));
              ignore
                (Aqed.Check.run_obligation ~store:s
                   (ob_fc ~twist:true ~depth:8 ()))
            done)
      in
      let a = worker () and b = worker () in
      (* Read under the race, not just after it. *)
      for _ = 1 to 20 do
        List.iter
          (fun (i : Store.scan_item) ->
            match i.Store.s_entry with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("torn read: " ^ e))
          (Store.scan store)
      done;
      Domain.join a;
      Domain.join b;
      Alcotest.(check int) "one entry per obligation" 2
        (Store.stats store).Store.n_entries;
      List.iter
        (fun (i : Store.scan_item) ->
          match i.Store.s_entry with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("final state torn: " ^ e))
        (Store.scan store))

(* ---- batch driver integration ---- *)

let test_batch_warm_all_hits () =
  with_store "batch" (fun store ->
      let suite () =
        [ ob_fc ~depth:6 (); ob_fc ~twist:true ~depth:10 () ]
      in
      let cold = Aqed.Check.run_batch ~jobs:2 ~store (suite ()) in
      let warm = Aqed.Check.run_batch ~jobs:2 ~store (suite ()) in
      List.iter2
        (fun (c : Aqed.Check.batch_entry) (w : Aqed.Check.batch_entry) ->
          Alcotest.(check string) "parity"
            (verdict_sig c.Aqed.Check.entry_report)
            (verdict_sig w.Aqed.Check.entry_report);
          Alcotest.(check bool) "warm entry answered from the store" true
            w.Aqed.Check.entry_cached)
        cold.Aqed.Check.entries warm.Aqed.Check.entries;
      Alcotest.(check int) "warm batch reports the hits" 2
        warm.Aqed.Check.batch_hits)

(* ---- GC ---- *)

let test_gc_bounds () =
  with_store "gc" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~twist:true ~depth:10 ()) in
      Alcotest.(check int) "two entries" 2 (Store.stats store).Store.n_entries;
      (* No bounds: a no-op. *)
      let r = Store.gc store in
      Alcotest.(check int) "no-op keeps all" 0 r.Store.gc_removed;
      let r = Store.gc ~max_entries:1 store in
      Alcotest.(check int) "one removed" 1 r.Store.gc_removed;
      Alcotest.(check int) "one kept" 1 r.Store.gc_kept;
      Alcotest.(check int) "stats agree" 1 (Store.stats store).Store.n_entries;
      let r = Store.gc ~max_bytes:0 store in
      Alcotest.(check int) "byte bound empties the store" 0 r.Store.gc_bytes;
      Alcotest.(check int) "empty" 0 (Store.stats store).Store.n_entries)

let test_tmp_orphan_invisible_and_collected () =
  (* A writer that crashes between creating <key>.entry.tmp.<pid>.<n> and
     the atomic rename leaves the temp file behind. It must be invisible
     to stats/scan/gc entry accounting, and gc reclaims it once it is
     older than the grace period. *)
  with_store "tmp_orphan" (fun store ->
      let _ = Aqed.Check.run_obligation ~store (ob_fc ~depth:6 ()) in
      let orphan =
        Filename.concat (Store.dir store)
          "deadbeefdeadbeefdeadbeefdeadbeef.entry.tmp.99999.0"
      in
      let oc = open_out_bin orphan in
      output_string oc "torn half-written entry";
      close_out oc;
      Alcotest.(check int) "stats ignore the orphan" 1
        (Store.stats store).Store.n_entries;
      List.iter
        (fun (i : Store.scan_item) ->
          if i.Store.s_file = Filename.basename orphan then
            Alcotest.fail "scan picked up the orphan";
          match i.Store.s_entry with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("orphan corrupted a scan: " ^ e))
        (Store.scan store);
      (* Under the default grace period the file may belong to a live
         writer mid-rename: kept. *)
      let r = Store.gc ~max_entries:10 store in
      Alcotest.(check int) "fresh tmp kept" 0 r.Store.gc_tmp_removed;
      Alcotest.(check bool) "still on disk" true (Sys.file_exists orphan);
      (* Past the grace period it is garbage, and collecting it does not
         touch real entries. *)
      let r = Store.gc ~max_entries:10 ~tmp_grace_s:0. store in
      Alcotest.(check int) "orphan collected" 1 r.Store.gc_tmp_removed;
      Alcotest.(check int) "entries untouched" 0 r.Store.gc_removed;
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
      Alcotest.(check int) "entry still answers stats" 1
        (Store.stats store).Store.n_entries)

(* Cross-process lock and contention coverage lives in test_proc.ml: a
   separate test executable, because Unix.fork is forbidden once any
   domain has been spawned in the process, and this runner's other
   suites create domain pools. *)

let suite =
  ( "store",
    [
      Alcotest.test_case "bug: miss then revalidated hit" `Quick
        test_bug_miss_then_hit;
      Alcotest.test_case "clean: miss then RUP-accepted hit" `Quick
        test_clean_miss_then_hit;
      Alcotest.test_case "dirty key never cross-hits" `Quick
        test_dirty_key_misses;
      Alcotest.test_case "config fingerprint partitions entries" `Quick
        test_fingerprint_mismatch_misses;
      Alcotest.test_case "warm start deepens a clean entry" `Quick
        test_warm_start_deepens_clean;
      Alcotest.test_case "warm start does not mask a deeper bug" `Quick
        test_warm_start_does_not_mask_bug;
      Alcotest.test_case "clean entry clamps to a shallower bound" `Quick
        test_clamp_clean_entry_to_shallower_bound;
      Alcotest.test_case "bug entry clamps to a shallower bound" `Quick
        test_clamp_bug_entry_to_shallower_bound;
      Alcotest.test_case "truncated entry degrades to miss and is rewritten"
        `Quick test_truncated_entry_degrades_to_miss;
      Alcotest.test_case "corrupted entry degrades to miss" `Quick
        test_corrupted_payload_degrades_to_miss;
      Alcotest.test_case "version-skewed fingerprint never answers" `Quick
        test_version_in_fingerprint_and_skew;
      Alcotest.test_case "concurrent writers never tear a read" `Quick
        test_concurrent_writers_no_torn_reads;
      Alcotest.test_case "batch driver: warm run is all hits" `Quick
        test_batch_warm_all_hits;
      Alcotest.test_case "gc enforces size bounds" `Quick test_gc_bounds;
      Alcotest.test_case "orphaned writer tmp files are invisible and collected"
        `Quick test_tmp_orphan_invisible_and_collected;
    ] )
