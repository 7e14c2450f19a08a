(* Tests for the telemetry layer: trace round-trip through the Chrome
   trace_event JSON exporter, metric counters under multi-domain contention,
   progress reporting, and the regression that matters most — disabled
   telemetry records nothing and changes no verdict. *)

module T = Telemetry

(* Every test that enables tracing or progress must restore the global
   default (both off, buffers empty) whatever happens, or later suites
   would record events. *)
let quiesced f =
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.Progress.disable ();
      T.Series.disable ();
      T.reset_events ())
    f

(* ---- a minimal JSON reader, enough to load what we export ---- *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = Alcotest.fail (Printf.sprintf "JSON %s at byte %d" msg !pos) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code = int_of_string ("0x" ^ hex) in
           Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
         | _ -> fail "bad escape");
        go ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; J_obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> J_obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; J_arr [])
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> items (v :: acc)
          | ']' -> J_arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> J_str (parse_string ())
    | 't' -> pos := !pos + 4; J_bool true
    | 'f' -> pos := !pos + 5; J_bool false
    | 'n' -> pos := !pos + 4; J_null
    | _ ->
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
        || c = 'E'
      in
      while num_char (peek ()) do incr pos done;
      if !pos = start then fail "unexpected character"
      else J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let member k = function
  | J_obj fields ->
    (match List.assoc_opt k fields with
     | Some v -> v
     | None -> Alcotest.fail (Printf.sprintf "JSON object lacks %S" k))
  | _ -> Alcotest.fail "expected JSON object"

let as_str = function J_str s -> s | _ -> Alcotest.fail "expected string"
let as_num = function J_num f -> f | _ -> Alcotest.fail "expected number"
let as_arr = function J_arr xs -> xs | _ -> Alcotest.fail "expected array"
let as_int j = int_of_float (as_num j)

let export_to_string () =
  let path = Filename.temp_file "aqed_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      T.export_file path;
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s)

let load_events () =
  match member "traceEvents" (parse_json (export_to_string ())) with
  | J_arr events -> events
  | _ -> Alcotest.fail "traceEvents not an array"

(* Replay the begin/end discipline per tid: every 'E' must close the most
   recent open 'B' of the same name on the same tid, timestamps must be
   strictly increasing per tid, and nothing may remain open at the end. *)
let check_trace_invariants events =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let get tbl mk tid =
    match Hashtbl.find_opt tbl tid with
    | Some v -> v
    | None -> let v = mk () in Hashtbl.add tbl tid v; v
  in
  List.iter
    (fun ev ->
      let tid = as_int (member "tid" ev) in
      let ts = as_num (member "ts" ev) in
      let name = as_str (member "name" ev) in
      let prev = get last_ts (fun () -> ref neg_infinity) tid in
      Alcotest.(check bool)
        (Printf.sprintf "ts monotone on tid %d at %s" tid name)
        true (ts > !prev);
      prev := ts;
      let stack = get stacks (fun () -> ref []) tid in
      match as_str (member "ph" ev) with
      | "B" -> stack := name :: !stack
      | "E" ->
        (match !stack with
         | top :: rest when top = name -> stack := rest
         | _ ->
           Alcotest.fail
             (Printf.sprintf "unbalanced E %S on tid %d" name tid))
      | "i" -> ()
      | ph -> Alcotest.fail (Printf.sprintf "unexpected phase %S" ph))
    events;
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check (list string))
        (Printf.sprintf "tid %d fully closed" tid)
        [] !stack)
    stacks

let test_span_roundtrip () =
  quiesced (fun () ->
      T.reset_events ();
      T.enable ();
      T.Span.with_ "outer" ~args:[ ("k", T.Str "v\"quoted\"") ] (fun () ->
          T.Span.instant "marker" ~args:[ ("n", T.Int 3) ];
          T.Span.with_ "inner"
            ~end_args:(fun r -> [ ("result", T.Int r) ])
            (fun () -> 7)
          |> ignore);
      (* An exceptional exit still closes its span. *)
      (try T.Span.with_ "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      T.disable ();
      let events = load_events () in
      Alcotest.(check int) "event count" 7 (List.length events);
      check_trace_invariants events;
      let names =
        List.sort_uniq String.compare
          (List.map (fun e -> as_str (member "name" e)) events)
      in
      Alcotest.(check (list string)) "names"
        [ "inner"; "marker"; "outer"; "raises" ]
        names)

let simd_obligations () =
  List.init 2 (fun i ->
      Aqed.Check.prepare_fc
        ~name:(Printf.sprintf "SIMD/FC#%d" i)
        ~max_depth:10 ~lanes:Accel.Simd.lanes
        (fun () -> Accel.Simd.build ~bug:true ()))

(* The acceptance criterion of the tentpole: one traced batch run produces
   spans from all four instrumented layers. *)
let test_layers_emit_spans () =
  quiesced (fun () ->
      T.reset_events ();
      T.enable ();
      let batch = Aqed.Check.run_batch ~jobs:2 (simd_obligations ()) in
      T.disable ();
      List.iter
        (fun r ->
          Alcotest.(check bool) "bug found" true (Aqed.Check.found_bug r))
        (Aqed.Check.batch_reports batch);
      let events = load_events () in
      check_trace_invariants events;
      let names =
        List.map (fun e -> as_str (member "name" e)) events
        |> List.sort_uniq String.compare
      in
      List.iter
        (fun expected ->
          Alcotest.(check bool)
            (Printf.sprintf "span %S present" expected)
            true (List.mem expected names))
        [ "sat.solve"; "bmc.search"; "bmc.frame"; "pool.task"; "check" ])

(* A traced [check] run brackets build, bit-blast and reduction in one
   [check.prepare] span: it encloses the [reduce] pass and closes before
   the search's [check] span opens. *)
let test_prepare_span () =
  quiesced (fun () ->
      T.reset_events ();
      T.enable ();
      ignore
        (Aqed.Check.run_obligation
           (Aqed.Check.prepare_fc ~max_depth:4 (fun () ->
                Accel.Memctrl.build Accel.Memctrl.Fifo_mode ())));
      T.disable ();
      let events = load_events () in
      check_trace_invariants events;
      let phases =
        List.filter_map
          (fun e ->
            let name = as_str (member "name" e) in
            if List.mem name [ "check.prepare"; "reduce"; "check" ] then
              Some (as_str (member "ph" e) ^ " " ^ name)
            else None)
          events
      in
      Alcotest.(check (list string)) "prepare, then the search"
        [ "B check.prepare"; "B reduce"; "E reduce"; "E check.prepare";
          "B check"; "E check" ]
        phases)

let test_counters_under_contention () =
  let c = T.Counter.make "test.contention" in
  let before = T.Counter.get c in
  Parallel.Pool.with_pool ~workers:4 (fun p ->
      let futs =
        List.init 64 (fun _ ->
            Parallel.Pool.submit p (fun () ->
                for _ = 1 to 1000 do T.Counter.incr c done))
      in
      List.iter Parallel.Pool.await futs);
  Alcotest.(check int) "64 tasks x 1000 incrs" 64000 (T.Counter.get c - before)

(* The global solver counters and the per-report [solver_stats] are two
   views of the same search: one unportfolioed, store-less obligation must
   move each counter by exactly its report's figure — including the
   propagation done by between-frame inprocessing, outside any [solve]. *)
let test_solver_counters_match_report () =
  let counters =
    [ ("sat.propagations", fun st -> st.Sat.Solver.propagations);
      ("sat.decisions", fun st -> st.Sat.Solver.decisions);
      ("sat.conflicts", fun st -> st.Sat.Solver.conflicts) ]
  in
  let get name = T.Counter.get (T.Counter.make name) in
  let before = List.map (fun (name, _) -> get name) counters in
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:6 (fun () ->
           Accel.Memctrl.build Accel.Memctrl.Fifo_mode ()))
  in
  List.iter2
    (fun (name, stat) b ->
      Alcotest.(check int) name (stat r.Aqed.Check.solver_stats) (get name - b))
    counters before

(* Certification is chain-only: on a certified clean search every step —
   learned, vivified, strengthened, the root units and the frame-end
   checks — is closed by the chain it carries, with nothing rejected. *)
let test_rup_chains_close_steps () =
  let get name = T.Counter.get (T.Counter.make name) in
  let n0 = get "cert.rup_steps" and r0 = get "cert.rup_rejected" in
  let r =
    Aqed.Check.run_obligation ~certify:true
      (Aqed.Check.prepare_fc ~max_depth:8 (fun () ->
           Accel.Memctrl.build Accel.Memctrl.Fifo_mode ()))
  in
  Alcotest.(check bool) "clean and certified" true
    (r.Aqed.Check.certificate = Bmc.Engine.Rup_certified 8);
  Alcotest.(check bool) "steps were checked" true (get "cert.rup_steps" > n0);
  Alcotest.(check int) "every step closed by its chain" 0
    (get "cert.rup_rejected" - r0)

let test_metric_interning () =
  let a = T.Counter.make "test.interned" in
  let b = T.Counter.make "test.interned" in
  T.Counter.incr a;
  T.Counter.incr b;
  Alcotest.(check bool) "same underlying counter" true
    (T.Counter.get a = T.Counter.get b);
  Alcotest.(check bool) "name/type clash rejected" true
    (match T.Gauge.make "test.interned" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_metrics_snapshot () =
  let h = T.Histogram.make "test.snap_hist" in
  T.Histogram.observe h 0.002;
  T.Histogram.observe h 0.5;
  let snap = T.metrics () in
  let names = List.map fst snap in
  Alcotest.(check bool) "sorted" true
    (names = List.sort String.compare names);
  (match List.assoc_opt "test.snap_hist" snap with
   | Some (T.Histogram hs) ->
     Alcotest.(check bool) "count >= 2" true (hs.T.count >= 2);
     Alcotest.(check bool) "sum accumulates" true (hs.T.sum_s > 0.5);
     List.iter
       (fun (ub, n) ->
         Alcotest.(check bool) "bucket sane" true (ub > 0. && n > 0))
       hs.T.buckets
   | _ -> Alcotest.fail "test.snap_hist missing or wrong type");
  (* The instrumented layers registered their series at module init. *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "metric %S registered" name)
        true (List.mem_assoc name snap))
    [ "sat.conflicts"; "bmc.frames"; "bmc.frame_solve_s"; "pool.steal_count";
      "cache.hits"; "check.obligations" ]

(* Telemetry off (the default): zero events recorded, and — run the same
   check both ways — identical verdict and depth. *)
let test_disabled_records_nothing () =
  quiesced (fun () ->
      T.reset_events ();
      let run () =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_fc ~max_depth:10 ~lanes:Accel.Simd.lanes
             (fun () -> Accel.Simd.build ~bug:true ()))
      in
      let off = run () in
      Alcotest.(check int) "no events when disabled" 0 (T.nb_events ());
      let events = load_events () in
      Alcotest.(check int) "empty traceEvents" 0 (List.length events);
      T.enable ();
      let on = run () in
      T.disable ();
      Alcotest.(check bool) "events when enabled" true (T.nb_events () > 0);
      Alcotest.(check (option int)) "same counterexample length"
        (Aqed.Check.trace_length off) (Aqed.Check.trace_length on))

(* ---- histogram quantiles ----

   Synthetic snapshots pin the rank arithmetic exactly at bucket
   boundaries: with 10 observations split 5/3/2, p50 exhausts the first
   bucket exactly and p80 the second, while p90 must spill into the
   last. *)

let test_quantile_boundaries () =
  let snap =
    { T.count = 10; sum_s = 0.017;
      buckets = [ (0.001, 5); (0.002, 3); (0.004, 2) ] }
  in
  let q = T.quantile snap in
  Alcotest.(check (float 1e-12)) "p50 lands on first bucket" 0.001 (q 0.5);
  Alcotest.(check (float 1e-12)) "p80 exhausts second bucket" 0.002 (q 0.8);
  Alcotest.(check (float 1e-12)) "p90 spills into last bucket" 0.004 (q 0.9);
  Alcotest.(check (float 1e-12)) "p100 is the max bucket" 0.004 (q 1.0);
  Alcotest.(check (float 1e-12)) "q below 0 clamps to rank 1" 0.001 (q (-0.5));
  Alcotest.(check (float 1e-12)) "q above 1 clamps to max" 0.004 (q 2.0);
  Alcotest.(check (float 1e-12)) "empty snapshot" 0.
    (T.quantile { T.count = 0; sum_s = 0.; buckets = [] } 0.5);
  let one = { T.count = 1; sum_s = 0.5; buckets = [ (0.5, 1) ] } in
  List.iter
    (fun qq ->
      Alcotest.(check (float 1e-12)) "single observation" 0.5
        (T.quantile one qq))
    [ 0.; 0.25; 0.5; 1. ]

let test_quantile_real_histogram () =
  (* Through a real log-scale histogram the estimate overestimates by at
     most one octave: three 0.5 s observations land in one bucket whose
     upper bound is in [0.5, 1.0). *)
  let h = T.Histogram.make "test.quantile_hist" in
  T.Histogram.observe h 0.5;
  T.Histogram.observe h 0.5;
  T.Histogram.observe h 0.5;
  match List.assoc_opt "test.quantile_hist" (T.metrics ()) with
  | Some (T.Histogram snap) ->
    let p50 = T.quantile snap 0.5 in
    Alcotest.(check bool) "within one octave above" true
      (p50 >= 0.5 && p50 < 1.0);
    Alcotest.(check (float 1e-12)) "p50 = p100 for a single bucket" p50
      (T.quantile snap 1.0)
  | _ -> Alcotest.fail "test.quantile_hist missing"

let test_pp_histogram_snapshot () =
  let snap =
    { T.count = 10; sum_s = 0.017;
      buckets = [ (0.001, 5); (0.002, 3); (0.004, 2) ] }
  in
  Alcotest.(check string) "rendered form"
    "10 obs, sum 0.017s, p50 0.001000s, p90 0.004000s, max 0.004000s"
    (Format.asprintf "%a" T.pp_histogram_snapshot snap);
  Alcotest.(check string) "empty form" "0 obs"
    (Format.asprintf "%a" T.pp_histogram_snapshot
       { T.count = 0; sum_s = 0.; buckets = [] })

let test_progress_ticks () =
  quiesced (fun () ->
      let lines = ref [] in
      let lock = Mutex.create () in
      T.Progress.configure ~interval:0.0 (fun l ->
          Mutex.lock lock;
          lines := l :: !lines;
          Mutex.unlock lock);
      Alcotest.(check bool) "active" true (T.Progress.active ());
      for i = 1 to 3 do
        T.Progress.tick (fun () -> Printf.sprintf "step %d" i)
      done;
      T.Progress.disable ();
      Alcotest.(check bool) "inactive" false (T.Progress.active ());
      (* Disabled ticks never evaluate the thunk. *)
      T.Progress.tick (fun () -> Alcotest.fail "tick after disable");
      Alcotest.(check (list string)) "all lines delivered"
        [ "step 1"; "step 2"; "step 3" ]
        (List.rev !lines))

(* Reconfiguring the sink mid-run redirects the very next tick: nothing
   is buffered in the old sink, nothing is lost. *)
let test_progress_reconfigure () =
  quiesced (fun () ->
      let a = ref [] and b = ref [] in
      T.Progress.configure ~interval:0.0 (fun l -> a := l :: !a);
      T.Progress.tick (fun () -> "one");
      T.Progress.configure ~interval:0.0 (fun l -> b := l :: !b);
      T.Progress.tick (fun () -> "two");
      T.Progress.disable ();
      Alcotest.(check (list string)) "first sink" [ "one" ] (List.rev !a);
      Alcotest.(check (list string)) "second sink" [ "two" ] (List.rev !b))

(* The interval is enforced per domain: with an interval no test run can
   exceed, each fresh domain delivers exactly its first tick, and the 100
   rate-limited ticks that follow never evaluate their thunk. *)
let test_progress_rate_limit_per_domain () =
  quiesced (fun () ->
      let lines = ref [] in
      let lock = Mutex.create () in
      T.Progress.configure ~interval:3600.0 (fun l ->
          Mutex.lock lock;
          lines := l :: !lines;
          Mutex.unlock lock);
      let worker tag =
        Domain.spawn (fun () ->
            T.Progress.tick (fun () -> tag);
            for _ = 1 to 100 do
              T.Progress.tick (fun () ->
                  Alcotest.fail "rate-limited tick evaluated its thunk")
            done)
      in
      let d1 = worker "d1" in
      let d2 = worker "d2" in
      Domain.join d1;
      Domain.join d2;
      Alcotest.(check (list string)) "one line per domain" [ "d1"; "d2" ]
        (List.sort String.compare !lines))

(* ---- solver time-series sampler ---- *)

let test_series_inactive_and_mark () =
  quiesced (fun () ->
      T.Series.disable ();
      Alcotest.(check bool) "inactive" false (T.Series.active ());
      (* The unconfigured fast path never evaluates the thunk. *)
      T.Series.sample (fun () -> Alcotest.fail "sampled while disabled");
      T.Series.configure ~interval:0.0 ~capacity:8 ();
      Alcotest.(check bool) "active" true (T.Series.active ());
      T.Series.mark ();
      Alcotest.(check int) "empty after mark" 0
        (List.length (T.Series.collect ()));
      T.Series.sample (fun () -> [ ("b", 2.); ("a", 1.) ]);
      (match T.Series.collect () with
       | [ ("a", [ pa ]); ("b", [ pb ]) ] ->
         Alcotest.(check (float 1e-12)) "value a" 1. pa.T.Series.value;
         Alcotest.(check (float 1e-12)) "value b" 2. pb.T.Series.value;
         Alcotest.(check bool) "relative time" true (pa.T.Series.at_s >= 0.)
       | _ -> Alcotest.fail "expected series a,b with one point each");
      (* mark clears the previous obligation's points. *)
      T.Series.mark ();
      Alcotest.(check int) "mark resets" 0
        (List.length (T.Series.collect ())))

let test_series_ring_wraparound () =
  quiesced (fun () ->
      T.Series.configure ~interval:0.0 ~capacity:4 ();
      T.Series.mark ();
      for i = 1 to 10 do
        T.Series.sample (fun () -> [ ("x", float_of_int i) ])
      done;
      match T.Series.collect () with
      | [ ("x", pts) ] ->
        Alcotest.(check (list (float 1e-12))) "last capacity points survive"
          [ 7.; 8.; 9.; 10. ]
          (List.map (fun p -> p.T.Series.value) pts);
        let times = List.map (fun p -> p.T.Series.at_s) pts in
        Alcotest.(check bool) "chronological" true
          (List.sort compare times = times)
      | _ -> Alcotest.fail "expected exactly series x")

let test_series_rate_limit () =
  quiesced (fun () ->
      T.Series.configure ~interval:3600.0 ();
      (* mark resets the domain's rate-limit clock, so the first sample
         always fires; the second is inside the interval and must not
         evaluate its thunk. *)
      T.Series.mark ();
      T.Series.sample (fun () -> [ ("x", 1.) ]);
      T.Series.sample (fun () ->
          Alcotest.fail "rate-limited sample evaluated its thunk");
      match T.Series.collect () with
      | [ ("x", [ p ]) ] ->
        Alcotest.(check (float 1e-12)) "single point" 1. p.T.Series.value
      | _ -> Alcotest.fail "expected one point in series x")

let test_series_forced_sample () =
  quiesced (fun () ->
      (* ~force bypasses the interval — the mechanism behind the
         guaranteed first+last sample per solve — but stays inert while
         unconfigured. *)
      T.Series.disable ();
      T.Series.sample ~force:true (fun () ->
          Alcotest.fail "forced sample while disabled");
      T.Series.configure ~interval:3600.0 ();
      T.Series.mark ();
      T.Series.sample ~force:true (fun () -> [ ("x", 1.) ]);
      T.Series.sample (fun () ->
          Alcotest.fail "rate-limited sample evaluated its thunk");
      T.Series.sample ~force:true (fun () -> [ ("x", 2.) ]);
      match T.Series.collect () with
      | [ ("x", pts) ] ->
        Alcotest.(check (list (float 1e-12))) "first and last point"
          [ 1.; 2. ]
          (List.map (fun p -> p.T.Series.value) pts)
      | _ -> Alcotest.fail "expected two points in series x")

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "span JSON round-trip" `Quick test_span_roundtrip;
      Alcotest.test_case "all layers emit spans" `Quick test_layers_emit_spans;
      Alcotest.test_case "counters under -j 4 contention" `Quick
        test_counters_under_contention;
      Alcotest.test_case "solver counters match the report" `Quick
        test_solver_counters_match_report;
      Alcotest.test_case "RUP chains close learned steps" `Quick
        test_rup_chains_close_steps;
      Alcotest.test_case "metric interning by name" `Quick test_metric_interning;
      Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
      Alcotest.test_case "disabled telemetry is inert" `Quick
        test_disabled_records_nothing;
      Alcotest.test_case "progress ticks" `Quick test_progress_ticks;
      Alcotest.test_case "quantiles at bucket boundaries" `Quick
        test_quantile_boundaries;
      Alcotest.test_case "quantile octave bias" `Quick
        test_quantile_real_histogram;
      Alcotest.test_case "histogram pretty-printer" `Quick
        test_pp_histogram_snapshot;
      Alcotest.test_case "progress sink reconfiguration" `Quick
        test_progress_reconfigure;
      Alcotest.test_case "progress rate limit per domain" `Quick
        test_progress_rate_limit_per_domain;
      Alcotest.test_case "series inactive/mark/collect" `Quick
        test_series_inactive_and_mark;
      Alcotest.test_case "series ring wraparound" `Quick
        test_series_ring_wraparound;
      Alcotest.test_case "series rate limit" `Quick test_series_rate_limit;
      Alcotest.test_case "series forced first/last sample" `Quick
        test_series_forced_sample;
      Alcotest.test_case "check.prepare span brackets the build" `Quick
        test_prepare_span;
    ] )
