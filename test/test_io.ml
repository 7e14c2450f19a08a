(* Tests for the post-silicon QED checker: duplicate transactions replayed
   online against a simulated design. *)

(* ---- post-silicon QED ---- *)

let test_post_silicon_clean () =
  let r =
    Aqed.Post_silicon.run ~seed:5 ~transactions:60
      (fun () -> Hls.Codegen.to_rtl Accel.Gsm.program)
  in
  Alcotest.(check bool) "no mismatch on clean design" true
    (r.Aqed.Post_silicon.mismatch = None);
  Alcotest.(check int) "all transactions ran" 60 r.Aqed.Post_silicon.transactions;
  Alcotest.(check bool) "duplicates exercised" true
    (r.Aqed.Post_silicon.duplicates_checked > 5)

let test_post_silicon_catches_stale_operand () =
  (* The stale-operand bug triggers under backpressure; the online FC check
     flags the replayed operand whose output changed. *)
  let r =
    Aqed.Post_silicon.run ~seed:5 ~transactions:300
      ~backpressure_probability:0.3
      (fun () ->
        Hls.Codegen.to_rtl ~bug:(Hls.Codegen.Stale_operand "x")
          Accel.Gsm.program)
  in
  match r.Aqed.Post_silicon.mismatch with
  | Some m ->
    Alcotest.(check bool) "outputs differ" true
      (m.Aqed.Post_silicon.first_output <> m.Aqed.Post_silicon.dup_output)
  | None -> Alcotest.fail "stale-operand bug not caught online"

let test_post_silicon_deterministic () =
  let run () =
    Aqed.Post_silicon.run ~seed:42 ~transactions:50
      (fun () -> Hls.Codegen.to_rtl Accel.Gsm.program)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same cycles" a.Aqed.Post_silicon.cycles
    b.Aqed.Post_silicon.cycles;
  Alcotest.(check int) "same duplicates" a.Aqed.Post_silicon.duplicates_checked
    b.Aqed.Post_silicon.duplicates_checked

let suite =
  ( "io",
    [
      Alcotest.test_case "post-silicon clean" `Quick test_post_silicon_clean;
      Alcotest.test_case "post-silicon catches bug" `Quick test_post_silicon_catches_stale_operand;
      Alcotest.test_case "post-silicon deterministic" `Quick test_post_silicon_deterministic;
    ] )
