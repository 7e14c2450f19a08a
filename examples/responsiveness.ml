(* Response-bound (RB) checking on the dataflow design (Table 2's RB rows):
   an undersized-credit pipeline drops an element under backpressure, so one
   input's output never appears. The hang is invisible to a casual
   simulation (the design keeps accepting inputs!) but violates Def. 3 and
   A-QED finds a short trace.

     dune exec examples/responsiveness.exe *)

let () = print_endline "=== responsiveness (RB) checking ==="

(* The correct pipeline is responsive with bound tau. *)
let () =
  print_endline "\n-- correct pipeline --";
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:12 ~tau:Accel.Dataflow.tau
         (fun () -> Accel.Dataflow.build ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report r

(* The buggy pipeline: one credit too many. *)
let () =
  print_endline "\n-- buggy pipeline (credit counter oversized by one) --";
  let r =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_rb ~max_depth:16 ~tau:Accel.Dataflow.tau
         (fun () -> Accel.Dataflow.build ~bug:true ()))
  in
  Format.printf "  %a@." Aqed.Check.pp_report r;
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug trace ->
    Format.printf "%a@." Bmc.Trace.pp trace
  | Aqed.Check.No_bug_up_to _ -> ()

(* Demonstrate the same loss at the transaction level: feed a burst with a
   stalled host and count the outputs that come back. *)
let () =
  print_endline "\n-- transaction-level demonstration --";
  let show bug =
    let iface = Accel.Dataflow.build ~bug () in
    let h = Aqed.Harness.create iface in
    (* The host stalls for the first 6 cycles, then drains. *)
    let outs =
      Aqed.Harness.run ~host_ready:(fun cyc -> cyc >= 6) ~max_cycles:100 h
        (List.map (fun d -> Aqed.Harness.txn d) [ 1; 2; 3; 4 ])
    in
    Printf.printf "  %s design: sent 4, received %d %s\n"
      (if bug then "buggy  " else "correct")
      (List.length outs)
      (if List.length outs < 4 then "<- an output is gone forever" else "")
  in
  show false;
  show true
