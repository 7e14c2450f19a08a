(* The A-QED/HLS integration on the abstracted AES accelerator (Table 2):

   - the cipher is written once in the high-level language,
   - HLS schedules it and emits ready/valid RTL,
   - the A-QED wrapper is generated automatically, customized with the
     batch-shared key (Sec. IV.B),
   - buggy builds v1..v4 are detected by FC; the correct build is clean.

     dune exec examples/hls_aes.exe *)

let () =
  print_endline "=== AES through the HLS + A-QED flow ===";
  Printf.printf "schedule depth: %d stages; recommended tau: %d\n"
    (Hls.Schedule.depth Accel.Aes.program)
    Accel.Aes.tau

(* Functional sanity: RTL vs the interpreter reference. *)
let () =
  print_endline "\n-- simulation vs reference --";
  let key = 0xA7 in
  let iface = Accel.Aes.build () in
  let h = Aqed.Harness.create iface in
  Rtl.Sim.set_input_int (Aqed.Harness.sim h) "key" key;
  let blocks = [ 0x00; 0x42; 0xFF ] in
  let outs =
    Aqed.Harness.run h (List.map (fun d -> Aqed.Harness.txn d) blocks)
  in
  List.iter2
    (fun b o ->
      Printf.printf "  AES(block=0x%02x, key=0x%02x) = 0x%02x (reference 0x%02x)\n"
        b key o
        (Accel.Aes.reference ~block:b ~key))
    blocks outs

(* A-QED with the shared-key customization. *)
let () =
  print_endline "\n-- A-QED functional consistency --";
  let clean =
    Aqed.Check.run_obligation
      (Aqed.Check.prepare_fc ~max_depth:10 ~shared:Accel.Aes.shared_key
         (fun () -> Accel.Aes.build ()))
  in
  Format.printf "  correct build: %a@." Aqed.Check.pp_report clean;
  List.iter
    (fun version ->
      let r =
        Aqed.Check.run_obligation
          (Aqed.Check.prepare_fc ~max_depth:18 ~shared:Accel.Aes.shared_key
             (fun () -> Accel.Aes.build ~version ()))
      in
      Format.printf "  buggy v%d:      %a@." version Aqed.Check.pp_report r)
    [ 1; 2; 3; 4 ]
