(* Test runner aggregating every suite. *)

let () =
  Alcotest.run "aqed"
    [
      Test_bitvec.suite;
      Test_sat.suite;
      Test_fuzz.suite;
      Test_logic.suite;
      Test_reduce.suite;
      Test_rtl.suite;
      Test_bmc.suite;
      Test_model.suite;
      Test_components.suite;
      Test_io.suite;
      Test_batch.suite;
      Test_check.suite;
      Test_store.suite;
      Test_monitors.suite;
      Test_hls.suite;
      Test_accel.suite;
      Test_testbench.suite;
      Test_parallel.suite;
      Test_telemetry.suite;
      Test_report.suite;
      Test_mutate.suite;
      Test_serve.suite;
      Test_serve.fleet_suite;
      Test_shard.suite;
      Test_cli.suite;
    ]
