let () =
  Alcotest.run "sud"
    [ ("sim", Test_sim.suite);
      ("hw", Test_hw.suite);
      ("kernel", Test_kernel.suite);
      ("uchan", Test_uchan.suite);
      ("core", Test_core.suite);
      ("smoke", Test_smoke.suite); ("security", Test_security.suite); ("devices", Test_devices.suite); ("drivers", Test_drivers.suite); ("supervisor", Test_supervisor.suite); ("props", Test_props.suite); ("obs", Test_obs.suite);
      ("hardening", Test_hardening.suite);
      ("blk", Test_blk.suite);
      ("bench_schema", Test_json.suite);
      ("conformance", Test_conformance.suite);
      ("ctl", Test_ctl.suite);
      ("standby", Test_standby.suite);
      ("check", Test_check.suite);
      ("fingerprint", Test_fingerprint.suite) ]
