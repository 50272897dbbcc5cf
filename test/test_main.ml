let () =
  Alcotest.run "sgxbounds"
    [
      ("machine", Test_machine.suite);
      ("vmem", Test_vmem.suite);
      ("cache", Test_cache.suite);
      ("sgx", Test_sgx.suite);
      ("loader", Test_loader.suite);
      ("alloc", Test_alloc.suite);
      ("sgxbounds", Test_sgxbounds.suite);
      ("asan", Test_asan.suite);
      ("mpx", Test_mpx.suite);
      ("baggy", Test_baggy.suite);
      ("libc", Test_libc.suite);
      ("scone", Test_scone.suite);
      ("mt", Test_mt.suite);
      ("ripe", Test_ripe.suite);
      ("workloads", Test_workloads.suite);
      ("deep-kernels", Test_deep_kernels.suite);
      ("apps", Test_apps.suite);
      ("harness", Test_harness.suite);
      ("telemetry", Test_telemetry.suite);
      ("service", Test_service.suite);
      ("fex", Test_fex.suite);
      ("tsv", Test_tsv.suite);
      ("narrowing", Test_narrowing.suite);
      ("differential", Test_differential.suite);
      ("fastpath", Test_fastpath.suite);
      ("fuzz", Test_fuzz.suite);
      ("analysis", Test_analysis.suite);
      ("symex", Test_symex.suite);
      ("optimizer", Test_optimizer.suite);
      ("ripe-golden", Test_ripe_golden.suite);
      ("sink-golden", Test_sink_golden.suite);
      ("profile", Test_profile.suite);
      ("ycsb", Test_ycsb.suite);
      ("fleet", Test_fleet.suite);
    ]
