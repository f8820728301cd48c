let () =
  Alcotest.run "rr_repro"
    (Test_isa.suites @ Test_kernel.suites @ Test_trace.suites @ Test_trace_store.suites @ Test_rr.suites @ Test_debugger.suites @ Test_workloads.suites @ Test_sched.suites
     @ Test_syscallbuf.suites @ Test_kernel_edge.suites @ Test_telemetry.suites
     @ Test_timeline.suites
     @ Test_exec.suites @ Test_diagnostics.suites @ Test_fault.suites
     @ Test_repo.suites @ Test_flight.suites
     @ Test_gdbstub.suites @ Test_query.suites @ Test_identity.suites)
