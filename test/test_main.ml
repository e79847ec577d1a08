let () =
  Alcotest.run "dpa"
    [ ("util", Test_util.suite);
      ("par", Test_par.suite);
      ("logic", Test_logic.suite);
      ("blif", Test_blif.suite);
      ("bdd", Test_bdd.suite);
      ("synth", Test_synth.suite);
      ("domino", Test_domino.suite);
      ("power", Test_power.suite);
      ("seq", Test_seq.suite);
      ("phase", Test_phase.suite);
      ("timing", Test_timing.suite);
      ("sim", Test_sim.suite);
      ("compiled", Test_compiled.suite);
      ("workload", Test_workload.suite);
      ("corpus", Test_corpus.suite);
      ("core", Test_core.suite);
      ("golden", Test_golden.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("service", Test_service.suite);
      ("rescache", Test_rescache.suite);
      ("edge-cases", Test_edge_cases.suite) ]
