(* Entry point aggregating every suite. *)

let () =
  Alcotest.run "edb"
    [
      ("dll", Test_dll.suite);
      ("prng", Test_prng.suite);
      ("zipf", Test_zipf.suite);
      ("version-vector", Test_vv.suite);
      ("store", Test_store.suite);
      ("shard-map", Test_shard_map.suite);
      ("log", Test_log.suite);
      ("node", Test_node.suite);
      ("message", Test_message.suite);
      ("out-of-bound", Test_oob.suite);
      ("cluster", Test_cluster.suite);
      ("peer-cache", Test_peer_cache.suite);
      ("convergence", Test_convergence.suite);
      ("baselines", Test_baselines.suite);
      ("two-phase-gossip", Test_two_phase.suite);
      ("sim", Test_sim.suite);
      ("transport", Test_transport.suite);
      ("transport-seam", Test_transport_seam.suite);
      ("workload", Test_workload.suite);
      ("metrics", Test_metrics.suite);
      ("experiments", Test_experiments.suite);
      ("scenario", Test_scenario.suite);
      ("persist", Test_persist.suite);
      ("wire-v2", Test_wire_v2.suite);
      ("tokens", Test_tokens.suite);
      ("sessions", Test_sessions.suite);
      ("op-log", Test_oplog.suite);
      ("server-group", Test_server.suite);
      ("invariants", Test_invariants.suite);
      ("sharding", Test_sharding.suite);
      ("push", Test_push.suite);
      ("explorer", Test_explorer.suite);
      ("wal", Test_wal.suite);
      ("journal", Test_journal.suite);
      ("fault", Test_fault.suite);
      ("integration", Test_integration.suite);
      ("membership", Test_membership.suite);
    ]
