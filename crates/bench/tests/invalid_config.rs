//! Simulation bins reject configurations the engine cannot build through
//! the same usage path as malformed flags: exit code 2 and a message on
//! stderr, never a panic with a backtrace.

use std::process::Command;

#[test]
fn sim_scale_rejects_populations_below_the_replication_factor() {
    // Table 1 replicates every article 50 times, so these populations are
    // rejected by scenario validation (the shard count is capped by the
    // population, so 17 shards over 17 peers is fine on its own).
    for args in [&["--peers", "2"][..], &["--peers", "3"], &["--peers", "17", "--shards", "17"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_sim_scale"))
            .args(args)
            .output()
            .expect("sim_scale starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} must not panic: {stderr}");
        assert!(stderr.contains("invalid configuration"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must print the usage line: {stderr}");
    }
}
