//! Thread-count invariance of the shard-parallel engine.
//!
//! The contract of PR 6's sharding: simulation results are a function of
//! [`PdhtConfig::shards`] only — `set_threads` is a pure executor knob.
//! These tests run identical sharded configurations across thread counts
//! {1, 2, 4, 8} and assert the [`SimReport`], the per-kind message totals,
//! and the index gauges are **bit-for-bit identical** (floats compared
//! exactly: the merge barriers fix a total order, so not a single
//! operation may reorder). `golden_accounting.rs` pins the one-lane
//! `shards = 1` engine against its pre-sharding vectors the same way.

use pdht_core::{
    GossipCodec, LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, SimReport, Strategy,
    TtlPolicy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_types::MessageKind;
use proptest::prelude::*;

/// A busy sharded configuration: churn, TTL eviction, and queries all on.
fn sharded_cfg(strategy: Strategy, shards: u32, seed: u64) -> PdhtConfig {
    let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
    cfg.seed = seed;
    cfg.latency = LatencyConfig::Zero;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.shards = shards;
    cfg
}

/// Runs `rounds` rounds at `threads` workers and returns everything an
/// experiment would read off the engine.
fn run(cfg: PdhtConfig, threads: usize, rounds: u64) -> (SimReport, Vec<u64>, usize, u64) {
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.set_threads(threads);
    assert_eq!(net.threads(), threads.max(1));
    net.run(rounds);
    let totals = net.metrics().totals();
    let by_kind: Vec<u64> = MessageKind::ALL.iter().map(|&k| totals[k]).collect();
    (net.report(0, rounds - 1), by_kind, net.indexed_keys(), net.events_dispatched())
}

fn assert_thread_invariant(cfg: PdhtConfig, rounds: u64) {
    let baseline = run(cfg.clone(), 1, rounds);
    for threads in [2usize, 4, 8] {
        let other = run(cfg.clone(), threads, rounds);
        assert_eq!(
            other, baseline,
            "threads={threads} diverged from threads=1 (shards={})",
            cfg.shards
        );
    }
}

#[test]
fn partial_four_shards_is_thread_invariant() {
    assert_thread_invariant(sharded_cfg(Strategy::Partial, 4, 0x5a4d), 20);
}

#[test]
fn index_all_four_shards_is_thread_invariant() {
    assert_thread_invariant(sharded_cfg(Strategy::IndexAll, 4, 0x5a4d), 20);
}

#[test]
fn no_index_four_shards_is_thread_invariant() {
    // No overlay: queries stay origin-local, every shard walks its own
    // broadcast searches.
    assert_thread_invariant(sharded_cfg(Strategy::NoIndex, 4, 0x5a4d), 10);
}

#[test]
fn odd_shard_counts_are_thread_invariant() {
    // 3 shards ⇒ uneven ranges and group splits; 7 ⇒ more shards than some
    // group counts divide evenly into.
    assert_thread_invariant(sharded_cfg(Strategy::Partial, 3, 0x0dd5), 12);
    assert_thread_invariant(sharded_cfg(Strategy::Partial, 7, 0x0dd7), 12);
}

#[test]
fn adaptive_ttl_is_thread_invariant() {
    // The adaptive controller reads counter deltas at the serial
    // bookkeeping barrier; its TTL trajectory must not depend on workers.
    let mut cfg = sharded_cfg(Strategy::Partial, 4, 0xada9);
    cfg.ttl_policy = TtlPolicy::Adaptive { target_hit_rate: 0.7 };
    assert_thread_invariant(cfg, 25);
}

#[test]
fn nonzero_latency_is_thread_invariant() {
    // In-flight arrivals and timeouts ride the per-shard lane queues; the
    // drain order inside a lane is (time, seq), untouched by the pool.
    let mut cfg = sharded_cfg(Strategy::Partial, 4, 0x1a7e);
    cfg.latency = LatencyConfig::Uniform { lo_ms: 50.0, hi_ms: 400.0 };
    cfg.query_timeout_secs = Some(1.5);
    assert_thread_invariant(cfg, 15);
}

#[test]
fn every_overlay_is_thread_invariant() {
    for kind in OverlayKind::ALL {
        let mut cfg = sharded_cfg(Strategy::Partial, 4, 0x0ae8);
        cfg.overlay = kind;
        assert_thread_invariant(cfg, 10);
    }
}

#[test]
fn updates_in_flight_gauge_is_thread_invariant() {
    // With hop delays comparable to the round length, update waves park in
    // the per-lane slabs between rounds. The gauge must (a) actually go
    // nonzero — the sharded path keeps updates in flight, not silently
    // dropped at the barrier — and (b) trace identically at every thread
    // count, since it sums engine + lane slabs whose contents are fixed by
    // the deterministic lane schedule.
    let mut cfg = sharded_cfg(Strategy::IndexAll, 4, 0xf1e7);
    cfg.scenario.f_upd = 0.01;
    cfg.latency = LatencyConfig::Uniform { lo_ms: 300.0, hi_ms: 900.0 };
    let gauge_trace = |threads: usize| {
        let mut net = PdhtNetwork::new(cfg.clone()).expect("network builds");
        net.set_threads(threads);
        let mut trace = Vec::with_capacity(20);
        for _ in 0..20 {
            net.step_round();
            trace.push(net.updates_in_flight());
        }
        trace
    };
    let baseline = gauge_trace(1);
    assert!(
        baseline.iter().any(|&g| g > 0),
        "sub-second waves at 1s rounds must span rounds: {baseline:?}"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            gauge_trace(threads),
            baseline,
            "threads={threads} changed the updates_in_flight trace"
        );
    }
}

#[test]
fn coded_gossip_is_thread_invariant_under_churn_and_latency() {
    // The coded waves keep per-member decoder state inside the wave (owned
    // by one lane, handed off whole), so rank tests, coefficient draws and
    // the innovative/redundant split must replay identically at any worker
    // count — even with Gnutella churn flipping members offline mid-wave
    // and non-zero hop latency parking waves across rounds. `f_upd` is
    // cranked so the 15-round window actually carries waves.
    for codec in [GossipCodec::Chunked, GossipCodec::Rlnc] {
        let mut cfg = sharded_cfg(Strategy::IndexAll, 4, 0xc0dec);
        cfg.scenario.f_upd = 0.01;
        cfg.gossip_codec = codec;
        cfg.latency = LatencyConfig::Uniform { lo_ms: 50.0, hi_ms: 400.0 };
        let (report, ..) = run(cfg.clone(), 1, 15);
        assert!(
            report.gossip_innovative > 0,
            "{codec:?}: run must classify receives, not pass vacuously: {report:?}"
        );
        assert_thread_invariant(cfg, 15);
    }
}

#[test]
fn sharded_run_still_does_real_work() {
    // Guard against the invariance tests passing vacuously on an engine
    // that stopped issuing queries.
    let (report, by_kind, indexed, dispatched) =
        run(sharded_cfg(Strategy::Partial, 4, 0x5a4d), 4, 20);
    assert!(report.msgs_per_round > 0.0, "no traffic: {report:?}");
    assert!(by_kind.iter().sum::<u64>() > 0);
    assert!(indexed > 0, "queries must populate the index");
    assert!(dispatched > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, any shard count in 2..=8, any strategy: threads 1 and 4
    /// produce the identical report and accounting.
    #[test]
    fn any_seed_is_thread_invariant(
        seed in any::<u64>(),
        shards in 2u32..=8,
        strategy_pick in 0usize..3,
    ) {
        let strategy =
            [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex][strategy_pick];
        let cfg = sharded_cfg(strategy, shards, seed);
        let a = run(cfg.clone(), 1, 8);
        let b = run(cfg, 4, 8);
        prop_assert_eq!(a, b);
    }
}
