//! Benchmarks of whole rounds dominated by the background-event load —
//! per-peer maintenance ticks, TTL sweeps, and gossip-push update waves,
//! with queries off (`fQry = 0`) so the query pipeline contributes
//! nothing. Every event dispatches on a lane queue inside the lane passes
//! and only the six phase markers stay global: at `shards = 1` one lane
//! drains every peer's events, at `shards = 8` each lane drains its own
//! peers'. The shards axis therefore compares one lane with eight (same
//! population, same schedules), measured at 10k and 100k peers.
//!
//! Thread count is left at the criterion host's discretion via
//! `set_threads`: the 1-thread rows isolate the lane bookkeeping overhead,
//! the 8-thread rows add the pool's actual parallelism (one worker per
//! lane at `shards = 8`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_core::{BackgroundSchedule, PdhtConfig, PdhtNetwork, Strategy, TtlPolicy};
use pdht_model::Scenario;

/// A background-only network at `num_peers`: Table-1 shape, no queries,
/// ≈2 article replacements per round (2 000 articles × `f_upd` = 1/1000)
/// driving route + gossip waves (IndexAll), bounded TTL with sweeps every
/// 8 rounds, and every peer's maintenance/TTL tick jittered to its own
/// instant. Warmed for 5 rounds so slabs, wheels and index stores reach
/// steady state before timing.
fn background_net(num_peers: u32, shards: u32, threads: usize) -> PdhtNetwork {
    let mut scenario = Scenario { num_peers, ..Scenario::table1() };
    scenario.f_upd = 1.0 / 1_000.0;
    scenario.validate().expect("valid background scenario");
    let mut cfg = PdhtConfig::new(scenario, 0.0, Strategy::IndexAll);
    cfg.seed = 0xbac6;
    cfg.ttl_policy = TtlPolicy::Fixed(200);
    cfg.purge_stride = 8;
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    cfg.shards = shards;
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.set_threads(threads);
    net.run(5);
    net
}

fn bench_background_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("background_dispatch/round");
    group.sample_size(10);
    for peers in [10_000u32, 100_000] {
        for (shards, threads) in [(1u32, 1usize), (8, 1), (8, 8)] {
            group.bench_function(format!("{peers}p_s{shards}_t{threads}"), |b| {
                let mut net = background_net(peers, shards, threads);
                b.iter(|| {
                    net.step_round();
                    black_box(net.next_round())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_background_dispatch);
criterion_main!(benches);
