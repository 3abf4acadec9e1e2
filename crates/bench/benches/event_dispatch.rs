//! Benchmarks of the per-peer background-event dispatch path: the slab the
//! in-flight contexts park in, the timing-wheel scheduler against the
//! `BinaryHeap` reference backend under a steady in-flight population, and
//! whole rounds dominated by per-peer maintenance/TTL events (zero-jitter
//! vs fully jittered schedules).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_bench::sched_delay as delay;
use pdht_core::{BackgroundSchedule, PdhtConfig, PdhtNetwork, Strategy};
use pdht_model::Scenario;
use pdht_sim::{EventQueue, HeapEventQueue, ShardPool, Slab};

/// The scheduler hold model: a steady resident population of `inflight`
/// events, each pop immediately replaced by a reschedule — the shape the
/// engine's perpetual background events and in-flight messages produce.
/// This is where the wheel's O(1) beats the heap's O(log n) over the whole
/// population (the ≥2x acceptance gate of the O(active-work) refactor;
/// `sim_scale` re-measures it into `BENCH_sim_scale.json`).
fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/scheduler");
    for inflight in [10_000u64, 100_000] {
        group.bench_function(format!("wheel_hold_{inflight}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..inflight {
                q.schedule_in(delay(i), i);
            }
            let mut i = inflight;
            b.iter(|| {
                let ev = q.pop().expect("resident population");
                q.schedule_in(delay(i), ev.event);
                i += 1;
                black_box(ev.time)
            })
        });
        group.bench_function(format!("heap_hold_{inflight}"), |b| {
            let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
            for i in 0..inflight {
                q.schedule_in(delay(i), i);
            }
            let mut i = inflight;
            b.iter(|| {
                let ev = q.pop().expect("resident population");
                q.schedule_in(delay(i), ev.event);
                i += 1;
                black_box(ev.time)
            })
        });
    }
    // The threads axis: the same hold model split over 8 per-shard wheels
    // driven by the shard pool — the shape the sharded engine's lane
    // queues take. Lane state is disjoint, so the thread count is a pure
    // executor knob here too; the comparison across `t1..t8` measures the
    // pool's dispatch overhead and the hardware's actual parallelism.
    const LANES: usize = 8;
    const RESIDENT_PER_LANE: u64 = 12_500; // 100k total, as above
    const CYCLES_PER_LANE: u64 = 256;
    fn hold_lanes() -> Vec<(EventQueue<u64>, u64)> {
        (0..LANES)
            .map(|_| {
                let mut q: EventQueue<u64> = EventQueue::new();
                for i in 0..RESIDENT_PER_LANE {
                    q.schedule_in(delay(i), i);
                }
                (q, RESIDENT_PER_LANE)
            })
            .collect()
    }
    fn hold_cycle(q: &mut EventQueue<u64>, i: &mut u64) {
        for _ in 0..CYCLES_PER_LANE {
            let ev = q.pop().expect("resident population");
            q.schedule_in(delay(*i), ev.event);
            *i += 1;
        }
    }
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("wheel_hold_100000_8lanes_t{threads}"), |b| {
            let pool = ShardPool::new(threads);
            let mut lanes = hold_lanes();
            b.iter(|| {
                pool.run(&mut lanes, |_, (q, i)| hold_cycle(q, i));
                black_box(&lanes);
            })
        });
    }
    group.finish();
}

fn bench_slab(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/slab");
    // The query lifecycle: reserve at issue, park on first in-flight hop,
    // take on arrival, park again, free on resolve.
    group.bench_function("reserve_park_take_free", |b| {
        let mut slab: Slab<[u64; 8]> = Slab::with_capacity(64);
        b.iter(|| {
            let id = slab.reserve();
            slab.park(id, [id; 8]);
            let ctx = slab.take(id).expect("parked");
            slab.park(id, ctx);
            slab.take(id);
            slab.free(id);
            black_box(id)
        })
    });
    // Stale-event rejection — the generation check every recycled id pays.
    group.bench_function("stale_miss", |b| {
        let mut slab: Slab<u64> = Slab::new();
        let stale = slab.reserve();
        slab.park(stale, 1);
        slab.free(stale);
        let live = slab.reserve();
        slab.park(live, 2);
        b.iter(|| black_box(slab.take(black_box(stale))))
    });
    group.finish();
}

/// A round at the unit-test scale whose work is dominated by the per-peer
/// background events (no queries: `fQry = 0`), isolating event dispatch
/// from the query pipeline.
fn background_only_net(schedule: BackgroundSchedule) -> PdhtNetwork {
    let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 0.0, Strategy::IndexAll);
    cfg.background = schedule;
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.run(5);
    net
}

fn bench_background_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/background_round");
    group.sample_size(20);
    group.bench_function("phase_aligned", |b| {
        let mut net = background_only_net(BackgroundSchedule::default());
        b.iter(|| {
            net.step_round();
            black_box(net.next_round())
        })
    });
    group.bench_function("jittered", |b| {
        let mut net = background_only_net(BackgroundSchedule {
            maintenance_jitter_us: 900_000,
            ttl_jitter_us: 900_000,
        });
        b.iter(|| {
            net.step_round();
            black_box(net.next_round())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_slab, bench_scheduler, bench_background_round);
criterion_main!(benches);
