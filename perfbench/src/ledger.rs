//! The per-layer ledger: direct timed calls into each layer crate's public
//! functions, on inputs shaped like the workload being traced.
//!
//! Each entry is the median, over `BATCHES` batches of `BATCH` wall time,
//! of nanoseconds per unit of work (a message, a sample, a call).

use pdht_gossip::{Decoder, GossipCodec, ReplicaGroup, WavePool};
use pdht_overlay::{
    ChordOverlay, ChurnConfig, ChurnModel, HopOutcome, KademliaOverlay, Overlay, TrieOverlay,
};
use pdht_sim::{
    merge_outboxes_into, EventQueue, LatencyModel, LogNormalLatency, MergeBuffers, Metrics, Outbox,
    ShardPool, Slab, VisitSet,
};
use pdht_types::{mix64, Key, Liveness, MessageKind, PeerId, SimTime};
use pdht_unstructured::{RandomWalk, Topology, WalkWave};
use pdht_workload::QueryWorkload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(60);
/// Replication factor of Table 1 (replica-group size).
const REPL: usize = 50;
/// Walkers per search, as the engine runs them.
const WALKERS: usize = 16;

/// The workload properties the ledger's inputs are shaped by.
pub struct Shape {
    /// Total population (query origins, churn).
    pub peers: usize,
    /// Active (structured) peers: the overlays' size.
    pub active: usize,
    /// Distinct keys the workload queries.
    pub keys: usize,
    /// Zipf exponent of the query popularity.
    pub alpha: f64,
    /// Per-peer query frequency (1/s).
    pub f_qry: f64,
    /// Events resident on the scheduler while the workload runs.
    pub resident_events: usize,
    /// Contexts parked in flight while the workload runs.
    pub inflight: usize,
    /// Lanes whose outboxes a barrier merges.
    pub shards: usize,
}

/// One ledger entry: `(metric name, unit, value)`.
pub type Entry = (&'static str, &'static str, f64);

/// Runs every ledger measurement; `seed` drives all of their inputs.
pub fn measure(shape: &Shape, seed: u64) -> Vec<Entry> {
    let mut rng = SmallRng::seed_from_u64(mix64(seed, 0x1ed9e7));
    let availability = ChurnConfig::gnutella_like().availability();
    let mut out = vec![
        ("unstructured.walk_step_ns.1m", "ns", walk_step_ns(1_000_000, availability, &mut rng)),
        ("unstructured.walk_step_ns.100k", "ns", walk_step_ns(100_000, availability, &mut rng)),
        ("gossip.push_ns_per_msg.rlnc_sparse_g32", "ns", push_ns(availability, &mut rng)),
        ("gossip.flood_ns_per_msg", "ns", flood_ns(availability, &mut rng)),
        ("gossip.gf_axpy_ns.32B", "ns", axpy_ns(32, &mut rng)),
        ("gossip.gf_axpy_ns.1024B", "ns", axpy_ns(1024, &mut rng)),
        ("gossip.decoder_insert_ns.g32", "ns", decoder_insert_ns(32, &mut rng)),
    ];
    let live = liveness(shape.active, availability, &mut rng);
    let trie = TrieOverlay::build(shape.active, REPL, &mut rng).expect("trie builds");
    out.push(("overlay.next_hop_ns.trie", "ns", next_hop_ns(&trie, &live, &mut rng)));
    let chord = ChordOverlay::build(shape.active, REPL, &mut rng).expect("chord builds");
    out.push(("overlay.next_hop_ns.chord", "ns", next_hop_ns(&chord, &live, &mut rng)));
    let kad = KademliaOverlay::build(shape.active, REPL, &mut rng).expect("kademlia builds");
    out.push(("overlay.next_hop_ns.kademlia", "ns", next_hop_ns(&kad, &live, &mut rng)));
    out.extend([
        ("overlay.churn_ns_per_transition", "ns", churn_ns(shape.peers, &mut rng)),
        ("sim.wheel_hold_ns", "ns", wheel_hold_ns(shape.resident_events.max(1))),
        ("sim.slab_ns", "ns", slab_ns(shape.inflight)),
        ("sim.latency_sample_ns", "ns", latency_sample_ns(&mut rng)),
        ("sim.merge_ns_per_msg", "ns", merge_ns(shape.shards.max(2))),
        ("sim.pool_dispatch_us", "us", pool_dispatch_us()),
        ("workload.query_gen_ns", "ns", query_gen_ns(shape, &mut rng)),
    ]);
    out
}

/// Median ns per unit of work over the batches; `f` does some work and
/// returns how many units it did.
fn ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    f(); // warm caches and pools before timing
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let mut units = 0u64;
            while t.elapsed() < BATCH {
                units += f();
            }
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// `n` peers, each online with probability `availability`.
fn liveness(n: usize, availability: f64, rng: &mut SmallRng) -> Liveness {
    let mut live = Liveness::all_online(n);
    for i in 0..n {
        if rng.random::<f64>() >= availability {
            live.set(PeerId::from_idx(i), false);
        }
    }
    live
}

fn count(metrics: &Metrics, kind: MessageKind) -> u64 {
    metrics.totals().sum_of(&[kind])
}

/// A walk step over `Topology::random(n, 5)` at Gnutella availability:
/// 16 walkers searching for an item nobody holds, 32 waves per search.
fn walk_step_ns(n: usize, availability: f64, rng: &mut SmallRng) -> f64 {
    let topo = Topology::random(n, 5, rng).expect("topology builds");
    let live = liveness(n, availability, rng);
    let mut scratch = VisitSet::new(n);
    let mut metrics = Metrics::new();
    let mut walk_rng = SmallRng::seed_from_u64(rng.random());
    let mut origin = 0usize;
    ns_per_unit(|| {
        origin = (origin + 7919) % n;
        while !live.is_online(PeerId::from_idx(origin)) {
            origin = (origin + 1) % n;
        }
        let before = count(&metrics, MessageKind::WalkStep);
        let start = RandomWalk::begin(
            &topo,
            PeerId::from_idx(origin),
            WALKERS,
            u64::MAX / 2,
            |_| false,
            &live,
            &mut scratch,
        );
        if let Ok(mut walk) = start {
            for _ in 0..32 {
                let wave =
                    walk.wave(&topo, |_| false, &live, &mut walk_rng, &mut metrics, &mut scratch);
                if !matches!(wave, WalkWave::InProgress) {
                    break;
                }
            }
        }
        count(&metrics, MessageKind::WalkStep) - before
    })
}

/// A replica group of `REPL` members, each online with `availability`
/// (member 0, the origin, always online).
fn group(availability: f64, rng: &mut SmallRng) -> (ReplicaGroup, Liveness) {
    let members: Vec<PeerId> = (0..REPL as u32).map(PeerId).collect();
    let group = ReplicaGroup::new(members, rng).expect("replica group builds");
    let mut live = liveness(REPL, availability, rng);
    live.set(PeerId(0), true);
    (group, live)
}

/// One coded push wave to death (`push_begin` + `push_wave`), per push.
fn push_ns(availability: f64, rng: &mut SmallRng) -> f64 {
    let (group, live) = group(availability, rng);
    let codec = GossipCodec::RlncSparse;
    let mut pool = WavePool::new();
    let mut metrics = Metrics::new();
    let mut wave_rng = SmallRng::seed_from_u64(rng.random());
    ns_per_unit(|| {
        let before = count(&metrics, MessageKind::GossipPush);
        let mut wave = group.push_begin(PeerId(0), codec, 32, |_| true, &live, &mut pool);
        while !group.push_wave(
            &mut wave,
            codec,
            |_| true,
            &live,
            &mut wave_rng,
            &mut metrics,
            &mut pool,
        ) {}
        wave.release(&mut pool);
        count(&metrics, MessageKind::GossipPush) - before
    })
}

/// One replica flood that finds nobody (`flood_begin` + `flood_wave`), per
/// flood message.
fn flood_ns(availability: f64, rng: &mut SmallRng) -> f64 {
    let (group, live) = group(availability, rng);
    let mut pool = WavePool::new();
    let mut metrics = Metrics::new();
    ns_per_unit(|| {
        let before = count(&metrics, MessageKind::ReplicaFlood);
        let mut wave = group.flood_begin(PeerId(0), |_| false, &live, &mut pool);
        while !group.flood_wave(&mut wave, |_| false, &live, &mut metrics, &mut pool) {}
        count(&metrics, MessageKind::ReplicaFlood) - before
    })
}

/// One `gf_axpy` over a `len`-byte row, per call.
fn axpy_ns(len: usize, rng: &mut SmallRng) -> f64 {
    let src: Vec<u8> = (0..len).map(|_| rng.random()).collect();
    let mut dst: Vec<u8> = (0..len).map(|_| rng.random()).collect();
    ns_per_unit(|| {
        for f in 1..=255u8 {
            pdht_gossip::codec::gf_axpy(&mut dst, &src, black_box(f));
        }
        black_box(dst[0]);
        255
    })
}

/// One `Decoder::insert` of a sparse coded packet at generation `g`,
/// filling empty decoders to full rank, per insert.
fn decoder_insert_ns(g: usize, rng: &mut SmallRng) -> f64 {
    let source = Decoder::full(g);
    let packets: Vec<_> = (0..16 * g).map(|_| source.encode_sparse(rng)).collect();
    let mut next = 0usize;
    ns_per_unit(|| {
        let mut sink = Decoder::empty(g);
        let mut inserts = 0;
        while !sink.is_complete() {
            black_box(sink.insert(packets[next]));
            next = (next + 1) % packets.len();
            inserts += 1;
        }
        inserts
    })
}

/// One `Overlay::next_hop` from a random online peer towards a random key,
/// per routed hop.
fn next_hop_ns(overlay: &dyn Overlay, live: &Liveness, rng: &mut SmallRng) -> f64 {
    let n = overlay.num_active();
    let mut metrics = Metrics::new();
    let mut hop_rng = SmallRng::seed_from_u64(rng.random());
    ns_per_unit(|| {
        let before = count(&metrics, MessageKind::RouteHop);
        for _ in 0..16 {
            let mut from = PeerId::from_idx(hop_rng.random_range(0..n));
            while !live.is_online(from) {
                from = PeerId::from_idx(hop_rng.random_range(0..n));
            }
            let key = Key(hop_rng.random());
            let mut state = overlay.begin_lookup(from, key);
            while let Ok(HopOutcome::Forwarded(_)) =
                overlay.next_hop(key, &mut state, live, &mut hop_rng, &mut metrics)
            {}
        }
        count(&metrics, MessageKind::RouteHop) - before
    })
}

/// `ChurnModel::step_second_into` over the workload's population under
/// Gnutella-like churn, per session transition.
fn churn_ns(peers: usize, rng: &mut SmallRng) -> f64 {
    let mut churn = ChurnModel::new(peers, ChurnConfig::gnutella_like(), rng);
    let mut churn_rng = SmallRng::seed_from_u64(rng.random());
    let mut buf = Vec::new();
    ns_per_unit(|| {
        buf.clear();
        churn.step_second_into(&mut churn_rng, &mut buf);
        buf.len() as u64
    })
}

/// A delay in `[1 µs, 1 s]`, hashed from `i`: spread over every wheel level
/// the engine's sub-round events use.
fn hold_delay(i: u64) -> SimTime {
    SimTime::from_micros(mix64(0x5eed_d1a1, i) % 1_000_000 + 1)
}

/// `EventQueue` hold model at `resident` events: every pop immediately
/// rescheduled (`schedule_in` + `pop`), per cycle.
fn wheel_hold_ns(resident: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..resident as u64 {
        q.schedule_in(hold_delay(i), i);
    }
    let mut i = resident as u64;
    ns_per_unit(|| {
        for _ in 0..1024 {
            let ev = q.pop().expect("resident population");
            q.schedule_in(hold_delay(i), ev.event);
            i += 1;
        }
        1024
    })
}

/// The in-flight context lifecycle on a `Slab` holding `resident` parked
/// contexts: reserve, park, take, park, take, free — per lifecycle.
fn slab_ns(resident: usize) -> f64 {
    let mut slab: Slab<[u64; 8]> = Slab::new();
    for i in 0..resident as u64 {
        let id = slab.reserve();
        slab.park(id, [i; 8]);
    }
    ns_per_unit(|| {
        for _ in 0..256 {
            let id = slab.reserve();
            slab.park(id, [id; 8]);
            let ctx = slab.take(id).expect("parked");
            slab.park(id, ctx);
            black_box(slab.take(id));
            slab.free(id);
        }
        256
    })
}

/// `LatencyModel::sample_batch` of the log-normal hop model (median 40 ms,
/// σ 1), per sample.
fn latency_sample_ns(rng: &mut SmallRng) -> f64 {
    let model = LogNormalLatency::new(SimTime::from_micros(40_000), 1.0);
    let mut buf = vec![SimTime::ZERO; 1024];
    let mut lat_rng = SmallRng::seed_from_u64(rng.random());
    ns_per_unit(|| {
        model.sample_batch(&mut lat_rng, &mut buf);
        black_box(buf[0]);
        buf.len() as u64
    })
}

/// A barrier's outbox traffic over `shards` lanes: `Outbox::push` of 1024
/// messages per lane, half of them cross-lane, then `merge_outboxes_into`,
/// per message.
fn merge_ns(shards: usize) -> f64 {
    const PER_LANE: u64 = 1024;
    let mut outboxes: Vec<Outbox<u64>> = (0..shards).map(|s| Outbox::new(s as u32)).collect();
    let mut bufs: MergeBuffers<u64> = MergeBuffers::new(shards);
    ns_per_unit(|| {
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            for i in 0..PER_LANE {
                let r = mix64(s as u64, i);
                let dest = if r & 1 == 0 { s as u32 } else { ((r >> 1) % shards as u64) as u32 };
                outbox.push(dest, SimTime::from_micros(i * 977 + r % 977 + 1), r);
            }
        }
        merge_outboxes_into(outboxes.iter_mut(), &mut bufs);
        let total = bufs.total() as u64;
        for batch in bufs.batches_mut() {
            batch.clear();
        }
        total
    })
}

/// One `ShardPool::run` pass over two trivial lane tasks on 2 threads, in
/// µs per pass: the fixed cost every parallel phase pass pays.
fn pool_dispatch_us() -> f64 {
    let pool = ShardPool::new(2);
    let mut lanes = [0u64; 2];
    ns_per_unit(|| {
        for _ in 0..64 {
            pool.run(&mut lanes, |i, x| *x = x.wrapping_add(i as u64 + 1));
        }
        black_box(lanes[0]);
        64
    }) / 1e3
}

/// `QueryWorkload::round_queries_range` over the whole population, per
/// generated query.
fn query_gen_ns(shape: &Shape, rng: &mut SmallRng) -> f64 {
    let workload =
        QueryWorkload::new(shape.keys, shape.alpha, shape.peers as u32, shape.f_qry, None)
            .expect("query workload builds");
    let mut q_rng = SmallRng::seed_from_u64(rng.random());
    let mut round = 0u64;
    ns_per_unit(|| {
        round += 1;
        let queries = workload.round_queries_range(round, &mut q_rng, 0, shape.peers as u32);
        queries.len() as u64
    })
}
