//! The lane schedule: every round runs on `S` execution lanes.
//!
//! [`crate::PdhtConfig::shards`] partitions the peer population into `S`
//! contiguous origin ranges and the replica groups into `S` group ranges;
//! each shard owns a [`LaneState`] — its slice of the peer stores, its own
//! RNG streams, admission filter, in-flight slabs, and virtual-time event
//! queue — and the whole round runs lane-parallel on a persistent
//! [`pdht_sim::ShardPool`]. `S = 1` is one lane, not a separate engine:
//!
//! * The engine's global queue carries only the six phase markers; every
//!   background event (maintenance tick, TTL sweep, gossip wave) and every
//!   in-flight message lives on the owning lane's queue.
//! * After each phase's serial work, [`PdhtNetwork::lane_pass`] drains the
//!   lanes up to the next phase instant: maintenance ticks fire after the
//!   `OverlayMaintenance` marker, TTL sweeps after `PurgeExpired`, dealt
//!   update propagations after `ContentUpdates`, and the merged query
//!   batches after `Queries` — preserving the
//!   [`super::engine::HookPoint::BeforePhase`] seams.
//! * Cross-lane traffic (queries addressed to another shard's replica
//!   group, update propagations advancing to a key another shard owns)
//!   rides per-lane outboxes merged at an allocation-free barrier into the
//!   `(time, src, seq)` total order — deterministic regardless of which
//!   thread produced what when. A pass loops merge → drain until every
//!   outbox is quiescent.
//! * Maintenance ticks *plan* repairs against the shared routing tables
//!   ([`pdht_overlay::Overlay::maintenance_plan`]); the barrier applies
//!   each lane's plan serially in lane order, so the tables stay immutable
//!   while workers route through them.
//!
//! Results depend only on `S` — the thread count just decides how many
//! workers pull lane tasks off the pool — so any `--threads` value yields
//! bit-identical output for a fixed configuration. Cross-shard reads
//! (overlay routing tables, liveness, topology, content placement) are
//! immutable during a pass; cross-shard *writes* cannot occur because
//! store shard = replica-group shard at every insert site and everything
//! else rides the outboxes.

use super::engine::{Counters, NetEvent, PdhtNetwork, QUERIES_OFFSET_US};
use super::maintenance::UpdateCtx;
use super::peer::{ShardStores, StoreShard};
use super::routing::{QueryCtx, QueryExec, QueryLane, QueryWorld};
use crate::admission::{AdmissionFilter, AdmissionPolicy};
use pdht_gossip::WavePool;
use pdht_overlay::{Overlay, PlanScratch, Repair};
use pdht_sim::{
    merge_outboxes_into, EventQueue, MergeBuffers, Metrics, Outbox, ShardPool, Slab, VisitSet,
};
use pdht_types::{PeerId, RngStreams, Round, SimTime};
use pdht_workload::updates::Replacement;
use pdht_workload::Query;
use rand::rngs::SmallRng;
use std::time::Instant;

/// A unit of cross-lane traffic: a freshly generated query or a replaced
/// article dealt to the shard owning its key's replica group, or an
/// update-propagation context handed to the shard owning its next key.
pub(crate) enum LaneMsg {
    Query(Query),
    /// A replaced article whose propagation the destination lane starts
    /// (drawing the entry peer on its own overlay stream at delivery).
    Replaced(Replacement),
    Update(UpdateCtx),
}

/// One shard's exclusively-owned execution state. Everything a
/// [`QueryLane`] borrows, plus the workload stream used by the generate
/// pass.
pub(crate) struct LaneState {
    pub(crate) rng_workload: SmallRng,
    pub(crate) rng_overlay: SmallRng,
    pub(crate) rng_search: SmallRng,
    pub(crate) rng_latency: SmallRng,
    /// Lane-private metrics, merged into the engine by
    /// [`PdhtNetwork::fold_lanes`].
    pub(crate) metrics: Metrics,
    /// Lane-private outcome counters, merged by the same fold.
    pub(crate) counters: Counters,
    pub(crate) admission: AdmissionFilter,
    pub(crate) scratch: VisitSet,
    /// Recyclable flood/rumor wave scratch owned by this lane.
    pub(crate) waves: WavePool,
    pub(crate) inflight: Slab<QueryCtx>,
    /// In-flight update propagations whose current key this shard owns.
    pub(crate) updates_inflight: Slab<UpdateCtx>,
    /// Lane-local virtual-time queue carrying this shard's background
    /// events and in-flight message arrivals/timeouts.
    pub(crate) events: EventQueue<NetEvent>,
    /// Cross-lane traffic produced by this shard, awaiting the merge
    /// barrier.
    pub(crate) outbox: Outbox<LaneMsg>,
    /// Routing-table repairs planned by this lane's maintenance ticks,
    /// applied serially at the pass barrier.
    pub(crate) repairs: Vec<Repair>,
    /// Reusable maintenance-plan scratch.
    pub(crate) plan: PlanScratch,
    /// Lane events dispatched, folded into the engine's global counter by
    /// the same fold.
    pub(crate) dispatched: u64,
}

/// The engine's lane state: the partition maps, one [`LaneState`] per
/// shard, the per-shard churn streams, the reusable merge buffers, and the
/// persistent worker pool.
pub(crate) struct ShardedState {
    /// Replica group → owning shard (`g * S / group_count`; empty without
    /// an overlay).
    pub(crate) group_shard: Vec<u16>,
    /// Peer → origin shard (contiguous ranges; drives workload generation,
    /// the churn calendar split, and maintenance-event placement).
    pub(crate) peer_shard: Vec<u16>,
    /// Shard → its origin range `[lo, hi)`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// One lane per shard (`S >= 1`, fixed at build).
    pub(crate) lanes: Vec<LaneState>,
    /// Per-shard churn streams, drained serially in shard order each churn
    /// phase (shard 0's also draws forced blackouts).
    pub(crate) churn_rngs: Vec<SmallRng>,
    /// Engine-side outbox (src = `S`) dealing serially created work — one
    /// replaced article per update propagation — into the lanes.
    pub(crate) deal: Outbox<LaneMsg>,
    /// Caller-owned merge buffers: the barrier is allocation-free at
    /// steady state.
    pub(crate) merge: MergeBuffers<LaneMsg>,
    /// The persistent worker pool (thread count is a pure executor knob).
    pub(crate) pool: ShardPool,
}

/// Shard `s`'s stream for `label`. A one-lane engine seeds from the plain
/// labels (`stream("workload")`, …) — the streams the simulator has always
/// drawn at `shards = 1`, which keeps every pinned single-shard vector —
/// while `S > 1` lanes take `("<label>", s)` indexed streams, so shard
/// counts, not thread counts, define the random universe.
pub(crate) fn lane_stream(streams: &RngStreams, label: &str, s: usize, shards: usize) -> SmallRng {
    if shards == 1 {
        streams.stream(label)
    } else {
        streams.indexed_stream(label, s as u64)
    }
}

impl ShardedState {
    /// Builds the partition maps and per-shard lanes for `shards >= 1`
    /// shards over `num_peers` peers.
    pub(crate) fn new(
        shards: usize,
        num_peers: u32,
        overlay: Option<&dyn Overlay>,
        streams: &RngStreams,
        admission: AdmissionPolicy,
    ) -> ShardedState {
        debug_assert!(shards >= 1 && shards <= usize::try_from(num_peers).unwrap_or(usize::MAX));
        let n = num_peers as usize;
        let ranges: Vec<(u32, u32)> = (0..shards)
            .map(|s| (((s * n) / shards) as u32, (((s + 1) * n) / shards) as u32))
            .collect();
        let mut peer_shard = vec![0u16; n];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            for p in lo..hi {
                peer_shard[p as usize] = s as u16;
            }
        }
        let group_shard: Vec<u16> = match overlay {
            Some(o) => {
                let gc = o.group_count();
                (0..gc).map(|g| ((g * shards) / gc) as u16).collect()
            }
            None => Vec::new(),
        };
        let lanes: Vec<LaneState> = (0..shards)
            .map(|s| LaneState {
                rng_workload: lane_stream(streams, "workload", s, shards),
                rng_overlay: lane_stream(streams, "overlay", s, shards),
                rng_search: lane_stream(streams, "search", s, shards),
                rng_latency: lane_stream(streams, "latency", s, shards),
                metrics: Metrics::new(),
                counters: Counters::default(),
                admission: AdmissionFilter::new(admission),
                scratch: VisitSet::new(n),
                waves: WavePool::new(),
                inflight: Slab::with_capacity(16),
                updates_inflight: Slab::with_capacity(8),
                events: EventQueue::new(),
                outbox: Outbox::new(s as u32),
                repairs: Vec::new(),
                plan: PlanScratch::new(),
                dispatched: 0,
            })
            .collect();
        let churn_rngs: Vec<SmallRng> =
            (0..shards).map(|s| lane_stream(streams, "churn-run", s, shards)).collect();
        ShardedState {
            group_shard,
            peer_shard,
            ranges,
            lanes,
            churn_rngs,
            deal: Outbox::new(shards as u32),
            merge: MergeBuffers::new(shards),
            pool: ShardPool::new(1),
        }
    }

    /// The shard owning active peer `p`'s store: its replica group's shard
    /// (so every store mutation a query performs is lane-local), or its
    /// origin shard without an overlay. TTL sweeps are seeded on this lane.
    pub(crate) fn store_shard(&self, overlay: Option<&dyn Overlay>, p: usize) -> u16 {
        match overlay {
            Some(o) => self.group_shard[o.group_of_peer(PeerId::from_idx(p))],
            None => self.peer_shard[p],
        }
    }
}

/// A drain-pass work unit: one lane zipped with its store shard and merged
/// message batch.
struct LaneTask<'a> {
    lane: &'a mut LaneState,
    store: &'a mut StoreShard,
    batch: &'a mut Vec<pdht_sim::OutMsg<LaneMsg>>,
}

impl PdhtNetwork {
    /// The query phase: a parallel generate pass deals the round's
    /// workload into the outboxes, then a [`PdhtNetwork::lane_pass`] issues
    /// the merged batches at the phase instant and drains the lanes up to
    /// `deadline`.
    pub(crate) fn phase_queries(
        &mut self,
        round: u64,
        deadline: SimTime,
        advance: Option<SimTime>,
    ) {
        let t_q = Round(round).start() + SimTime::from_micros(QUERIES_OFFSET_US);

        // Generate (parallel): each shard draws its origin range's workload
        // and deals queries to the shard owning the key's replica group
        // (its own shard without an overlay: NoIndex broadcasts are
        // origin-local).
        let t0 = self.phase_timers.is_some().then(Instant::now);
        {
            let workload = &self.workload;
            let keys = &self.keys;
            let overlay = self.overlay.as_deref();
            let st = &mut self.sharded;
            let group_shard: &[u16] = &st.group_shard;
            let ranges: &[(u32, u32)] = &st.ranges;
            st.pool.run(&mut st.lanes, |s, lane| {
                let (lo, hi) = ranges[s];
                for q in workload.round_queries_range(round, &mut lane.rng_workload, lo, hi) {
                    let dest = match overlay {
                        Some(o) => u32::from(group_shard[o.group_of_key(keys[q.key_index])]),
                        None => s as u32,
                    };
                    lane.outbox.push(dest, t_q, LaneMsg::Query(q));
                }
            });
        }
        if let (Some(t0), Some(tm)) = (t0, self.phase_timers.as_mut()) {
            tm.queries += t0.elapsed();
        }

        self.lane_pass(deadline, advance, true);
    }

    /// Runs one parallel drain pass over every lane: merge the outboxes
    /// (and the engine's deal box) into the `(time, src, seq)` total
    /// order, deliver each shard's batch with per-message clock clamping
    /// (`max(msg.time, lane now)`), drain lane events due by `deadline`,
    /// then apply the planned routing-table repairs serially in lane
    /// order. Loops until every outbox is quiescent — cross-lane waves
    /// (update handoffs) settle within the pass. `advance` parks every
    /// lane clock afterwards (the round boundary on the final pass).
    pub(crate) fn lane_pass(
        &mut self,
        deadline: SimTime,
        advance: Option<SimTime>,
        queries_bucket: bool,
    ) {
        let timing = self.phase_timers.is_some();
        let mut pool_time = std::time::Duration::ZERO;
        let mut barrier_time = std::time::Duration::ZERO;
        let mut first = true;
        let st = &mut self.sharded;
        loop {
            let t0 = timing.then(Instant::now);
            {
                let ShardedState { lanes, deal, merge, .. } = &mut *st;
                // The deal box is chained unconditionally: it is only
                // non-empty on the first iteration after the content-update
                // phase and drains like any lane outbox.
                merge_outboxes_into(
                    lanes.iter_mut().map(|l| &mut l.outbox).chain(std::iter::once(deal)),
                    merge,
                );
            }
            if let Some(t0) = t0 {
                barrier_time += t0.elapsed();
            }
            let have_msgs = st.merge.total() > 0;
            if !have_msgs && !first {
                break;
            }
            let work = have_msgs
                || st.lanes.iter().any(|l| l.events.peek_time().is_some_and(|t| t <= deadline));
            if work {
                let (slot, store_shards) = self.peers.split_mut();
                let world = QueryWorld {
                    overlay: self.overlay.as_deref(),
                    live: self.churn.liveness(),
                    topo: &self.topo,
                    content: &self.content,
                    updates: &self.updates,
                    groups: &self.groups,
                    keys: &self.keys,
                    article_of: &self.article_of,
                    latency: self.latency.as_ref(),
                    keys_by_article: &self.keys_by_article,
                    group_shard: &st.group_shard,
                    strategy: self.cfg.strategy,
                    walkers: self.cfg.walkers,
                    walk_budget: u64::from(self.cfg.walk_budget_factor)
                        * u64::from(self.cfg.scenario.num_peers),
                    nap: self.nap,
                    ttl_rounds: self.ttl_rounds,
                    probe_rate: self.probe_rate,
                    purge_stride: self.cfg.purge_stride,
                    query_timeout_secs: self.cfg.query_timeout_secs,
                    gossip_codec: self.cfg.gossip_codec,
                    gen_size: self.cfg.gossip_generation,
                };
                let mut tasks: Vec<LaneTask<'_>> = st
                    .lanes
                    .iter_mut()
                    .zip(store_shards.iter_mut())
                    .zip(st.merge.batches_mut().iter_mut())
                    .map(|((lane, store), batch)| LaneTask { lane, store, batch })
                    .collect();
                let t0 = timing.then(Instant::now);
                st.pool.run(&mut tasks, |s, task| {
                    let mut dispatched = 0;
                    {
                        let lane = &mut *task.lane;
                        let mut exec = QueryExec {
                            world,
                            lane: QueryLane {
                                stores: ShardStores {
                                    slot,
                                    shard_id: s as u16,
                                    shard: &mut *task.store,
                                },
                                admission: &mut lane.admission,
                                metrics: &mut lane.metrics,
                                counters: &mut lane.counters,
                                rng_overlay: &mut lane.rng_overlay,
                                rng_search: &mut lane.rng_search,
                                rng_latency: &mut lane.rng_latency,
                                scratch: &mut lane.scratch,
                                waves: &mut lane.waves,
                                inflight: &mut lane.inflight,
                                updates_inflight: &mut lane.updates_inflight,
                                events: &mut lane.events,
                                outbox: &mut lane.outbox,
                                repairs: &mut lane.repairs,
                                plan: &mut lane.plan,
                            },
                        };
                        for msg in task.batch.drain(..) {
                            // A handed-off context can carry a timestamp
                            // behind this lane's clock; deliveries clamp
                            // forward (never backward — the merge order is
                            // already fixed).
                            let at = msg.time.max(exec.lane.events.now());
                            dispatched += exec.drain_until(at);
                            exec.lane.events.advance_to(at);
                            exec.deliver(msg.payload, at.round().0);
                        }
                        dispatched += exec.drain_until(deadline);
                    }
                    task.lane.dispatched += dispatched;
                });
                if let Some(t0) = t0 {
                    pool_time += t0.elapsed();
                }
            }
            // Serial barrier: apply each lane's planned repairs in lane
            // order — the only routing-table mutation between phases.
            if st.lanes.iter().any(|l| !l.repairs.is_empty()) {
                let t0 = timing.then(Instant::now);
                let live = self.churn.liveness();
                let o = self.overlay.as_deref_mut().expect("maintenance repairs imply an overlay");
                for lane in &mut st.lanes {
                    if !lane.repairs.is_empty() {
                        o.maintenance_apply(&lane.repairs, live);
                        lane.repairs.clear();
                    }
                }
                if let Some(t0) = t0 {
                    barrier_time += t0.elapsed();
                }
            }
            if !work {
                break;
            }
            first = false;
        }
        if let Some(at) = advance {
            for lane in &mut st.lanes {
                lane.events.advance_to(at);
            }
        }
        if let Some(tm) = self.phase_timers.as_mut() {
            if queries_bucket {
                tm.queries += pool_time;
            } else {
                tm.background += pool_time;
            }
            tm.barriers += barrier_time;
        }
    }

    /// Folds every lane's accounting into the engine, in shard order: the
    /// bookkeeping barrier, plus (one-lane engines) the end of the
    /// post-bookkeeping tail pass.
    pub(crate) fn fold_lanes(&mut self) {
        for lane in &mut self.sharded.lanes {
            let lane_metrics = std::mem::replace(&mut lane.metrics, Metrics::new());
            self.metrics.merge_from(&lane_metrics);
            self.counters.merge_from(&lane.counters);
            lane.counters = Counters::default();
            self.events_dispatched += lane.dispatched;
            lane.dispatched = 0;
        }
    }
}
