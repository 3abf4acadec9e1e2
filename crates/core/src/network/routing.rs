//! Query execution: the selection algorithm's full pipeline over the
//! structured and unstructured substrates (Section 5.1), run as a
//! message-granular state machine.
//!
//! Every query is a [`QueryCtx`] advancing through [`QueryStage`]s; each
//! step performs the work due at the current virtual instant and either
//! finishes the query or puts one message (or one parallel message wave)
//! in flight:
//!
//! * DHT routing forwards one hop per step
//!   ([`pdht_overlay::Overlay::next_hop`]),
//! * the replica-subnetwork flood advances one BFS frontier level per step
//!   ([`pdht_gossip::ReplicaGroup::flood_wave`]),
//! * the unstructured broadcast advances one parallel walker wave per step
//!   ([`pdht_unstructured::RandomWalk::wave`]).
//!
//! The delay of each in-flight message is drawn from the configured
//! [`crate::LatencyConfig`]. A zero delay advances the state machine
//! *inline* instead of going through the event queue — so under
//! [`crate::LatencyConfig::Zero`] every query runs to completion in issue
//! order, consuming the component RNG streams in exactly the order the
//! synchronous pipeline did, which keeps the accounting bit-for-bit
//! identical. Non-zero delays interleave queries, let them cross round
//! boundaries (observing churn and TTL expiry as they go), and populate
//! the `query_hops` / `query_latency_us` histograms.
//!
//! # Execution lanes
//!
//! The pipeline itself is written against [`QueryExec`]: a split of the
//! engine into a read-only [`QueryWorld`] (overlay, topology, liveness —
//! shared by every shard) and a mutable [`QueryLane`] (stores, RNG
//! streams, metrics, in-flight slab, event queue — exclusively owned).
//! Each lane pass in [`super::shard`] builds one exec per shard, wrapping
//! that shard's lane state, and runs them on worker threads.

use super::engine::{Counters, NetEvent, QueryId};
use super::maintenance::UpdateCtx;
use super::peer::ShardStores;
use super::shard::LaneMsg;
use crate::admission::AdmissionFilter;
use crate::config::Strategy;
use crate::ttl::Ttl;
use pdht_gossip::{FloodWave, GossipCodec, ReplicaGroup, VersionedValue, WavePool};
use pdht_overlay::{HopOutcome, LookupState, Overlay, PlanScratch, Repair};
use pdht_sim::{EventQueue, LatencyModel, Metrics, Outbox, Slab, VisitSet};
use pdht_types::{Key, Liveness, MessageKind, PeerId, SimTime};
use pdht_unstructured::{RandomWalk, Replication, SearchOutcome, Topology, WalkWave};
use pdht_workload::{Query, UpdateProcess};
use rand::rngs::SmallRng;

/// Why a broadcast search is running — determines how its outcome is
/// accounted, mirroring the three broadcast call sites of the synchronous
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WalkMode {
    /// `Strategy::NoIndex`: every query broadcasts; a success is a "miss"
    /// in index terms, a failure counts only as a search failure.
    NoIndex,
    /// The index was unreachable (no entry peer / routing dead-end): pure
    /// fallback, never inserts.
    Fallback,
    /// The index missed: a found key is (subject to admission) inserted at
    /// the responsible replicas.
    IndexMiss,
}

/// The pipeline position of an in-flight query.
enum QueryStage {
    /// Structured routing towards a responsible peer.
    Route {
        /// Resumable lookup state (one forward per step).
        lookup: LookupState,
    },
    /// Replica-subnetwork flood after a local miss (Eq. 16).
    Flood {
        /// Resumable BFS frontier (one level per step).
        flood: FloodWave,
    },
    /// Unstructured broadcast search.
    Walk {
        /// Resumable walker positions (one parallel wave per step).
        walk: RandomWalk,
        /// How to account the outcome.
        mode: WalkMode,
    },
    /// Routing the found key back towards its responsible replicas
    /// (selection algorithm's insert-on-miss; hops count as `IndexInsert`).
    InsertRoute {
        /// Resumable lookup state from the original entry peer.
        lookup: LookupState,
        /// The value to index, fixed when the broadcast resolved.
        value: VersionedValue,
    },
    /// Distributing the found key through the replica subnetwork.
    InsertFlood {
        /// Resumable BFS frontier delivering the insert.
        flood: FloodWave,
        /// The value being distributed.
        value: VersionedValue,
    },
}

/// An in-flight query: everything the state machine needs between events.
pub(crate) struct QueryCtx {
    id: QueryId,
    /// The querying peer (fallback broadcasts start here).
    origin: PeerId,
    key: Key,
    key_index: usize,
    article: u32,
    /// The DHT peer the query entered through (the insert route starts
    /// here, as in the synchronous pipeline).
    entry: PeerId,
    /// The key's replica-group index, resolved once at issue (loop
    /// invariant; flood waves would otherwise re-run the ring binary
    /// search every level under Chord).
    group: usize,
    /// TTL captured at issue time (the adaptive controller may move
    /// `ttl_rounds` while the query is in flight).
    ttl: Ttl,
    issued_at: SimTime,
    /// Forwarding steps so far (message hops / parallel waves).
    steps: u32,
    /// Whether a timeout event has been scheduled for this query.
    timeout_armed: bool,
    stage: QueryStage,
}

/// What one state-machine step did (shared with the update-propagation
/// machine in [`super::maintenance`]).
pub(crate) enum StepFate {
    /// The query resolved; its context can be dropped.
    Done,
    /// A message (or wave) is now in flight; the next step runs when it
    /// lands.
    Next,
}

/// The shared, read-only side of query execution: every reference a
/// pipeline step needs but never mutates, plus the copied configuration
/// values. `Copy` so the shard dispatcher can hand the same world to every
/// worker closure by value.
#[derive(Clone, Copy)]
pub(crate) struct QueryWorld<'a> {
    pub(crate) overlay: Option<&'a dyn Overlay>,
    pub(crate) live: &'a Liveness,
    pub(crate) topo: &'a Topology,
    pub(crate) content: &'a Replication,
    pub(crate) updates: &'a UpdateProcess,
    pub(crate) groups: &'a [ReplicaGroup],
    pub(crate) keys: &'a [Key],
    pub(crate) article_of: &'a [u32],
    pub(crate) latency: &'a dyn LatencyModel,
    /// Article → its key indices (update propagations walk this list).
    pub(crate) keys_by_article: &'a [Vec<u32>],
    /// Replica group → owning shard (empty without an overlay).
    pub(crate) group_shard: &'a [u16],
    pub(crate) strategy: Strategy,
    pub(crate) walkers: usize,
    /// `walk_budget_factor × num_peers`, precomputed.
    pub(crate) walk_budget: u64,
    pub(crate) nap: usize,
    pub(crate) ttl_rounds: u64,
    /// Per-entry probe rate (lane-local maintenance ticks).
    pub(crate) probe_rate: f64,
    /// TTL-sweep reschedule period in rounds.
    pub(crate) purge_stride: u64,
    pub(crate) query_timeout_secs: Option<f64>,
    /// How update-gossip packets are encoded (see [`crate::GossipCodec`]).
    pub(crate) gossip_codec: GossipCodec,
    /// Generation size the coded codecs cut updates into.
    pub(crate) gen_size: usize,
}

/// The exclusively-owned, mutable side of query execution: one lane's
/// stores, RNG streams, accounting, and virtual-time queue, borrowed from
/// that shard's [`super::shard::LaneState`] for one pass.
pub(crate) struct QueryLane<'a> {
    pub(crate) stores: ShardStores<'a>,
    pub(crate) admission: &'a mut AdmissionFilter,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) counters: &'a mut Counters,
    pub(crate) rng_overlay: &'a mut SmallRng,
    pub(crate) rng_search: &'a mut SmallRng,
    pub(crate) rng_latency: &'a mut SmallRng,
    pub(crate) scratch: &'a mut VisitSet,
    /// Recyclable flood/rumor wave scratch (visited bitmaps, frontier
    /// double-buffers, decoder matrices) owned by this lane.
    pub(crate) waves: &'a mut WavePool,
    pub(crate) inflight: &'a mut Slab<QueryCtx>,
    /// In-flight update propagations owned by this lane.
    pub(crate) updates_inflight: &'a mut Slab<UpdateCtx>,
    pub(crate) events: &'a mut EventQueue<NetEvent>,
    /// Cross-lane traffic produced while draining (update handoffs),
    /// merged at the next pass barrier.
    pub(crate) outbox: &'a mut Outbox<LaneMsg>,
    /// Routing-table repairs planned by this lane's maintenance ticks,
    /// applied serially (in lane order) at the pass barrier.
    pub(crate) repairs: &'a mut Vec<Repair>,
    /// Reusable scratch for [`pdht_overlay::Overlay::maintenance_plan`].
    pub(crate) plan: &'a mut PlanScratch,
}

/// A world/lane pair: the complete capability set of the query pipeline.
pub(crate) struct QueryExec<'a> {
    pub(crate) world: QueryWorld<'a>,
    pub(crate) lane: QueryLane<'a>,
}

impl QueryExec<'_> {
    /// Pops and dispatches every lane event due by `deadline` (inclusive) —
    /// message arrivals and timeouts of this lane's in-flight queries, plus
    /// the lane's background events: maintenance ticks, TTL sweeps, and
    /// update-propagation waves — in `(time, insertion)` order. Returns the
    /// number of events dispatched.
    pub(crate) fn drain_until(&mut self, deadline: SimTime) -> u64 {
        let mut dispatched = 0;
        while let Some(scheduled) = self.lane.events.pop_until(deadline) {
            dispatched += 1;
            let round = scheduled.time.round().0;
            match scheduled.event {
                NetEvent::MessageArrival { query, .. } => self.on_message_arrival(query, round),
                NetEvent::QueryTimeout { query } => self.on_query_timeout(query),
                NetEvent::GossipPush { update, .. } => self.on_gossip_push(update, round),
                NetEvent::PeerMaintenance { peer } => self.on_peer_maintenance(peer),
                NetEvent::TtlSweep { peer } => self.on_ttl_sweep(peer, round),
            }
        }
        dispatched
    }

    /// Delivers one merged cross-lane message at the current lane instant.
    pub(crate) fn deliver(&mut self, msg: LaneMsg, round: u64) {
        match msg {
            LaneMsg::Query(q) => self.start_query(q, round),
            LaneMsg::Replaced(rep) => self.start_update(rep.article, rep.new_version, round),
            LaneMsg::Update(ctx) => self.deliver_update(ctx, round),
        }
    }

    /// Advances the query whose message just landed. Arrivals for queries
    /// no longer in flight (answered or timed out) are ignored.
    pub(crate) fn on_message_arrival(&mut self, id: QueryId, round: u64) {
        if let Some(ctx) = self.lane.inflight.take(id) {
            self.drive_query(ctx, round);
        }
    }

    /// Abandons an in-flight query whose deadline expired: accounted as a
    /// miss plus a timeout (stale timeouts for completed queries are
    /// no-ops). The query still enters the latency histograms, censored at
    /// its abandonment instant — dropping it would bias the percentiles
    /// toward the survivors.
    pub(crate) fn on_query_timeout(&mut self, id: QueryId) {
        if let Some(ctx) = self.lane.inflight.free(id) {
            // A query abandoned mid-flood still holds a pooled scratch
            // slot; hand it back so the next wave can reuse it.
            if let QueryStage::Flood { mut flood } | QueryStage::InsertFlood { mut flood, .. } =
                ctx.stage
            {
                flood.release(self.lane.waves);
            }
            self.lane.counters.query_timeouts += 1;
            self.record_outcome(false, ctx.article, None);
            self.observe_query_done(ctx.steps, ctx.issued_at);
        }
    }

    /// Issues one query: resolves its DHT entry (or starts a broadcast)
    /// and drives the state machine until it completes or goes in flight.
    pub(crate) fn start_query(&mut self, q: Query, round: u64) {
        if !self.world.live.is_online(q.origin) {
            self.lane.counters.skipped_offline += 1;
            return;
        }
        let key = self.world.keys[q.key_index];
        let article = self.world.article_of[q.key_index];

        let stage = match self.world.strategy {
            Strategy::NoIndex => match self.begin_walk(q.origin, article) {
                Ok(walk) => QueryStage::Walk { walk, mode: WalkMode::NoIndex },
                Err(resolved) => {
                    self.resolve_walk(WalkMode::NoIndex, resolved.found.is_some(), article);
                    self.finish_inline();
                    return;
                }
            },
            Strategy::IndexAll | Strategy::Partial => match self.dht_entry(q.origin) {
                Some(entry) => {
                    let o = self.world.overlay.expect("entry implies overlay");
                    QueryStage::Route { lookup: o.begin_lookup(entry, key) }
                }
                // Index unreachable: fall back to pure broadcast.
                None => match self.begin_walk(q.origin, article) {
                    Ok(walk) => QueryStage::Walk { walk, mode: WalkMode::Fallback },
                    Err(resolved) => {
                        self.resolve_walk(WalkMode::Fallback, resolved.found.is_some(), article);
                        self.finish_inline();
                        return;
                    }
                },
            },
        };

        let is_partial = self.world.strategy == Strategy::Partial;
        let (entry, group) = match stage {
            QueryStage::Route { ref lookup } => (lookup.current, lookup.target_group),
            _ => (q.origin, 0),
        };
        let ctx = QueryCtx {
            id: self.lane.inflight.reserve(),
            origin: q.origin,
            key,
            key_index: q.key_index,
            article,
            entry,
            group,
            ttl: if is_partial { Ttl::Rounds(self.world.ttl_rounds) } else { Ttl::Infinite },
            issued_at: self.lane.events.now(),
            steps: 0,
            timeout_armed: false,
            stage,
        };
        self.drive_query(ctx, round);
    }

    /// Steps `ctx` until it resolves or a message with a non-zero delay
    /// goes in flight (zero delays advance inline — the fast path that
    /// makes `LatencyConfig::Zero` reproduce synchronous execution).
    fn drive_query(&mut self, mut ctx: QueryCtx, round: u64) {
        loop {
            match self.step_query(&mut ctx, round) {
                StepFate::Done => {
                    self.lane.inflight.free(ctx.id);
                    self.observe_query_done(ctx.steps, ctx.issued_at);
                    return;
                }
                StepFate::Next => {
                    ctx.steps += 1;
                    let delay = self.world.latency.sample(self.lane.rng_latency);
                    if delay == SimTime::ZERO {
                        continue;
                    }
                    if !ctx.timeout_armed {
                        // Armed before the first non-zero hop, when virtual
                        // time still equals the issue instant.
                        if let Some(timeout) = self.world.query_timeout_secs {
                            self.lane.events.schedule_in(
                                SimTime::from_secs_f64(timeout),
                                NetEvent::QueryTimeout { query: ctx.id },
                            );
                        }
                        ctx.timeout_armed = true;
                    }
                    let event = NetEvent::MessageArrival { query: ctx.id, hop: ctx.steps };
                    self.lane.events.schedule_in(delay, event);
                    let id = ctx.id;
                    self.lane.inflight.park(id, ctx);
                    return;
                }
            }
        }
    }

    /// Queries resolved at their issue instant still count in the
    /// histograms (zero steps, zero latency).
    fn finish_inline(&mut self) {
        let now = self.lane.events.now();
        self.observe_query_done(0, now);
    }

    /// The single place every finished (or abandoned) query enters the
    /// per-query histograms.
    fn observe_query_done(&mut self, steps: u32, issued_at: SimTime) {
        self.lane.metrics.observe("query_hops", u64::from(steps));
        let elapsed = self.lane.events.now().saturating_sub(issued_at);
        self.lane.metrics.observe("query_latency_us", elapsed.as_micros());
    }

    /// One step of the pipeline state machine, at the current virtual
    /// instant inside round `round`.
    fn step_query(&mut self, ctx: &mut QueryCtx, round: u64) -> StepFate {
        match ctx.stage {
            QueryStage::Route { lookup } => {
                let mut lookup = lookup;
                let o = self.world.overlay.expect("routing implies overlay");
                let outcome = o.next_hop(
                    ctx.key,
                    &mut lookup,
                    self.world.live,
                    self.lane.rng_overlay,
                    self.lane.metrics,
                );
                match outcome {
                    Ok(HopOutcome::Forwarded(_)) => {
                        ctx.stage = QueryStage::Route { lookup };
                        StepFate::Next
                    }
                    Ok(HopOutcome::Arrived(responsible)) => {
                        // Local index check (refreshes TTL on hit).
                        if let Some(v) = self.lane.stores.get_and_refresh(
                            responsible,
                            ctx.key_index as u32,
                            round,
                            ctx.ttl,
                        ) {
                            self.record_outcome(true, ctx.article, Some(v));
                            return StepFate::Done;
                        }
                        // Replica-subnetwork flood (Eq. 16) — the selection
                        // algorithm's consistency net. IndexAll uses it too
                        // (its replicas can drift during churn).
                        let group = &self.world.groups[ctx.group];
                        let stores = &self.lane.stores;
                        let ki = ctx.key_index as u32;
                        let flood = group.flood_begin(
                            responsible,
                            |member_local| {
                                stores.peek(group.members()[member_local], ki, round).is_some()
                            },
                            self.world.live,
                            self.lane.waves,
                        );
                        ctx.stage = QueryStage::Flood { flood };
                        StepFate::Next
                    }
                    Err(_) => {
                        self.lane.counters.lookup_failures += 1;
                        self.walk_or_resolve(ctx, WalkMode::Fallback, round)
                    }
                }
            }

            QueryStage::Flood { ref mut flood } => {
                let done = {
                    let group = &self.world.groups[ctx.group];
                    let stores = &self.lane.stores;
                    let ki = ctx.key_index as u32;
                    group.flood_wave(
                        flood,
                        |member_local| {
                            stores.peek(group.members()[member_local], ki, round).is_some()
                        },
                        self.world.live,
                        self.lane.metrics,
                        self.lane.waves,
                    )
                };
                if !done {
                    return StepFate::Next;
                }
                if let Some(answering) = flood.found() {
                    // The answer can expire while the flood sweeps the group
                    // (possible only with non-zero latency); that is just a
                    // miss.
                    if let Some(v) = self.lane.stores.get_and_refresh(
                        answering,
                        ctx.key_index as u32,
                        round,
                        ctx.ttl,
                    ) {
                        self.record_outcome(true, ctx.article, Some(v));
                        return StepFate::Done;
                    }
                }
                // Index miss: broadcast search the unstructured overlay.
                self.walk_or_resolve(ctx, WalkMode::IndexMiss, round)
            }

            QueryStage::Walk { ref mut walk, mode } => {
                let wave = {
                    let content = self.world.content;
                    let article = ctx.article as usize;
                    walk.wave(
                        self.world.topo,
                        |p| content.is_holder(article, p),
                        self.world.live,
                        self.lane.rng_search,
                        self.lane.metrics,
                        self.lane.scratch,
                    )
                };
                match wave {
                    WalkWave::InProgress => StepFate::Next,
                    WalkWave::Found(_) => self.after_walk(ctx, mode, true, round),
                    WalkWave::Exhausted => self.after_walk(ctx, mode, false, round),
                }
            }

            QueryStage::InsertRoute { lookup, value } => {
                let mut lookup = lookup;
                // Hops of the insert route count as IndexInsert traffic,
                // exactly as the synchronous pipeline recorded them.
                let mut scratch = Metrics::new();
                let o = self.world.overlay.expect("overlay present");
                let outcome = o.next_hop(
                    ctx.key,
                    &mut lookup,
                    self.world.live,
                    self.lane.rng_search,
                    &mut scratch,
                );
                self.lane
                    .metrics
                    .record_n(MessageKind::IndexInsert, scratch.totals()[MessageKind::RouteHop]);
                match outcome {
                    Ok(HopOutcome::Forwarded(_)) => {
                        ctx.stage = QueryStage::InsertRoute { lookup, value };
                        StepFate::Next
                    }
                    Ok(HopOutcome::Arrived(at)) => {
                        let flood = {
                            let group = &self.world.groups[ctx.group];
                            let stores = &mut self.lane.stores;
                            let ki = ctx.key_index as u32;
                            let key = ctx.key;
                            let ttl = ctx.ttl;
                            group.flood_begin(
                                at,
                                |member_local| {
                                    stores.insert(
                                        group.members()[member_local],
                                        ki,
                                        key,
                                        value,
                                        round,
                                        ttl,
                                    );
                                    false
                                },
                                self.world.live,
                                self.lane.waves,
                            )
                        };
                        ctx.stage = QueryStage::InsertFlood { flood, value };
                        StepFate::Next
                    }
                    Err(_) => {
                        // Insert route dead-ended: the key stays unindexed
                        // this time (same as the synchronous pipeline).
                        self.record_outcome(false, ctx.article, None);
                        StepFate::Done
                    }
                }
            }

            QueryStage::InsertFlood { ref mut flood, value } => {
                let done = {
                    let group = &self.world.groups[ctx.group];
                    let stores = &mut self.lane.stores;
                    let ki = ctx.key_index as u32;
                    let key = ctx.key;
                    let ttl = ctx.ttl;
                    group.flood_wave(
                        flood,
                        |member_local| {
                            stores.insert(
                                group.members()[member_local],
                                ki,
                                key,
                                value,
                                round,
                                ttl,
                            );
                            false
                        },
                        self.world.live,
                        self.lane.metrics,
                        self.lane.waves,
                    )
                };
                if done {
                    self.record_outcome(false, ctx.article, None);
                    StepFate::Done
                } else {
                    StepFate::Next
                }
            }
        }
    }

    /// Starts a fresh broadcast for `ctx` (or resolves it immediately) in
    /// `mode`.
    fn walk_or_resolve(&mut self, ctx: &mut QueryCtx, mode: WalkMode, round: u64) -> StepFate {
        match self.begin_walk(ctx.origin, ctx.article) {
            Ok(walk) => {
                ctx.stage = QueryStage::Walk { walk, mode };
                StepFate::Next
            }
            Err(resolved) => self.after_walk(ctx, mode, resolved.found.is_some(), round),
        }
    }

    /// Accounts a finished broadcast and, on an index-miss hit, starts the
    /// insert path.
    fn after_walk(
        &mut self,
        ctx: &mut QueryCtx,
        mode: WalkMode,
        found: bool,
        round: u64,
    ) -> StepFate {
        match mode {
            WalkMode::NoIndex | WalkMode::Fallback => {
                self.resolve_walk(mode, found, ctx.article);
                StepFate::Done
            }
            WalkMode::IndexMiss => {
                if !found {
                    self.lane.counters.search_failures += 1;
                    self.record_outcome(false, ctx.article, None);
                    return StepFate::Done;
                }
                let value = VersionedValue {
                    version: self.world.updates.version(ctx.article),
                    data: ctx.key_index as u64,
                };
                // Admission check: the paper admits every miss; the
                // frequency-aware extension requires a repeat miss first.
                let is_partial = self.world.strategy == Strategy::Partial;
                if is_partial && !self.lane.admission.on_miss(ctx.key, round) {
                    self.record_outcome(false, ctx.article, None);
                    return StepFate::Done;
                }
                // Insert the result at the responsible replicas (routed from
                // the entry peer, counted as IndexInsert, then replica
                // flood).
                let o = self.world.overlay.expect("overlay present");
                ctx.stage =
                    QueryStage::InsertRoute { lookup: o.begin_lookup(ctx.entry, ctx.key), value };
                StepFate::Next
            }
        }
    }

    /// Outcome accounting for broadcasts that never insert.
    fn resolve_walk(&mut self, mode: WalkMode, found: bool, article: u32) {
        match mode {
            WalkMode::NoIndex => {
                if found {
                    self.lane.counters.misses += 1; // every query is a "miss" in index terms
                } else {
                    self.lane.counters.search_failures += 1;
                }
            }
            WalkMode::Fallback => {
                if !found {
                    self.lane.counters.search_failures += 1;
                }
                self.record_outcome(false, article, None);
            }
            WalkMode::IndexMiss => unreachable!("index-miss walks resolve in after_walk"),
        }
    }

    /// Begins a k-random-walk broadcast for a holder of `article` from
    /// `origin` (visited state lives in the lane-owned scratch set);
    /// `Err` is the immediately resolved outcome.
    fn begin_walk(&mut self, origin: PeerId, article: u32) -> Result<RandomWalk, SearchOutcome> {
        let content = self.world.content;
        RandomWalk::begin(
            self.world.topo,
            origin,
            self.world.walkers,
            self.world.walk_budget,
            |p| content.is_holder(article as usize, p),
            self.world.live,
            self.lane.scratch,
        )
    }

    /// Finds an online DHT peer to hand the query to; free if the origin
    /// itself participates, one `QueryEntry` message otherwise.
    fn dht_entry(&mut self, origin: PeerId) -> Option<PeerId> {
        let o = self.world.overlay?;
        if origin.idx() < self.world.nap && self.world.live.is_online(origin) {
            return Some(origin);
        }
        let entry = o.entry_peer(self.world.live, self.lane.rng_overlay)?;
        self.lane.metrics.record(MessageKind::QueryEntry);
        Some(entry)
    }

    /// Outcome bookkeeping. The adaptive-TTL controller no longer observes
    /// here — the engine flushes the counter deltas at the bookkeeping
    /// phase, outside any parallel section.
    fn record_outcome(&mut self, hit: bool, article: u32, value: Option<VersionedValue>) {
        if hit {
            self.lane.counters.hits += 1;
            if let Some(v) = value {
                if v.version < self.world.updates.version(article) {
                    self.lane.counters.stale_hits += 1;
                }
            }
        } else {
            self.lane.counters.misses += 1;
        }
    }
}
