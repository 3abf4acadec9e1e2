//! Round orchestration over a message-granular event queue.
//!
//! [`PdhtNetwork::step_round`] does not run phases inline: it schedules one
//! [`RoundPhase`] marker per phase on a global [`pdht_sim::EventQueue`] at
//! staggered sub-round instants, then pops the markers in virtual-time
//! order. Each marker runs its phase's serial work and then a lane pass
//! ([`super::shard`]) that drains every lane's own queue of [`NetEvent`]s —
//! per-peer background ticks and in-flight messages — up to the next
//! marker. Queue pop order (ties break by insertion) keeps runs bit-for-bit
//! reproducible.
//!
//! The query pipeline in [`super::routing`] runs as a state machine over
//! in-flight queries, scheduling one [`NetEvent::MessageArrival`] per
//! forwarded message (or parallel message wave) with a delay drawn from
//! the configured [`crate::LatencyConfig`]. Zero-delay steps are executed
//! inline in issue order — the old synchronous semantics, so a
//! [`crate::LatencyConfig::Zero`] run reproduces the phase-granular
//! engine's accounting bit-for-bit. Non-zero delays let queries interleave,
//! cross round boundaries, and race churn, and populate the per-query
//! latency histograms surfaced in [`SimReport`].

use crate::config::{OverlayKind, PdhtConfig, Strategy};
use crate::network::peer::PeerStores;
use crate::network::shard::{lane_stream, ShardedState};
use crate::ttl::{model_key_ttl, AdaptiveTtl, Ttl, TtlPolicy};
use pdht_gossip::{ReplicaGroup, VersionedValue};
use pdht_model::{CostModel, SelectionModel};
use pdht_overlay::{ChordOverlay, ChurnModel, KademliaOverlay, Overlay, TrieOverlay};
use pdht_sim::{EventQueue, HistogramSummary, LatencyModel, Metrics, RoundDriver};
use pdht_types::{Key, MessageKind, PeerId, Result, RngStreams, Round, SimTime};
use pdht_unstructured::{Replication, Topology};
use pdht_workload::{QueryWorkload, UpdateProcess};
use rand::rngs::SmallRng;
use std::time::{Duration, Instant};

/// Identifier of an in-flight query: a generational slab key, so events
/// referencing resolved queries miss instead of aliasing a recycled slot.
pub type QueryId = u64;

/// Identifier of an in-flight update propagation (same slab-key scheme).
pub type UpdateId = u64;

/// An event on a lane's virtual-time queue (the engine's global queue
/// holds only [`RoundPhase`] markers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A message of an in-flight query lands at its destination: advance
    /// that query's state machine by one step.
    MessageArrival {
        /// The query whose message arrived.
        query: QueryId,
        /// The query's step counter when the message was sent (diagnostics
        /// for hooks; arrival for a query no longer in flight is ignored).
        hop: u32,
    },
    /// An in-flight query's deadline expired: abandon it if still running.
    QueryTimeout {
        /// The query to abandon.
        query: QueryId,
    },
    /// A peer's routing-table maintenance tick comes due: one
    /// [`pdht_overlay::Overlay::maintenance_plan`], then the event
    /// reschedules itself one round later (each active peer carries its own
    /// perpetual tick at a fixed, optionally jittered, sub-round offset).
    PeerMaintenance {
        /// The peer whose routing table is probed.
        peer: PeerId,
    },
    /// A peer's TTL eviction sweep comes due (Partial only): purge its
    /// expired entries, then reschedule `purge_stride` rounds later.
    TtlSweep {
        /// The peer whose store is swept.
        peer: PeerId,
    },
    /// A message wave of an in-flight update propagation lands: advance
    /// that update's state machine by one step (route hop or gossip wave).
    GossipPush {
        /// The propagation whose wave arrived.
        update: UpdateId,
        /// Step counter when the wave was sent (diagnostics; arrivals for
        /// finished propagations are ignored).
        step: u32,
    },
}

/// Where in the event stream an [`EventHook`] observation fires.
///
/// Only phase boundaries are observable: message events live on lane
/// queues drained inside parallel passes, where a shared `!Send` hook
/// cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HookPoint {
    /// A round phase is about to dispatch — the seam for injecting faults
    /// at precise instants (e.g. a blackout between `Churn` and `Queries`).
    BeforePhase {
        /// The round being executed.
        round: u64,
        /// The phase about to run.
        phase: RoundPhase,
    },
}

/// A fault an [`EventHook`] can inject at the observed instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HookAction {
    /// Knock a uniform fraction of all peers offline at once (they rejoin
    /// through the configured churn process).
    Blackout {
        /// Fraction of peers to take down, in `[0, 1]`.
        fraction: f64,
    },
}

/// An experiment hook observing phase boundaries; returned actions are
/// applied before the phase dispatches.
pub type EventHook = Box<dyn FnMut(HookPoint) -> Vec<HookAction>>;

/// One phase of a simulated round, scheduled on the engine's event queue.
///
/// Phases fire in this order within every round (each at its own sub-round
/// instant, so the queue's time ordering — not code layout — sequences
/// them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundPhase {
    /// Peer session transitions; rejoining IndexAll peers pull missed
    /// updates.
    Churn,
    /// Routing-table probe maintenance at the calibrated rate.
    OverlayMaintenance,
    /// Staggered TTL eviction sweep (Partial only).
    PurgeExpired,
    /// Content replacement plus (IndexAll) update propagation.
    ContentUpdates,
    /// The round's query workload through the full pipeline.
    Queries,
    /// Adaptive-TTL adjustment, gauges, and the metrics round mark.
    Bookkeeping,
}

/// Every phase in firing order.
const PHASES: [RoundPhase; 6] = [
    RoundPhase::Churn,
    RoundPhase::OverlayMaintenance,
    RoundPhase::PurgeExpired,
    RoundPhase::ContentUpdates,
    RoundPhase::Queries,
    RoundPhase::Bookkeeping,
];

/// µs of virtual time between consecutive phase instants within a round.
/// The gap leaves room for the per-peer background events *after* their
/// phase marker: a [`HookPoint::BeforePhase`] observation must fire before
/// any of that phase's per-peer work dispatches (same-instant ties would
/// put the rescheduled background events first, since their queue sequence
/// numbers predate the round's phase events).
pub(crate) const PHASE_SPACING_US: u64 = 10;

/// Offset (µs past the round start) of the [`RoundPhase::Queries`] instant —
/// the query phase issues its merged batches at exactly this time.
pub(crate) const QUERIES_OFFSET_US: u64 = 4 * PHASE_SPACING_US;

/// Offset (µs past the round start) of the [`RoundPhase::Bookkeeping`]
/// instant.
const BOOKKEEPING_OFFSET_US: u64 = 5 * PHASE_SPACING_US;

/// Base offset (µs past the round start) of every
/// [`NetEvent::PeerMaintenance`] event: one tick after the
/// [`RoundPhase::OverlayMaintenance`] marker.
const MAINTENANCE_OFFSET_US: u64 = PHASE_SPACING_US + 1;

/// Base offset of every [`NetEvent::TtlSweep`] event: one tick after the
/// [`RoundPhase::PurgeExpired`] marker.
const TTL_SWEEP_OFFSET_US: u64 = 2 * PHASE_SPACING_US + 1;

/// A peer's fixed scheduling offset in `[0, bound]` µs — a SplitMix64 hash
/// of `(seed, salt)` ([`pdht_types::mix64`]), so jittered schedules stay
/// deterministic per seed without consuming any component RNG stream.
fn peer_jitter_us(seed: u64, salt: u64, bound_us: u64) -> u64 {
    if bound_us == 0 {
        return 0;
    }
    pdht_types::mix64(seed, salt) % (bound_us + 1)
}

/// The assembled network.
pub struct PdhtNetwork {
    pub(crate) cfg: PdhtConfig,
    /// Dense key index → routed key.
    pub(crate) keys: Vec<Key>,
    /// Dense key index → owning article.
    pub(crate) article_of: Vec<u32>,
    /// Article → its key indices.
    pub(crate) keys_by_article: Vec<Vec<u32>>,
    pub(crate) churn: ChurnModel,
    /// The structured overlay over the first `nap` peers, chosen from
    /// [`PdhtConfig::overlay`] (`None` when no index is maintained).
    pub(crate) overlay: Option<Box<dyn Overlay>>,
    pub(crate) nap: usize,
    /// One replica group per overlay partition group.
    pub(crate) groups: Vec<ReplicaGroup>,
    /// Per-active-peer TTL stores plus distinct-key accounting.
    pub(crate) peers: PeerStores,
    /// The unstructured overlay over all peers.
    pub(crate) topo: Topology,
    /// Content placement per article.
    pub(crate) content: Replication,
    pub(crate) updates: UpdateProcess,
    pub(crate) workload: QueryWorkload,
    pub(crate) adaptive: Option<AdaptiveTtl>,
    /// Current keyTtl in rounds (fixed policies keep it constant).
    pub(crate) ttl_rounds: u64,
    /// Per-entry probe rate calibrated to `env·log2(nap)` per peer.
    pub(crate) probe_rate: f64,
    pub(crate) metrics: Metrics,
    pub(crate) driver: RoundDriver,
    /// Virtual-time queue of the six per-round phase markers. Background
    /// events and in-flight messages live on the lane queues.
    pub(crate) events: EventQueue<RoundPhase>,
    /// Per-hop delay model built from [`PdhtConfig::latency`].
    pub(crate) latency: Box<dyn LatencyModel>,
    /// Experiment hook observing phase boundaries.
    pub(crate) hook: Option<EventHook>,
    /// Events popped off the global and lane queues over the whole run
    /// (the O(active-work) regression gauge: per-round deltas must track
    /// transitions/queries/background events, not the total population).
    pub(crate) events_dispatched: u64,
    /// Content-replacement stream (drawn serially in the update phase).
    pub(crate) rng_updates: SmallRng,
    /// Cumulative outcome counters (lane counters merge in here at the
    /// bookkeeping barrier).
    pub(crate) counters: Counters,
    /// `(hits, misses)` already flushed to the adaptive-TTL controller —
    /// the bookkeeping phase feeds it the delta since the previous round.
    pub(crate) adaptive_seen: (u64, u64),
    /// The execution lanes (one per shard; `shards = 1` is one lane).
    pub(crate) sharded: ShardedState,
    /// Reusable churn-transition buffer (steady-state churn allocates
    /// nothing).
    pub(crate) churn_buf: Vec<(PeerId, bool)>,
    /// Opt-in per-phase wall-clock accounting (the scale bench's
    /// serial-fraction probe); `None` keeps clock reads off the hot paths.
    pub(crate) phase_timers: Option<PhaseBreakdown>,
}

/// Opt-in wall-clock breakdown of round execution, split into the buckets
/// that matter for shard scaling: parallel pool time (queries,
/// background-event drains) versus serial sections (churn, barriers).
/// Enabled via [`PdhtNetwork::enable_phase_timers`]; on sharded engines
/// the serial fraction bounds the achievable speedup.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Serial churn phase (session transitions + rejoin pulls).
    pub churn: Duration,
    /// Parallel pool time generating and executing queries.
    pub queries: Duration,
    /// Parallel pool time draining background events (maintenance, TTL
    /// sweeps, update waves).
    pub background: Duration,
    /// Serial barrier work: outbox merges, repair application, and the
    /// serial slice of the content-update phase.
    pub barriers: Duration,
}

impl PhaseBreakdown {
    /// Fraction of the accounted wall-clock spent in serial sections —
    /// Amdahl's ceiling on shard-parallel speedup.
    pub fn serial_fraction(&self) -> f64 {
        let serial = self.churn + self.barriers;
        let total = serial + self.queries + self.background;
        if total.is_zero() {
            0.0
        } else {
            serial.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Cumulative query-outcome counters. Plain sums, so per-shard lanes
/// accumulate privately and merge commutatively at the round barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) stale_hits: u64,
    pub(crate) lookup_failures: u64,
    pub(crate) search_failures: u64,
    pub(crate) skipped_offline: u64,
    pub(crate) query_timeouts: u64,
    /// Gossip receives that taught the receiver something (new version,
    /// new chunk, or a decoder-rank gain, per [`crate::GossipCodec`]).
    pub(crate) gossip_innovative: u64,
    /// Gossip receives that carried nothing new — wasted bandwidth.
    pub(crate) gossip_redundant: u64,
    /// Bytes gossip waves put on the wire (codec-weighted pushes plus
    /// anti-entropy pull transfers — the byte-accurate cost model).
    pub(crate) gossip_bytes: u64,
}

impl Counters {
    /// Adds another counter set into this one (the shard-merge fold).
    pub(crate) fn merge_from(&mut self, other: &Counters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_hits += other.stale_hits;
        self.lookup_failures += other.lookup_failures;
        self.search_failures += other.search_failures;
        self.skipped_offline += other.skipped_offline;
        self.query_timeouts += other.query_timeouts;
        self.gossip_innovative += other.gossip_innovative;
        self.gossip_redundant += other.gossip_redundant;
        self.gossip_bytes += other.gossip_bytes;
    }
}

/// Aggregated results over a round window.
///
/// Derives `PartialEq` so determinism tests can assert bit-identical
/// reports across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// The window `[from, to]` in rounds.
    pub rounds: (u64, u64),
    /// Mean total messages per round.
    pub msgs_per_round: f64,
    /// Mean messages per round by kind.
    pub by_kind: Vec<(MessageKind, f64)>,
    /// Measured fraction of queries answered from the index.
    pub p_indexed: f64,
    /// Mean distinct keys resident in the index.
    pub indexed_keys: f64,
    /// Mean availability over the window.
    pub availability: f64,
    /// Queries whose broadcast search failed, within the window.
    pub search_failures: u64,
    /// Queries whose index routing failed, within the window.
    pub lookup_failures: u64,
    /// Hits that returned a stale version, within the window.
    pub stale_hits: u64,
    /// Queries skipped because their origin was offline, within the
    /// window.
    pub skipped_offline: u64,
    /// In-flight queries abandoned by timeout, within the window (always 0
    /// without a configured `query_timeout_secs`).
    pub query_timeouts: u64,
    /// Update-gossip receives classified innovative, within the window
    /// (see [`crate::GossipCodec`]).
    pub gossip_innovative: u64,
    /// Update-gossip receives classified redundant, within the window —
    /// the wave bandwidth that taught nobody anything.
    pub gossip_redundant: u64,
    /// Wasted gossip bandwidth: `redundant / (innovative + redundant)`
    /// over the window, `0.0` when no gossip receive was classified.
    pub wasted_bandwidth: f64,
    /// Bytes update-gossip waves put on the wire within the window:
    /// codec-weighted pushes (value fraction + offer bitmap / coefficient
    /// vector) plus anti-entropy pull transfers.
    pub gossip_bytes: u64,
    /// Mean gossip bytes per round over the window — the bytes-per-round
    /// column beside `msgs_per_round`.
    pub gossip_bytes_per_round: f64,
    /// Per-completed-wave redundant-receive counts, cumulative over the
    /// whole run so far — histograms are not windowed.
    pub gossip_wave_redundant: Option<HistogramSummary>,
    /// Per-completed-wave wire bytes, cumulative over the whole run so
    /// far — histograms are not windowed.
    pub gossip_wave_bytes: Option<HistogramSummary>,
    /// Per-query forwarding steps (message hops/waves), cumulative over the
    /// whole run so far — histograms are not windowed.
    pub query_hops: Option<HistogramSummary>,
    /// Per-query virtual-time latency in microseconds, cumulative over the
    /// whole run so far. Timed-out queries are included, censored at their
    /// abandonment instant. All-zero under [`crate::LatencyConfig::Zero`].
    pub query_latency_us: Option<HistogramSummary>,
}

impl SimReport {
    /// Mean messages per round excluding the entry messages the analytical
    /// model does not price.
    pub fn msgs_per_round_model_view(&self) -> f64 {
        let entry: f64 = self
            .by_kind
            .iter()
            .filter(|(k, _)| *k == MessageKind::QueryEntry)
            .map(|&(_, v)| v)
            .sum();
        self.msgs_per_round - entry
    }
}

impl PdhtNetwork {
    /// Builds the network.
    ///
    /// # Errors
    /// Propagates configuration/model/substrate construction failures.
    pub fn new(cfg: PdhtConfig) -> Result<PdhtNetwork> {
        cfg.validate()?;
        let streams = RngStreams::new(cfg.seed);
        let mut rng_build = streams.stream("build");
        let s = &cfg.scenario;
        let num_peers = s.num_peers as usize;
        let num_keys = s.keys as usize;

        // Synthetic key universe: hashed dense indices.
        let keys: Vec<Key> =
            (0..num_keys).map(|i| Key::hash_bytes(&(i as u64).to_le_bytes())).collect();
        let kpa = cfg.keys_per_article as usize;
        let num_articles = num_keys.div_ceil(kpa);
        let article_of: Vec<u32> = (0..num_keys).map(|i| (i / kpa) as u32).collect();
        let mut keys_by_article: Vec<Vec<u32>> = vec![Vec::with_capacity(kpa); num_articles];
        for (i, &a) in article_of.iter().enumerate() {
            keys_by_article[a as usize].push(i as u32);
        }

        // Active-peer population per strategy.
        let cost = CostModel::new(s);
        let nap = match cfg.strategy {
            Strategy::NoIndex => 0,
            Strategy::IndexAll => cost.num_active_peers(f64::from(s.keys)) as usize,
            Strategy::Partial => {
                let ttl_for_sizing = match cfg.ttl_policy {
                    TtlPolicy::Fixed(t) => t as f64,
                    TtlPolicy::FromModel { factor } => model_key_ttl(s, cfg.f_qry)? * factor,
                    TtlPolicy::Adaptive { .. } => model_key_ttl(s, cfg.f_qry)?,
                };
                let sel = SelectionModel::evaluate_with_ttl(s, cfg.f_qry, ttl_for_sizing)?;
                cost.num_active_peers(sel.index_size) as usize
            }
        };

        // Structured side: the substrate is chosen at runtime from the
        // configuration — everything downstream sees only `dyn Overlay`.
        let (overlay, groups) = if nap >= 2 {
            let overlay: Box<dyn Overlay> = match cfg.overlay {
                OverlayKind::Trie => {
                    Box::new(TrieOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
                OverlayKind::Chord => {
                    Box::new(ChordOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
                OverlayKind::Kademlia => {
                    Box::new(KademliaOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
            };
            let mut groups = Vec::with_capacity(overlay.group_count());
            for g in 0..overlay.group_count() {
                groups.push(ReplicaGroup::new(overlay.group_members(g).to_vec(), &mut rng_build)?);
            }
            (Some(overlay), groups)
        } else {
            (None, Vec::new())
        };

        // Store capacity: `stor`, raised if the overlay's group rounding
        // (or hash skew) makes a group's key load exceed it under IndexAll
        // (see module docs). Uses the *actual* per-group loads, not the
        // average — hashed keys spread with Poisson fluctuation.
        let store_capacity = match (&overlay, cfg.strategy) {
            (Some(o), Strategy::IndexAll) => {
                let mut loads = vec![0usize; o.group_count()];
                for &key in &keys {
                    loads[o.group_of_key(key)] += 1;
                }
                let max_group_load = loads.into_iter().max().unwrap_or(0);
                (s.stor as usize).max(max_group_load + 8)
            }
            _ => s.stor as usize,
        };
        // Lane state: `cfg.shards` is a semantic knob, capped by the
        // population so every shard owns at least one peer.
        let s_eff = (cfg.shards.max(1) as usize).min(num_peers.max(1));
        let sharded =
            ShardedState::new(s_eff, s.num_peers, overlay.as_deref(), &streams, cfg.admission);
        let assign: Vec<u16> =
            (0..nap).map(|p| sharded.store_shard(overlay.as_deref(), p)).collect();
        let mut peers = PeerStores::new_sharded(&assign, s_eff, store_capacity, num_keys);

        // Unstructured side.
        let topo = Topology::random(num_peers, cfg.mean_degree, &mut rng_build)?;
        let content = Replication::place(num_articles, s.repl as usize, num_peers, &mut rng_build)?;

        // Processes. Each churn shard draws from its own stream, so shard
        // calendars evolve independently of each other.
        let mut init: Vec<SmallRng> =
            (0..s_eff).map(|i| lane_stream(&streams, "churn", i, s_eff)).collect();
        let churn =
            ChurnModel::new_sharded(num_peers, cfg.churn, sharded.peer_shard.clone(), &mut init);
        let updates = UpdateProcess::new(num_articles, 1.0 / s.f_upd.max(1e-12))?;
        let workload =
            QueryWorkload::new(num_keys, s.alpha, s.num_peers, cfg.f_qry, cfg.shift.clone())?;

        // TTL policy.
        let model_ttl = model_key_ttl(s, cfg.f_qry)?;
        let (ttl_rounds, adaptive) = match cfg.ttl_policy {
            TtlPolicy::Fixed(t) => (t.max(1), None),
            TtlPolicy::FromModel { factor } => (((model_ttl * factor).round() as u64).max(1), None),
            TtlPolicy::Adaptive { target_hit_rate } => {
                let ctl = AdaptiveTtl::new(model_ttl, target_hit_rate, cfg.adaptive_window);
                (ctl.ttl_rounds(), Some(ctl))
            }
        };

        // Probe-rate calibration (see module docs): per-peer maintenance
        // must cost env·log2(nap) messages per second.
        let probe_rate = match &overlay {
            Some(o) if nap > 1 => {
                let total_entries: usize =
                    (0..nap).map(|p| o.routing_entries(PeerId::from_idx(p))).sum();
                let avg = total_entries as f64 / nap as f64;
                if avg > 0.0 {
                    (s.env * (nap as f64).log2() / avg).min(1.0)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };

        // IndexAll: preload every key at its whole replica group.
        if cfg.strategy == Strategy::IndexAll {
            if let Some(o) = &overlay {
                for (i, &key) in keys.iter().enumerate() {
                    let value = VersionedValue { version: 1, data: i as u64 };
                    let group = o.group_of_key(key);
                    for &member in o.group_members(group) {
                        let res = peers.insert(member, i as u32, key, value, 0, Ttl::Infinite);
                        debug_assert!(res.evicted.is_none(), "preload must fit");
                    }
                }
            }
        }

        let latency = cfg.latency.build();
        let mut net = PdhtNetwork {
            rng_updates: streams.stream("updates"),
            latency,
            cfg,
            keys,
            article_of,
            keys_by_article,
            churn,
            overlay,
            nap,
            groups,
            peers,
            topo,
            content,
            updates,
            workload,
            adaptive,
            ttl_rounds,
            probe_rate,
            metrics: Metrics::new(),
            driver: RoundDriver::new(),
            events: EventQueue::new(),
            hook: None,
            events_dispatched: 0,
            counters: Counters::default(),
            adaptive_seen: (0, 0),
            sharded,
            churn_buf: Vec::new(),
            phase_timers: None,
        };
        net.schedule_background();
        Ok(net)
    }

    /// Seeds the perpetual per-peer background events: one
    /// [`NetEvent::PeerMaintenance`] per active peer per round, and (Partial
    /// only) one [`NetEvent::TtlSweep`] per active peer per `purge_stride`
    /// rounds, staggered so cohort `p % stride` sweeps in round
    /// `r ≡ p (mod stride)` — the same stagger the phase sweep used. Each
    /// event reschedules itself, so the lanes carry a steady `O(nap)`
    /// background population instead of the engine sweeping all peers
    /// inside a phase handler.
    ///
    /// Offsets: with zero jitter (the default), every maintenance event
    /// fires at its round's `OverlayMaintenance` instant + 1 µs and every
    /// sweep at the `PurgeExpired` instant + 1 µs, in ascending peer order
    /// — the order the phase sweeps consumed the component RNG streams in,
    /// keeping `LatencyConfig::Zero` accounting bit-for-bit identical.
    /// Non-zero jitter gives each peer a fixed hashed offset inside its
    /// round.
    ///
    /// Each event lives on its owning lane's queue: maintenance ticks at
    /// the peer's origin shard (they touch only the shared tables and the
    /// lane's streams), TTL sweeps at the shard owning the peer's store,
    /// so every dispatch is lane-local.
    fn schedule_background(&mut self) {
        let jitter = self.cfg.background;
        let seed = self.cfg.seed;
        let st = &mut self.sharded;
        if self.overlay.is_some() {
            for p in 0..self.nap {
                let offset = MAINTENANCE_OFFSET_US
                    + peer_jitter_us(seed, 0xA11C_E000 + p as u64, jitter.maintenance_jitter_us);
                let lane = usize::from(st.peer_shard[p]);
                st.lanes[lane].events.schedule_at(
                    Round(0).start() + SimTime::from_micros(offset),
                    NetEvent::PeerMaintenance { peer: PeerId::from_idx(p) },
                );
            }
        }
        if self.cfg.strategy == Strategy::Partial {
            let stride = self.cfg.purge_stride;
            for p in 0..self.nap {
                let first = Round(p as u64 % stride);
                let offset = TTL_SWEEP_OFFSET_US
                    + peer_jitter_us(seed, 0x77E0_0000 + p as u64, jitter.ttl_jitter_us);
                let lane = usize::from(st.store_shard(self.overlay.as_deref(), p));
                st.lanes[lane].events.schedule_at(
                    first.start() + SimTime::from_micros(offset),
                    NetEvent::TtlSweep { peer: PeerId::from_idx(p) },
                );
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PdhtConfig {
        &self.cfg
    }

    /// Peers participating in the structured overlay.
    pub fn num_active_peers(&self) -> usize {
        self.nap
    }

    /// Current keyTtl in rounds.
    pub fn ttl_rounds(&self) -> u64 {
        self.ttl_rounds
    }

    /// Distinct keys currently resident in the index.
    pub fn indexed_keys(&self) -> usize {
        self.peers.distinct_keys()
    }

    /// Direct access to the metrics (read-only).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Next round to execute.
    pub fn next_round(&self) -> u64 {
        self.driver.next_round().0
    }

    /// Failure injection: knocks a uniform `fraction` of all peers offline
    /// at once; they rejoin through the configured churn process. Draws on
    /// churn shard 0's stream (at `shards = 1`, the one churn steps use).
    pub fn force_blackout(&mut self, fraction: f64) {
        self.churn.force_blackout(fraction, &mut self.sharded.churn_rngs[0]);
    }

    /// Installs an [`EventHook`] observing every phase boundary; actions it
    /// returns are applied before the phase dispatches. Replaces any
    /// previous hook.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.hook = Some(hook);
    }

    /// Removes the event hook.
    pub fn clear_event_hook(&mut self) {
        self.hook = None;
    }

    /// Queries currently in flight (always 0 when every hop delay is zero).
    pub fn queries_in_flight(&self) -> usize {
        self.sharded.lanes.iter().map(|l| l.inflight.len()).sum()
    }

    /// Number of execution shards (lanes).
    pub fn shards(&self) -> usize {
        self.sharded.lanes.len()
    }

    /// Sets how many OS threads execute the lane passes. Purely an
    /// executor knob: simulation results depend only on
    /// [`PdhtConfig::shards`], never on the thread count, so any value
    /// yields bit-identical output.
    pub fn set_threads(&mut self, threads: usize) {
        self.sharded.pool.set_threads(threads);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.sharded.pool.threads()
    }

    /// Update propagations currently in flight (always 0 when every hop
    /// delay is zero), summed over the lanes.
    pub fn updates_in_flight(&self) -> usize {
        self.sharded.lanes.iter().map(|l| l.updates_inflight.len()).sum()
    }

    /// Starts collecting the per-phase wall-clock breakdown (a scale-bench
    /// probe; off by default so the hot paths never read the clock).
    pub fn enable_phase_timers(&mut self) {
        self.phase_timers = Some(PhaseBreakdown::default());
    }

    /// The wall-clock breakdown accumulated since
    /// [`PdhtNetwork::enable_phase_timers`] (`None` unless enabled).
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        self.phase_timers
    }

    /// Total events dispatched off the virtual-time queue so far. Scale
    /// experiments assert the per-round delta scales with *active work*
    /// (background events, churn transitions, in-flight messages), not
    /// with the total population.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// `(slots, acquires)` summed over every lane's wave pool: the arena
    /// high-water mark versus the number of waves that ran. Test hook for
    /// the no-per-query-allocation invariant — `slots` must stay O(max
    /// concurrent waves) while `acquires` grows with every flood/rumor.
    #[doc(hidden)]
    pub fn wave_pool_stats(&self) -> (usize, u64) {
        let lanes = &self.sharded.lanes;
        (
            lanes.iter().map(|l| l.waves.slots()).sum(),
            lanes.iter().map(|l| l.waves.acquires()).sum(),
        )
    }

    /// Runs `n` rounds.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step_round();
        }
    }

    /// Executes one round: schedules its six phase markers on the global
    /// queue and pops them in virtual-time order, each running its phase's
    /// serial work and a lane pass up to the next marker. In-flight
    /// messages interleave with the phases at their own instants on the
    /// lane queues; arrivals falling beyond the round boundary stay parked
    /// and fire in the round they belong to.
    pub fn step_round(&mut self) {
        let round = self.driver.next_round();
        // Each phase gets its own instant inside the round; the queue's
        // (time, insertion) order fixes the sequence deterministically.
        for (i, phase) in PHASES.into_iter().enumerate() {
            self.events.schedule_at(
                round.start() + SimTime::from_micros(i as u64 * PHASE_SPACING_US),
                phase,
            );
        }
        // Drain strictly *within* the round: `pop_until` is inclusive and
        // `round.end()` is the next round's start, so the deadline is one
        // tick earlier — an event parked exactly on the boundary belongs to
        // the next round and must not fire here with this round's number.
        let in_round = round.end() - SimTime::from_micros(1);
        while let Some(scheduled) = self.events.pop_until(in_round) {
            self.events_dispatched += 1;
            let (phase, round) = (scheduled.event, scheduled.time.round().0);
            if self.hook.is_some() {
                self.run_hook(HookPoint::BeforePhase { round, phase });
            }
            self.run_phase(phase, round);
        }
        // Park the clock at the round boundary so external schedulers can
        // target the next round directly.
        self.events.advance_to(round.end());
        self.driver.advance();
    }

    /// Executes one phase marker: the phase's serial work, then a lane
    /// pass up to the next marker, so lane-resident background events fire
    /// *after* their phase's hook seam.
    fn run_phase(&mut self, phase: RoundPhase, round: u64) {
        let r = Round(round);
        let at = |offset_us: u64| r.start() + SimTime::from_micros(offset_us);
        let in_round = r.end() - SimTime::from_micros(1);
        match phase {
            RoundPhase::Churn => {
                let t0 = self.phase_timers.is_some().then(Instant::now);
                self.phase_churn(round);
                if let (Some(t0), Some(tm)) = (t0, self.phase_timers.as_mut()) {
                    tm.churn += t0.elapsed();
                }
                self.lane_pass(at(PHASE_SPACING_US - 1), None, false);
            }
            RoundPhase::OverlayMaintenance => {
                self.lane_pass(at(2 * PHASE_SPACING_US - 1), None, false);
            }
            RoundPhase::PurgeExpired => self.lane_pass(at(3 * PHASE_SPACING_US - 1), None, false),
            RoundPhase::ContentUpdates => {
                let t0 = self.phase_timers.is_some().then(Instant::now);
                self.phase_content_updates(round);
                if let (Some(t0), Some(tm)) = (t0, self.phase_timers.as_mut()) {
                    tm.barriers += t0.elapsed();
                }
                self.lane_pass(at(QUERIES_OFFSET_US - 1), None, false);
            }
            RoundPhase::Queries => {
                if self.drains_after_bookkeeping() {
                    self.phase_queries(round, at(BOOKKEEPING_OFFSET_US - 1), None);
                } else {
                    self.phase_queries(round, in_round, Some(r.end()));
                }
            }
            RoundPhase::Bookkeeping => {
                self.fold_lanes();
                self.phase_bookkeeping(round);
                if self.drains_after_bookkeeping() {
                    self.lane_pass(in_round, Some(r.end()), false);
                    self.fold_lanes();
                }
            }
        }
    }

    /// Whether the rest of the round — background work jittered past the
    /// Bookkeeping instant — drains *after* that round's metrics mark, so
    /// it counts in the next round's record (true at `shards = 1`).
    ///
    /// This is the one schedule seam between shard counts. One-lane runs
    /// keep the attribution the single-queue engine always had, which the
    /// `shards = 1` golden vectors and the benchmark's pinned digests
    /// encode; `S > 1` engines drain their lanes to the round end before
    /// the fold, which `S > 1` digests encode. Unifying the two re-pins
    /// one set of digests.
    fn drains_after_bookkeeping(&self) -> bool {
        self.sharded.lanes.len() == 1
    }

    /// Calls the hook (temporarily detached to keep the borrow checker
    /// happy) and applies any requested actions.
    fn run_hook(&mut self, point: HookPoint) {
        let Some(mut hook) = self.hook.take() else { return };
        let actions = hook(point);
        self.hook = Some(hook);
        for action in actions {
            match action {
                HookAction::Blackout { fraction } => self.force_blackout(fraction),
            }
        }
    }

    /// Adaptive-TTL adjustment, gauges, and the round's metrics mark.
    fn phase_bookkeeping(&mut self, round: u64) {
        if let Some(ctl) = &mut self.adaptive {
            // Flush the hit/miss delta accumulated since the last flush.
            // The controller only counts, so batching a round's outcomes
            // here is exactly the per-outcome `observe` calls it replaces —
            // and it lets shard lanes count privately between barriers.
            let (seen_hits, seen_misses) = self.adaptive_seen;
            ctl.observe_n(self.counters.hits - seen_hits, self.counters.misses - seen_misses);
            self.adaptive_seen = (self.counters.hits, self.counters.misses);
            if ctl.end_round() {
                self.ttl_rounds = ctl.ttl_rounds();
            }
        }
        self.metrics.gauge("indexed_keys", Round(round), self.peers.distinct_keys() as f64);
        self.metrics.gauge("availability", Round(round), self.churn.liveness().availability());
        self.metrics.gauge("hits", Round(round), self.counters.hits as f64);
        self.metrics.gauge("misses", Round(round), self.counters.misses as f64);
        self.metrics.gauge("search_failures", Round(round), self.counters.search_failures as f64);
        self.metrics.gauge("lookup_failures", Round(round), self.counters.lookup_failures as f64);
        self.metrics.gauge("stale_hits", Round(round), self.counters.stale_hits as f64);
        self.metrics.gauge("skipped_offline", Round(round), self.counters.skipped_offline as f64);
        self.metrics.gauge("query_timeouts", Round(round), self.counters.query_timeouts as f64);
        self.metrics.gauge(
            "gossip_innovative",
            Round(round),
            self.counters.gossip_innovative as f64,
        );
        self.metrics.gauge("gossip_redundant", Round(round), self.counters.gossip_redundant as f64);
        self.metrics.gauge("gossip_bytes", Round(round), self.counters.gossip_bytes as f64);
        self.metrics.gauge("ttl_rounds", Round(round), self.ttl_rounds as f64);
        self.metrics.mark_round(Round(round));
    }

    /// Aggregates a report over rounds `[from, to]` (inclusive; rounds must
    /// already have run).
    ///
    /// # Panics
    /// Panics if the window was not simulated.
    pub fn report(&self, from: u64, to: u64) -> SimReport {
        let counts = self
            .metrics
            .counts_between(Round(from), Round(to))
            .expect("window must have been simulated");
        let span = (to - from + 1) as f64;
        let by_kind: Vec<(MessageKind, f64)> =
            counts.iter().map(|(k, v)| (k, v as f64 / span)).collect();
        let hits = Self::gauge_window_delta(&self.metrics, "hits", from, to);
        let misses = Self::gauge_window_delta(&self.metrics, "misses", from, to);
        let answered = hits + misses;
        let innovative = Self::gauge_window_delta(&self.metrics, "gossip_innovative", from, to);
        let redundant = Self::gauge_window_delta(&self.metrics, "gossip_redundant", from, to);
        let gossip_bytes = Self::gauge_window_delta(&self.metrics, "gossip_bytes", from, to);
        SimReport {
            rounds: (from, to),
            msgs_per_round: counts.total() as f64 / span,
            by_kind,
            p_indexed: if answered > 0.0 { hits / answered } else { 0.0 },
            indexed_keys: self
                .metrics
                .gauge_mean("indexed_keys", Round(from), Round(to))
                .unwrap_or(0.0),
            availability: self
                .metrics
                .gauge_mean("availability", Round(from), Round(to))
                .unwrap_or(1.0),
            search_failures: Self::gauge_window_delta(&self.metrics, "search_failures", from, to)
                as u64,
            lookup_failures: Self::gauge_window_delta(&self.metrics, "lookup_failures", from, to)
                as u64,
            stale_hits: Self::gauge_window_delta(&self.metrics, "stale_hits", from, to) as u64,
            skipped_offline: Self::gauge_window_delta(&self.metrics, "skipped_offline", from, to)
                as u64,
            query_timeouts: Self::gauge_window_delta(&self.metrics, "query_timeouts", from, to)
                as u64,
            gossip_innovative: innovative as u64,
            gossip_redundant: redundant as u64,
            wasted_bandwidth: if innovative + redundant > 0.0 {
                redundant / (innovative + redundant)
            } else {
                0.0
            },
            gossip_bytes: gossip_bytes as u64,
            gossip_bytes_per_round: gossip_bytes / span,
            gossip_wave_redundant: self
                .metrics
                .histogram("gossip_wave_redundant")
                .map(pdht_sim::Histogram::summary),
            gossip_wave_bytes: self
                .metrics
                .histogram("gossip_wave_bytes")
                .map(pdht_sim::Histogram::summary),
            query_hops: self.metrics.histogram("query_hops").map(pdht_sim::Histogram::summary),
            query_latency_us: self
                .metrics
                .histogram("query_latency_us")
                .map(pdht_sim::Histogram::summary),
        }
    }

    /// Difference of a cumulative gauge across the window (gauges store
    /// cumulative counters sampled per round).
    fn gauge_window_delta(metrics: &Metrics, name: &str, from: u64, to: u64) -> f64 {
        let series = metrics.gauge_series(name);
        let at = |round: u64| -> f64 {
            match series.binary_search_by_key(&Round(round), |&(r, _)| r) {
                Ok(i) => series[i].1,
                Err(0) => 0.0,
                Err(i) => series[i - 1].1,
            }
        };
        let start = if from == 0 { 0.0 } else { at(from - 1) };
        at(to) - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdht_model::Scenario;

    fn cfg(strategy: Strategy, f_qry: f64) -> PdhtConfig {
        // 1 000 peers, 2 000 keys — fast enough for unit tests.
        PdhtConfig::new(Scenario::table1_scaled(20), f_qry, strategy)
    }

    #[test]
    fn builds_for_all_strategies() {
        for strategy in [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex] {
            let net = PdhtNetwork::new(cfg(strategy, 1.0 / 60.0)).expect("buildable");
            match strategy {
                Strategy::NoIndex => assert_eq!(net.num_active_peers(), 0),
                _ => assert!(net.num_active_peers() >= 2),
            }
        }
    }

    #[test]
    fn builds_on_every_overlay() {
        for kind in OverlayKind::ALL {
            let mut c = cfg(Strategy::Partial, 1.0 / 60.0);
            c.overlay = kind;
            let mut net = PdhtNetwork::new(c).expect("buildable");
            net.run(10);
            assert!(net.report(0, 9).msgs_per_round > 0.0);
        }
    }

    #[test]
    fn index_all_preloads_every_key_on_every_overlay() {
        for kind in OverlayKind::ALL {
            let mut c = cfg(Strategy::IndexAll, 1.0 / 60.0);
            c.overlay = kind;
            let net = PdhtNetwork::new(c).unwrap();
            assert_eq!(net.indexed_keys(), 2_000, "{kind:?}");
        }
    }

    #[test]
    fn partial_starts_empty_and_fills_with_queries() {
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 30.0)).unwrap();
        assert_eq!(net.indexed_keys(), 0);
        net.run(30);
        assert!(net.indexed_keys() > 0, "queries must populate the index");
        let report = net.report(0, 29);
        assert!(report.p_indexed > 0.0, "repeat queries should start hitting");
        assert!(report.msgs_per_round > 0.0);
    }

    #[test]
    fn no_index_never_indexes_and_always_broadcasts() {
        let mut net = PdhtNetwork::new(cfg(Strategy::NoIndex, 1.0 / 30.0)).unwrap();
        net.run(20);
        assert_eq!(net.indexed_keys(), 0);
        let report = net.report(0, 19);
        assert_eq!(report.p_indexed, 0.0);
        let walk: f64 = report
            .by_kind
            .iter()
            .filter(|(k, _)| *k == MessageKind::WalkStep)
            .map(|&(_, v)| v)
            .sum();
        assert!(walk > 0.0, "NoIndex must pay broadcast search");
        let probes: f64 =
            report.by_kind.iter().filter(|(k, _)| *k == MessageKind::Probe).map(|&(_, v)| v).sum();
        assert_eq!(probes, 0.0, "NoIndex maintains no routing tables");
    }

    #[test]
    fn index_all_hits_after_preload() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 30.0)).unwrap();
        net.run(20);
        let report = net.report(5, 19);
        assert!(
            report.p_indexed > 0.95,
            "preloaded index should answer nearly everything, got {}",
            report.p_indexed
        );
        assert_eq!(report.search_failures, 0);
    }

    #[test]
    fn maintenance_cost_matches_env_calibration() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 120.0)).unwrap();
        let nap = net.num_active_peers() as f64;
        net.run(30);
        let report = net.report(5, 29);
        let probes: f64 =
            report.by_kind.iter().filter(|(k, _)| *k == MessageKind::Probe).map(|&(_, v)| v).sum();
        let expected = net.config().scenario.env * nap.log2() * nap;
        assert!(
            (probes - expected).abs() / expected < 0.1,
            "probe rate {probes}/round should be ≈ env·log2(nap)·nap = {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut c = cfg(Strategy::Partial, 1.0 / 60.0);
            c.seed = seed;
            let mut net = PdhtNetwork::new(c).unwrap();
            net.run(15);
            let r = net.report(0, 14);
            (r.msgs_per_round, r.p_indexed, net.indexed_keys())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn ttl_eviction_shrinks_index_after_popularity_dies() {
        // Run with a tiny fixed TTL and a burst of load, then stop querying:
        // the index must drain.
        let mut c = cfg(Strategy::Partial, 1.0 / 30.0);
        c.ttl_policy = TtlPolicy::Fixed(5);
        c.purge_stride = 1;
        let mut net = PdhtNetwork::new(c).unwrap();
        net.run(20);
        let filled = net.indexed_keys();
        assert!(filled > 0);
        // Cut the load to zero by swapping in a zero-rate workload.
        net.workload = QueryWorkload::new(2_000, 1.2, 1_000, 0.0, None).unwrap();
        net.run(10);
        assert!(
            net.indexed_keys() < filled / 4,
            "index should drain after queries stop: {} -> {}",
            filled,
            net.indexed_keys()
        );
    }

    #[test]
    fn report_excludes_entry_messages_in_model_view() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 60.0)).unwrap();
        net.run(10);
        let r = net.report(0, 9);
        assert!(r.msgs_per_round_model_view() <= r.msgs_per_round);
    }

    #[test]
    fn boundary_events_belong_to_the_next_round() {
        // An event parked exactly on the round boundary (the seam external
        // schedulers are promised) must not fire during the earlier round.
        // NoIndex schedules no background events, so the queue population
        // is exactly the probe event.
        let mut net = PdhtNetwork::new(cfg(Strategy::NoIndex, 1.0 / 60.0)).unwrap();
        net.events.schedule_at(Round(1).start(), RoundPhase::Churn);
        net.step_round();
        assert_eq!(net.events.len(), 1, "boundary event must survive round 0");
        net.step_round();
        assert!(net.events.is_empty(), "boundary event must fire in round 1");
    }

    #[test]
    fn phases_drain_within_their_round() {
        let mut net = PdhtNetwork::new(cfg(Strategy::NoIndex, 1.0 / 60.0)).unwrap();
        assert!(net.events.is_empty());
        net.step_round();
        assert!(net.events.is_empty(), "all phase events must fire in-round");
        assert_eq!(net.events.now(), Round(0).end());
        assert_eq!(net.next_round(), 1);
    }

    /// Events pending on every lane queue.
    fn lane_events(net: &PdhtNetwork) -> usize {
        net.sharded.lanes.iter().map(|l| l.events.len()).sum()
    }

    #[test]
    fn background_events_keep_a_steady_per_peer_population() {
        // Every active peer carries one perpetual maintenance event, plus
        // (Partial) one TTL-sweep event; each round consumes and reschedules
        // them, so the pending population is invariant across rounds.
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 60.0)).unwrap();
        let expected = 2 * net.num_active_peers();
        assert_eq!(lane_events(&net), expected, "maintenance + TTL sweep per active peer");
        for _ in 0..3 {
            net.step_round();
            assert_eq!(lane_events(&net), expected, "background events must reschedule");
        }

        let net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 60.0)).unwrap();
        assert_eq!(
            lane_events(&net),
            net.num_active_peers(),
            "IndexAll never expires entries: maintenance only"
        );
    }

    #[test]
    fn phase_timers_see_the_query_phase_at_one_shard() {
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 30.0)).unwrap();
        assert_eq!(net.shards(), 1);
        net.enable_phase_timers();
        net.run(5);
        let tm = net.phase_breakdown().expect("timers enabled");
        assert!(tm.queries > Duration::ZERO, "query phase must be timed: {tm:?}");
        assert!(tm.background > Duration::ZERO, "background passes must be timed: {tm:?}");
    }

    #[test]
    fn dispatch_count_tracks_active_work_not_population() {
        // IndexAll, zero latency, no churn: the only queue events are the 6
        // phase markers plus one maintenance tick per *active* peer — an
        // exact per-round dispatch count. A stray O(population) event
        // source (the regression the O(active-work) refactor guards
        // against) would break this equality immediately.
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 60.0)).unwrap();
        let nap = net.num_active_peers() as u64;
        let rounds = 5;
        net.run(rounds);
        assert_eq!(net.events_dispatched(), rounds * (6 + nap));

        // Partial adds one TTL sweep per active peer every purge_stride
        // rounds (staggered cohorts): still O(active work), bounded well
        // under the total population.
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 60.0)).unwrap();
        let nap = net.num_active_peers() as u64;
        let stride = net.config().purge_stride;
        net.run(stride);
        let per_round = net.events_dispatched() as f64 / stride as f64;
        let expected = 6.0 + nap as f64 * (1.0 + 1.0 / stride as f64);
        assert!(
            (per_round - expected).abs() / expected < 0.05,
            "per-round dispatch {per_round:.1} should be ≈ {expected:.1}"
        );
        assert!(per_round < net.config().scenario.num_peers as f64);
    }
}
