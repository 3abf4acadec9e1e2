//! The common structured-overlay interface.

use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, PeerId, Result};
use rand::rngs::SmallRng;

/// Result of a successful lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The responsible peer the lookup arrived at.
    pub peer: PeerId,
    /// Messages spent routing there (hops, including wasted hops to stale
    /// entries).
    pub hops: u32,
}

/// Resumable state of an in-progress lookup, advanced one forward at a time
/// by [`Overlay::next_hop`]. Message-granular engines park this between hop
/// events; [`Overlay::lookup`] just drives it in a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupState {
    /// Peer the query currently sits at.
    pub current: PeerId,
    /// Route-hop messages spent so far (wasted attempts included).
    pub hops: u32,
    /// Remaining substrate-specific budget (message attempts for the trie,
    /// routing steps for Chord); exhaustion fails the lookup.
    pub budget: u32,
    /// The replica group responsible for the key (resolved once at
    /// [`Overlay::begin_lookup`], so per-hop termination checks are cheap).
    pub target_group: usize,
}

/// What one [`Overlay::next_hop`] step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopOutcome {
    /// The current peer is responsible for the key; the lookup is done.
    Arrived(PeerId),
    /// The query was forwarded: a message is now in flight to this peer.
    Forwarded(PeerId),
}

/// One routing-table mutation recorded by [`Overlay::maintenance_plan`]
/// and replayed by [`Overlay::maintenance_apply`].
///
/// Each variant names the substrate it belongs to; an overlay applies its
/// own variants and panics on foreign ones (a plan is never handed to a
/// different substrate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repair {
    /// Chord: re-target finger `slot` of `peer` to `to`.
    ChordFinger {
        /// The peer whose finger table is repaired.
        peer: PeerId,
        /// Finger-table slot index.
        slot: u32,
        /// The fresh online target.
        to: PeerId,
    },
    /// Chord: rebuild `peer`'s successor list from the ring (the walk is
    /// rng-free, so the fresh list is re-derived at apply time).
    ChordSuccessors {
        /// The peer whose successor list went stale.
        peer: PeerId,
    },
    /// Trie: replace `stale` in `peer`'s level-`level` references with
    /// `replacement` (`None`, or an already-present pick, evicts instead).
    TrieRef {
        /// The peer whose reference list is repaired.
        peer: PeerId,
        /// Trie level of the reference list.
        level: u32,
        /// The stale reference found by probing.
        stale: PeerId,
        /// The sampled replacement, if the sibling leaf offered one.
        replacement: Option<PeerId>,
    },
    /// Kademlia: refresh the `stale` contact in bucket `bucket` of `peer`
    /// with `replacement` (`None` evicts).
    KadRefresh {
        /// The peer whose k-bucket is refreshed.
        peer: PeerId,
        /// K-bucket index.
        bucket: u32,
        /// The stale contact found by probing.
        stale: PeerId,
        /// The sampled online replacement, if any.
        replacement: Option<PeerId>,
    },
    /// Kademlia: revive the drained bucket `bucket` of `peer` with `fresh`.
    KadRevive {
        /// The peer whose k-bucket drained empty.
        peer: PeerId,
        /// K-bucket index.
        bucket: u32,
        /// The sampled online contact seeding the bucket again.
        fresh: PeerId,
    },
}

/// Reusable scratch for [`Overlay::maintenance_plan`]: plan passes run on
/// worker threads every round, so their temporaries live in one
/// caller-owned buffer set instead of per-call allocations.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// A simulated routing-bucket copy (Kademlia's refresh acceptance
    /// reads the bucket mid-mutation, so planning replays it here).
    pub(crate) buf: Vec<PeerId>,
    /// Stale entries collected by the probe sweep of one level/bucket.
    pub(crate) stale: Vec<PeerId>,
}

impl PlanScratch {
    /// Empty scratch buffers.
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }
}

/// A structured overlay ("traditional DHT").
///
/// Implementations must:
/// * deterministically partition the key space among *active* peers,
/// * count every routing hop and probe in the supplied [`Metrics`]
///   (`MessageKind::RouteHop` / `MessageKind::Probe`),
/// * treat stale routing entries as wasted hops, repaired for free when
///   detected (the paper's piggybacking assumption, Section 3.3.1).
///
/// # Replica partition
///
/// Beyond routing, the simulation engine needs a **disjoint partition** of
/// the active peers into replica groups: index entries for a key are
/// replicated across exactly one group, and that group gossips/floods
/// internally (Section 5.1). The `group_*` methods expose this partition
/// abstractly — trie leaves for [`crate::TrieOverlay`], consecutive ring
/// arcs for [`crate::ChordOverlay`] — so the engine can hold any overlay as
/// a `Box<dyn Overlay>`. Invariants:
///
/// * groups are disjoint and jointly cover all active peers,
/// * `group_of_peer(m) == g` for every `m` in `group_members(g)`,
/// * `responsible_group(key) == group_members(group_of_key(key))`,
/// * `is_responsible(p, key)` ⇔ `group_of_peer(p) == group_of_key(key)`
///   (routing terminates exactly when it reaches the key's group).
///
/// `Send + Sync` is a supertrait: the engine's lanes route lookups — and
/// plan maintenance repairs — through a shared `&dyn Overlay` from
/// multiple worker threads (routing and [`Overlay::maintenance_plan`] take
/// `&self`; mutation happens only at serial barriers, via
/// [`Overlay::maintenance_apply`]).
///
/// Routing-table maintenance is one API, plan then apply: a substrate
/// implements [`Overlay::maintenance_plan`] and
/// [`Overlay::maintenance_apply`], and gets the whole-overlay sweep
/// [`Overlay::maintenance_round`] for free.
pub trait Overlay: Send + Sync {
    /// Number of peers participating in the overlay (`numActivePeers`).
    fn num_active(&self) -> usize;

    /// Number of replica groups in the partition.
    fn group_count(&self) -> usize;

    /// Members of group `group`, in deterministic order.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    fn group_members(&self, group: usize) -> &[PeerId];

    /// Index of the replica group responsible for `key`.
    fn group_of_key(&self, key: Key) -> usize;

    /// Index of the replica group `peer` belongs to.
    fn group_of_peer(&self, peer: PeerId) -> usize;

    /// The replica group responsible for `key`, in deterministic order.
    fn responsible_group(&self, key: Key) -> Vec<PeerId> {
        self.group_members(self.group_of_key(key)).to_vec()
    }

    /// Is `peer` one of the peers responsible for `key`?
    fn is_responsible(&self, peer: PeerId, key: Key) -> bool {
        self.group_of_peer(peer) == self.group_of_key(key)
    }

    /// Starts a resumable lookup for `key` at `from`.
    fn begin_lookup(&self, from: PeerId, key: Key) -> LookupState;

    /// Advances a lookup by one step: either detects arrival at a
    /// responsible peer, or forwards to the next peer (one in-flight
    /// message, possibly after wasted attempts to stale references — every
    /// attempt is counted into `metrics`).
    ///
    /// # Errors
    /// Fails when routing dead-ends: every known reference towards the key
    /// is offline, no responsible peer is online, or the step budget is
    /// exhausted.
    fn next_hop(
        &self,
        key: Key,
        state: &mut LookupState,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<HopOutcome>;

    /// Routes from `from` towards the peer responsible for `key`, counting
    /// hops into `metrics`. This is [`Overlay::next_hop`] driven to
    /// completion with no inter-hop delay.
    ///
    /// # Errors
    /// Fails when routing dead-ends: every known reference towards the key
    /// is offline, or no responsible peer is online.
    fn lookup(
        &self,
        from: PeerId,
        key: Key,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<LookupOutcome> {
        let mut state = self.begin_lookup(from, key);
        loop {
            match self.next_hop(key, &mut state, live, rng, metrics)? {
                HopOutcome::Arrived(peer) => return Ok(LookupOutcome { peer, hops: state.hops }),
                HopOutcome::Forwarded(_) => {}
            }
        }
    }

    /// One second of routing-table maintenance for a single peer, planned:
    /// probes each of `peer`'s routing entries with probability `env`,
    /// counting probes into `metrics`, and records the repairs of entries
    /// found stale into `out` (no extra messages, per the paper's
    /// piggybacking assumption) without applying them. Offline peers are a
    /// no-op. This is the unit event-driven engines schedule per peer (one
    /// `PeerMaintenance` event each).
    ///
    /// Contract (the conformance kit enforces it): planning peers
    /// `0..num_active` and then replaying every recorded repair with
    /// [`Overlay::maintenance_apply`] must leave the overlay — and the rng
    /// and `metrics` — in the same state as planning and applying each
    /// peer in turn, provided `live` is unchanged between plan and apply.
    /// This holds because no peer's plan reads another peer's *mutable*
    /// routing state; it is what lets lanes plan their peers on worker
    /// threads and apply at the serial pass barrier.
    #[allow(clippy::too_many_arguments)] // the probe inputs plus plan outputs
    fn maintenance_plan(
        &self,
        peer: PeerId,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        scratch: &mut PlanScratch,
        out: &mut Vec<Repair>,
    );

    /// Replays repairs recorded by [`Overlay::maintenance_plan`], in order.
    ///
    /// # Panics
    /// Panics if handed a [`Repair`] variant belonging to a different
    /// substrate.
    fn maintenance_apply(&mut self, repairs: &[Repair], live: &Liveness);

    /// One second of routing-table maintenance for every peer: each peer's
    /// [`Overlay::maintenance_plan`] applied before the next is planned,
    /// swept in peer order.
    fn maintenance_round(
        &mut self,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) {
        let mut scratch = PlanScratch::new();
        let mut repairs = Vec::new();
        for p in 0..self.num_active() {
            let peer = PeerId::from_idx(p);
            self.maintenance_plan(peer, env, live, rng, metrics, &mut scratch, &mut repairs);
            self.maintenance_apply(&repairs, live);
            repairs.clear();
        }
    }

    /// Total routing-table entries of `peer` (the `O(log n)` quantity the
    /// maintenance cost scales with).
    fn routing_entries(&self, peer: PeerId) -> usize;

    /// A deterministic "well-known entry point": some online active peer a
    /// non-participant can hand its query to (Section 3.2: non-active peers
    /// only need to know one online DHT peer).
    fn entry_peer(&self, live: &Liveness, rng: &mut SmallRng) -> Option<PeerId>;
}
