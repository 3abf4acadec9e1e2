//! A Kademlia-style XOR-metric DHT (\[MaMa02\]).
//!
//! The third substrate behind the [`Overlay`] trait, backing the paper's
//! claim (Section 1) that the analysis applies to any "traditional DHT":
//! peers carry 64-bit node ids, routing tables are **k-buckets** (bucket
//! `j` of a peer holds up to [`BUCKET_K`] contacts whose id first differs
//! from the peer's at bit `j`), and routing forwards greedily by XOR
//! distance — every hop strictly lengthens the common prefix with the key,
//! giving the familiar `O(log n)` hop and table asymptotics with Kademlia's
//! constants.
//!
//! # XOR-prefix replica groups
//!
//! The engine needs a disjoint partition of the active peers into replica
//! groups (see the [`Overlay`] trait docs). Here the partition is by
//! **id prefix**: with a target group size `g` over `n` peers, the top
//! `d = ⌊log2(n/g)⌉` bits of the node id pick the group, so a group is the
//! set of peers XOR-closest to the keys under its prefix — exactly the set
//! Kademlia would replicate an entry across. As with the trie, construction
//! is the *balanced* outcome: peers are dealt round-robin over the `2^d`
//! prefixes (so no group is empty) and draw the remaining id bits randomly.

use crate::traits::{HopOutcome, LookupState, Overlay, PlanScratch, Repair};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId, Result, KEY_BITS};
use rand::rngs::SmallRng;
use rand::Rng;

/// Maximum contacts per k-bucket (Kademlia's `k`, scaled to simulation
/// populations; real deployments use 20).
pub const BUCKET_K: usize = 8;

/// One Kademlia participant.
struct Node {
    /// 64-bit node id (distinct across the overlay).
    id: u64,
    /// `kbuckets[j]` = up to [`BUCKET_K`] contacts whose id shares exactly
    /// the first `j` bits with this node's id. Trailing empty buckets are
    /// truncated (random ids leave everything beyond ~log2 n empty).
    kbuckets: Vec<Vec<PeerId>>,
}

/// A Kademlia-style overlay.
pub struct KademliaOverlay {
    /// Group-prefix depth in bits: `2^depth` XOR-prefix replica groups.
    depth: u32,
    /// Nodes indexed by `PeerId`.
    nodes: Vec<Node>,
    /// `(id, peer)` sorted by id — the range oracle bucket sampling and
    /// stale-entry repair draw from.
    sorted: Vec<(u64, PeerId)>,
    /// Members of each XOR-prefix group, in deterministic (peer-id) order.
    groups: Vec<Vec<PeerId>>,
    /// Peer index → its group index.
    group_of: Vec<usize>,
}

impl KademliaOverlay {
    /// Builds the overlay over `n` peers with replica groups of roughly
    /// `group_size` peers.
    ///
    /// # Errors
    /// Fails if `n == 0` or `group_size == 0`.
    pub fn build(n: usize, group_size: usize, rng: &mut SmallRng) -> Result<KademliaOverlay> {
        if n == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "n",
                reason: "overlay needs at least one peer".into(),
            });
        }
        if group_size == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "group_size",
                reason: "replica groups need at least one member".into(),
            });
        }
        // Same depth rule as the trie: nearest power of two to n/group_size
        // in log space, capped so every prefix keeps at least one peer.
        let ratio = (n as f64 / group_size as f64).max(1.0);
        let mut depth = ratio.log2().round().max(0.0) as u32;
        while (1usize << depth) > n {
            depth -= 1;
        }
        let num_groups = 1usize << depth;

        // Node ids: the top `depth` bits are dealt round-robin over the
        // groups (balance, no empty group); the low bits are random and
        // deduplicated so ids are distinct.
        let mut ids = Vec::with_capacity(n);
        let mut used = pdht_types::fasthash::set_with_capacity::<u64>(n * 2);
        let mut groups: Vec<Vec<PeerId>> = vec![Vec::new(); num_groups];
        let mut group_of = vec![0usize; n];
        for i in 0..n {
            let g = i % num_groups;
            let prefix = if depth == 0 { 0 } else { (g as u64) << (KEY_BITS - depth) };
            let low_mask = if depth == 0 { u64::MAX } else { u64::MAX >> depth };
            let mut id = prefix | (rng.random::<u64>() & low_mask);
            while !used.insert(id) {
                id = prefix | (rng.random::<u64>() & low_mask);
            }
            ids.push(id);
            groups[g].push(PeerId::from_idx(i));
            group_of[i] = g;
        }

        let mut sorted: Vec<(u64, PeerId)> =
            ids.iter().enumerate().map(|(i, &id)| (id, PeerId::from_idx(i))).collect();
        sorted.sort_unstable_by_key(|&(id, _)| id);

        let mut overlay = KademliaOverlay {
            depth,
            nodes: ids.into_iter().map(|id| Node { id, kbuckets: Vec::new() }).collect(),
            sorted,
            groups,
            group_of,
        };
        overlay.rebuild_routing_tables(rng);
        Ok(overlay)
    }

    /// Group-prefix depth (`2^depth` replica groups).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Node id of `peer` (for tests).
    pub fn node_id(&self, peer: PeerId) -> u64 {
        self.nodes[peer.idx()].id
    }

    /// The id interval populated by bucket `j` of a node with id `x`:
    /// ids sharing the first `j` bits of `x` with bit `j` flipped. Returned
    /// as a slice of the sorted id oracle (possibly empty).
    fn bucket_range(&self, x: u64, j: u32) -> &[(u64, PeerId)] {
        let flip = 1u64 << (KEY_BITS - 1 - j);
        let keep = if j == 0 { 0 } else { x & (u64::MAX << (KEY_BITS - j)) };
        let lo = keep | ((x & flip) ^ flip);
        let hi = lo | (flip - 1);
        let start = self.sorted.partition_point(|&(id, _)| id < lo);
        let end = self.sorted.partition_point(|&(id, _)| id <= hi);
        &self.sorted[start..end]
    }

    /// (Re)builds every peer's k-buckets by sampling up to [`BUCKET_K`]
    /// contacts from each bucket's id range — the steady-state table a
    /// Kademlia node converges to after lookups have walked its tree.
    pub fn rebuild_routing_tables(&mut self, rng: &mut SmallRng) {
        let n = self.nodes.len();
        for p in 0..n {
            let x = self.nodes[p].id;
            let mut kbuckets: Vec<Vec<PeerId>> = Vec::new();
            for j in 0..KEY_BITS {
                let range = self.bucket_range(x, j);
                let mut bucket = Vec::with_capacity(BUCKET_K.min(range.len()));
                if range.len() <= BUCKET_K {
                    bucket.extend(range.iter().map(|&(_, peer)| peer));
                } else {
                    for _ in 0..BUCKET_K {
                        let &(_, pick) = &range[rng.random_range(0..range.len())];
                        if !bucket.contains(&pick) {
                            bucket.push(pick);
                        }
                    }
                }
                kbuckets.push(bucket);
            }
            while kbuckets.last().is_some_and(Vec::is_empty) {
                kbuckets.pop();
            }
            self.nodes[p].kbuckets = kbuckets;
        }
    }
}

impl Overlay for KademliaOverlay {
    fn num_active(&self) -> usize {
        self.nodes.len()
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn group_members(&self, group: usize) -> &[PeerId] {
        &self.groups[group]
    }

    fn group_of_key(&self, key: Key) -> usize {
        if self.depth == 0 {
            0
        } else {
            (key.0 >> (KEY_BITS - self.depth)) as usize
        }
    }

    fn group_of_peer(&self, peer: PeerId) -> usize {
        self.group_of[peer.idx()]
    }

    fn begin_lookup(&self, from: PeerId, key: Key) -> LookupState {
        // Every forward strictly lengthens the common prefix with the key,
        // and arrival needs only the first `depth` bits to agree, so the
        // trie's budget shape applies: one bucket's worth of attempts per
        // resolved bit, plus slack.
        let budget = ((self.depth as usize + 1) * BUCKET_K + 8) as u32;
        LookupState { current: from, hops: 0, budget, target_group: self.group_of_key(key) }
    }

    fn next_hop(
        &self,
        key: Key,
        state: &mut LookupState,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<HopOutcome> {
        let _ = rng; // greedy XOR forwarding is deterministic given the tables

        let current = state.current;
        if self.group_of[current.idx()] == state.target_group {
            return Ok(HopOutcome::Arrived(current));
        }
        // The peer's id first differs from the key at bit `b` (< depth,
        // since the peer is not responsible); bucket `b` holds exactly the
        // contacts that agree with the key through bit `b`, so any of them
        // is strict progress.
        let me = &self.nodes[current.idx()];
        let b = Key(me.id).common_prefix_len(key) as usize;
        // Greedy: contact attempts in XOR-distance order to the key. Every
        // attempt is a real message, wasted if the target is offline.
        let mut order: Vec<PeerId> = me.kbuckets.get(b).cloned().unwrap_or_default();
        order.sort_unstable_by_key(|&c| self.nodes[c.idx()].id ^ key.0);
        for cand in order {
            state.hops += 1;
            // Saturating: once exhausted, each further bucket gets exactly
            // one attempt before dead-ending (mirrors the trie).
            state.budget = state.budget.saturating_sub(1);
            metrics.record(MessageKind::RouteHop);
            if live.is_online(cand) {
                state.current = cand;
                return Ok(HopOutcome::Forwarded(cand));
            }
            if state.budget == 0 {
                break;
            }
        }
        Err(PdhtError::LookupFailed {
            key: key.0,
            reason: format!(
                "no online contact in bucket {b} of {} after {} hops",
                state.current, state.hops
            ),
        })
    }

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
    ) {
        // Probe each k-bucket entry with probability env; entries found
        // stale are refreshed from the bucket's id range (free, per the
        // paper's piggybacking assumption), and rejoined peers re-enter
        // tables through the same sampling. Refresh acceptance
        // (`!bucket.contains(&cand)`) and the empty-bucket check read the
        // bucket *mid-mutation*, so the plan replays each bucket's
        // mutations in `scratch.buf` to keep the candidate draws identical
        // to planning and applying one repair at a time.
        if !live.is_online(peer) {
            return;
        }
        let p = peer.idx();
        for j in 0..self.nodes[p].kbuckets.len() {
            scratch.buf.clear();
            scratch.buf.extend_from_slice(&self.nodes[p].kbuckets[j]);
            scratch.stale.clear();
            for &c in &scratch.buf {
                if rng.random::<f64>() < env {
                    metrics.record(MessageKind::Probe);
                    if !live.is_online(c) {
                        scratch.stale.push(c);
                    }
                }
            }
            let x = self.nodes[p].id;
            for si in 0..scratch.stale.len() {
                let s = scratch.stale[si];
                if let Some(pos) = scratch.buf.iter().position(|&c| c == s) {
                    // Refresh against the scratch bucket: up to 8 draws
                    // for an online contact not already in it, else evict.
                    let range = self.bucket_range(x, j as u32);
                    let mut replacement = None;
                    for _ in 0..8 {
                        if range.is_empty() {
                            break;
                        }
                        let (_, cand) = range[rng.random_range(0..range.len())];
                        if live.is_online(cand) && !scratch.buf.contains(&cand) {
                            replacement = Some(cand);
                            break;
                        }
                    }
                    match replacement {
                        Some(fresh) => scratch.buf[pos] = fresh,
                        None => {
                            scratch.buf.swap_remove(pos);
                        }
                    }
                    out.push(Repair::KadRefresh { peer, bucket: j as u32, stale: s, replacement });
                }
            }
            // A bucket drained to empty (every contact evicted while its
            // whole id range was offline) has no entries left to probe, so
            // the refresh above can never revive it; resample it directly
            // once the range has an online peer again, or routing from this
            // peer would dead-end on that prefix forever.
            if scratch.buf.is_empty() {
                let mut revived = None;
                let range = self.bucket_range(x, j as u32);
                for _ in 0..8 {
                    if range.is_empty() {
                        break;
                    }
                    let (_, cand) = range[rng.random_range(0..range.len())];
                    if live.is_online(cand) {
                        revived = Some(cand);
                        break;
                    }
                }
                if let Some(fresh) = revived {
                    out.push(Repair::KadRevive { peer, bucket: j as u32, fresh });
                }
            }
        }
    }

    fn maintenance_apply(&mut self, repairs: &[Repair], _live: &Liveness) {
        for &r in repairs {
            match r {
                Repair::KadRefresh { peer, bucket, stale, replacement } => {
                    let b = &mut self.nodes[peer.idx()].kbuckets[bucket as usize];
                    // The plan only records a refresh when the stale entry
                    // was still present in its simulated bucket, and the
                    // real bucket replays the same mutation sequence, so
                    // the position lookup matches the planned one.
                    if let Some(pos) = b.iter().position(|&c| c == stale) {
                        match replacement {
                            Some(fresh) => b[pos] = fresh,
                            None => {
                                b.swap_remove(pos);
                            }
                        }
                    }
                }
                Repair::KadRevive { peer, bucket, fresh } => {
                    self.nodes[peer.idx()].kbuckets[bucket as usize].push(fresh);
                }
                other => unreachable!("non-Kademlia repair {other:?} handed to KademliaOverlay"),
            }
        }
    }

    fn routing_entries(&self, peer: PeerId) -> usize {
        self.nodes[peer.idx()].kbuckets.iter().map(Vec::len).sum()
    }

    fn entry_peer(&self, live: &Liveness, rng: &mut SmallRng) -> Option<PeerId> {
        for _ in 0..16 {
            let cand = PeerId::from_idx(rng.random_range(0..self.nodes.len()));
            if live.is_online(cand) {
                return Some(cand);
            }
        }
        (0..self.nodes.len()).map(PeerId::from_idx).find(|&p| live.is_online(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn build(n: usize, g: usize) -> KademliaOverlay {
        KademliaOverlay::build(n, g, &mut rng()).expect("buildable")
    }

    #[test]
    fn depth_matches_population_and_group_size() {
        assert_eq!(build(1600, 50).depth(), 5); // 32 groups, exact
        assert_eq!(build(400, 50).depth(), 3); // 8 groups, exact
        assert_eq!(build(50, 50).depth(), 0); // single group
        assert_eq!(build(20_000, 50).depth(), 9); // log2(400) ≈ 8.64 → 9
    }

    #[test]
    fn prefix_groups_partition_the_population() {
        let o = build(640, 5);
        assert_eq!(o.group_count(), 128);
        let mut seen = std::collections::HashSet::new();
        for g in 0..o.group_count() {
            let members = o.group_members(g);
            assert!(!members.is_empty(), "round-robin deal leaves no group empty");
            for &m in members {
                assert_eq!(o.group_of_peer(m), g);
                // Each member's id carries the group's prefix.
                assert_eq!((o.node_id(m) >> (64 - o.depth())) as usize, g);
                assert!(seen.insert(m), "groups must be disjoint");
            }
        }
        assert_eq!(seen.len(), 640, "groups must cover every peer");
    }

    #[test]
    fn key_group_is_the_xor_closest_prefix() {
        let o = build(512, 8);
        let mut r = rng();
        for _ in 0..200 {
            let key = Key(r.random::<u64>());
            let g = o.group_of_key(key);
            assert_eq!(g, (key.0 >> (64 - o.depth())) as usize);
            for &m in o.group_members(g) {
                assert!(o.is_responsible(m, key));
                // Members share the key's top `depth` bits, so their XOR
                // distance to the key clears those bits.
                assert!(Key(o.node_id(m)).common_prefix_len(key) >= o.depth());
            }
        }
    }

    #[test]
    fn lookup_reaches_a_responsible_peer() {
        let o = build(1000, 8);
        let live = Liveness::all_online(1000);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..300 {
            let from = PeerId::from_idx(r.random_range(0..1000));
            let key = Key(r.random::<u64>());
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("lookup");
            assert!(o.is_responsible(out.peer, key));
            assert!(out.hops <= o.depth());
        }
    }

    #[test]
    fn greedy_forwarding_beats_one_bit_per_hop() {
        // A forward is guaranteed one more common-prefix bit, but greedy
        // selection over up to BUCKET_K candidates gains ~log2(BUCKET_K)
        // extra bits per hop in expectation — so the average must land
        // strictly below the trie's ½·depth while staying logarithmic.
        let o = build(4096, 8); // depth 9
        let live = Liveness::all_online(4096);
        let mut r = rng();
        let mut m = Metrics::new();
        let trials = 3000;
        let mut total = 0u64;
        for _ in 0..trials {
            let from = PeerId::from_idx(r.random_range(0..4096));
            let key = Key(r.random::<u64>());
            total += u64::from(o.lookup(from, key, &live, &mut r, &mut m).unwrap().hops);
        }
        let avg = total as f64 / f64::from(trials);
        let half_depth = f64::from(o.depth()) / 2.0;
        assert!(avg > 0.5, "routing must take real hops, avg {avg}");
        assert!(avg < half_depth, "greedy XOR hops {avg} must beat one-bit-per-hop {half_depth}");
    }

    #[test]
    fn survives_churn_with_wasted_hops() {
        let o = build(1000, 8);
        let mut live = Liveness::all_online(1000);
        // Decorrelated from the build seed (see the Chord test of the same
        // name for why).
        let mut r = SmallRng::seed_from_u64(0xbad5eed);
        for i in 0..1000 {
            if r.random::<f64>() < 0.25 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        let mut ok = 0;
        let trials = 300;
        for _ in 0..trials {
            let from = loop {
                let c = PeerId::from_idx(r.random_range(0..1000));
                if live.is_online(c) {
                    break c;
                }
            };
            let key = Key(r.random::<u64>());
            if let Ok(out) = o.lookup(from, key, &live, &mut r, &mut m) {
                assert!(live.is_online(out.peer));
                assert!(o.is_responsible(out.peer, key));
                ok += 1;
            }
        }
        assert!(ok > trials * 7 / 10, "most lookups should survive, ok={ok}");
    }

    #[test]
    fn maintenance_refreshes_stale_buckets_and_readmits_rejoiners() {
        let mut o = build(600, 8);
        let mut live = Liveness::all_online(600);
        let mut r = rng();
        for i in 0..600 {
            if r.random::<f64>() < 0.3 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        for _ in 0..80 {
            o.maintenance_round(0.2, &live, &mut r, &mut m);
        }
        let stale_frac = |o: &KademliaOverlay, live: &Liveness| -> f64 {
            let mut stale = 0usize;
            let mut total = 0usize;
            for i in 0..600 {
                if !live.is_online(PeerId::from_idx(i)) {
                    continue;
                }
                for bucket in &o.nodes[i].kbuckets {
                    for &c in bucket {
                        total += 1;
                        if !live.is_online(c) {
                            stale += 1;
                        }
                    }
                }
            }
            stale as f64 / total as f64
        };
        assert!(stale_frac(&o, &live) < 0.02, "stale contacts should be refreshed away");
        assert!(m.totals()[MessageKind::Probe] > 0);

        // Churn join handling: bring everyone back online; refresh sampling
        // must re-admit the rejoined peers into k-buckets.
        let rejoined: Vec<PeerId> =
            (0..600).map(PeerId::from_idx).filter(|&p| !live.is_online(p)).collect();
        assert!(!rejoined.is_empty());
        for &p in &rejoined {
            live.set(p, true);
        }
        for _ in 0..40 {
            o.maintenance_round(0.2, &live, &mut r, &mut m);
        }
        let referenced = (0..600)
            .any(|i| o.nodes[i].kbuckets.iter().any(|b| b.iter().any(|c| rejoined.contains(c))));
        assert!(referenced, "rejoined peers must re-enter routing tables");
    }

    #[test]
    fn drained_bucket_revives_after_its_range_comes_back_online() {
        // Take a whole replica group offline and probe aggressively: the
        // buckets covering that prefix drain (refresh finds no online
        // replacement, so stale entries are evicted). When the group
        // rejoins, maintenance must repopulate those buckets — an emptied
        // bucket staying empty would dead-end every lookup toward that
        // prefix forever.
        let mut o = build(64, 4); // depth 4, 16 groups of 4
        let mut live = Liveness::all_online(64);
        let mut r = rng();
        let dark_group = 9usize;
        let dark: Vec<PeerId> = o.group_members(dark_group).to_vec();
        for &p in &dark {
            live.set(p, false);
        }
        let mut m = Metrics::new();
        for _ in 0..60 {
            o.maintenance_round(1.0, &live, &mut r, &mut m);
        }
        // Some online peer's deepest bucket covered exactly the dark group
        // and must have drained (its id range has no online peer to
        // resample).
        let drained = (0..64).any(|i| {
            live.is_online(PeerId::from_idx(i)) && o.nodes[i].kbuckets.iter().any(Vec::is_empty)
        });
        assert!(drained, "a bucket whose whole range went dark must drain");

        for &p in &dark {
            live.set(p, true);
        }
        for _ in 0..60 {
            o.maintenance_round(1.0, &live, &mut r, &mut m);
        }
        for i in 0..64 {
            for (j, bucket) in o.nodes[i].kbuckets.iter().enumerate() {
                if bucket.is_empty() {
                    let range = o.bucket_range(o.nodes[i].id, j as u32);
                    assert!(
                        range.is_empty(),
                        "bucket {j} of peer {i} must revive once its range is back online"
                    );
                }
            }
        }
        // And routing into the recovered prefix works again from anywhere.
        let key = Key(((dark_group as u64) << 60) | 0x0123_4567_89ab_cdef);
        assert_eq!(o.group_of_key(key), dark_group);
        for from in (0..64).map(PeerId::from_idx) {
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("recovered lookup");
            assert!(o.is_responsible(out.peer, key));
        }
    }

    #[test]
    fn routing_table_size_is_logarithmic() {
        let o = build(4096, 8);
        let avg = (0..4096).map(|p| o.routing_entries(PeerId::from_idx(p))).sum::<usize>() as f64
            / 4096.0;
        // ~BUCKET_K · log2(n/K) full buckets plus a thinning tail; the
        // point is Θ(log n), nowhere near Θ(n).
        assert!((40.0..=130.0).contains(&avg), "avg entries {avg} out of logarithmic band");
    }

    #[test]
    fn degenerate_builds_rejected() {
        assert!(KademliaOverlay::build(0, 4, &mut rng()).is_err());
        assert!(KademliaOverlay::build(10, 0, &mut rng()).is_err());
    }

    #[test]
    fn single_group_overlay_routes_trivially() {
        let o = build(10, 50); // depth 0: everyone responsible for everything
        let live = Liveness::all_online(10);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = o.lookup(PeerId(3), Key(0xdead), &live, &mut r, &mut m).unwrap();
        assert_eq!(out.peer, PeerId(3));
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn next_hop_stepping_matches_one_shot_lookup() {
        let o = build(1000, 8);
        let live = Liveness::all_online(1000);
        let mut r = rng();
        for _ in 0..100 {
            let from = PeerId::from_idx(r.random_range(0..1000));
            let key = Key(r.random::<u64>());
            let mut m1 = Metrics::new();
            let one_shot = o.lookup(from, key, &live, &mut r, &mut m1).expect("lookup");

            let mut m2 = Metrics::new();
            let mut st = o.begin_lookup(from, key);
            let arrived = loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m2).expect("step") {
                    HopOutcome::Arrived(p) => break p,
                    HopOutcome::Forwarded(p) => assert_eq!(p, st.current),
                }
            };
            // Greedy XOR forwarding is deterministic given the tables, so
            // stepping arrives at the same peer with the same cost.
            assert_eq!(arrived, one_shot.peer);
            assert_eq!(st.hops, one_shot.hops);
            assert_eq!(m1.totals()[MessageKind::RouteHop], m2.totals()[MessageKind::RouteHop]);
        }
    }

    #[test]
    fn next_hop_makes_monotone_xor_progress() {
        // Every forward strictly lengthens the common prefix with the key —
        // equivalently, strictly shrinks the XOR distance past the next
        // divergent bit.
        let o = build(4096, 8);
        let live = Liveness::all_online(4096);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..50 {
            let key = Key(r.random::<u64>());
            let from = PeerId::from_idx(r.random_range(0..4096));
            let mut st = o.begin_lookup(from, key);
            let mut last_cpl = Key(o.node_id(from)).common_prefix_len(key);
            let mut last_dist = o.node_id(from) ^ key.0;
            loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m).unwrap() {
                    HopOutcome::Arrived(p) => {
                        assert!(o.is_responsible(p, key));
                        break;
                    }
                    HopOutcome::Forwarded(p) => {
                        let cpl = Key(o.node_id(p)).common_prefix_len(key);
                        let dist = o.node_id(p) ^ key.0;
                        assert!(cpl > last_cpl, "prefix must grow every forward");
                        assert!(dist < last_dist, "XOR distance must shrink every forward");
                        last_cpl = cpl;
                        last_dist = dist;
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_dead_end_reports_failure_without_panicking() {
        let o = build(256, 16);
        let mut live = Liveness::all_offline(256);
        live.set(PeerId(0), true);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut key_rng = rng();
        let key = std::iter::repeat_with(|| Key(key_rng.random::<u64>()))
            .find(|&k| !o.is_responsible(PeerId(0), k))
            .unwrap();
        let mut st = o.begin_lookup(PeerId(0), key);
        let out = o.next_hop(key, &mut st, &live, &mut r, &mut m);
        assert!(matches!(out, Err(PdhtError::LookupFailed { .. })));
    }

    #[test]
    fn two_peer_overlay_works() {
        let o = build(2, 1);
        let live = Liveness::all_online(2);
        let mut r = rng();
        let mut m = Metrics::new();
        for k in [Key(0), Key(u64::MAX), Key(42)] {
            let out = o.lookup(PeerId(0), k, &live, &mut r, &mut m).unwrap();
            assert!(o.is_responsible(out.peer, k));
        }
    }
}
