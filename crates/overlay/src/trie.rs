//! A P-Grid-style binary-trie DHT.
//!
//! Peers own binary *paths* (bit prefixes of the key space); all peers with
//! the same path form the replica group for the keys under that prefix.
//! Routing resolves one divergent bit per hop: a peer whose path first
//! differs from the key at level `i` forwards to one of its level-`i`
//! references — peers on the "other side" of bit `i` (\[Aber01\]).
//!
//! Construction here is the *balanced* outcome of P-Grid's bootstrap
//! exchanges: with `n` peers and a target replica-group size `g`, the trie
//! has `2^d` leaves with `d = ⌊log2(n/g)⌋`, and peers are dealt round-robin
//! across leaves. The paper's own analysis likewise assumes a balanced
//! binary key space (Section 3.2, footnote 3).

use crate::traits::{HopOutcome, LookupState, Overlay, PlanScratch, Repair};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId, Prefix, Result};
use rand::rngs::SmallRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;

/// Maximum number of references kept per routing level.
const REFS_PER_LEVEL: usize = 4;

/// Routing attempts to distinct references per level before declaring the
/// level dead.
const MAX_ATTEMPTS_PER_LEVEL: usize = REFS_PER_LEVEL;

/// A P-Grid-style trie overlay.
pub struct TrieOverlay {
    /// Trie depth in bits (= path length of every peer; balanced trie).
    depth: u32,
    /// Peer paths: `paths[p]` = the leaf prefix owned by peer `p`.
    paths: Vec<Prefix>,
    /// Members of each leaf: `leaves[leaf_index]` = peer ids.
    leaves: Vec<Vec<PeerId>>,
    /// Routing tables: `refs[p][level]` = up to [`REFS_PER_LEVEL`] peers
    /// whose path agrees with `p`'s on the first `level` bits and differs at
    /// bit `level`.
    refs: Vec<Vec<Vec<PeerId>>>,
}

impl TrieOverlay {
    /// Builds a balanced trie over `n` peers with replica groups of roughly
    /// `group_size` peers.
    ///
    /// # Errors
    /// Fails if `n == 0` or `group_size == 0`.
    pub fn build(n: usize, group_size: usize, rng: &mut SmallRng) -> Result<TrieOverlay> {
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
        // Nearest power of two to n/group_size (in log space), so actual
        // replica groups stay as close to the target size as the binary
        // trie allows — capped so every leaf keeps at least one member
        // (rounding up can otherwise exceed n for tiny group sizes).
        let ratio = (n as f64 / group_size as f64).max(1.0);
        let mut depth = ratio.log2().round().max(0.0) as u32;
        while (1usize << depth) > n {
            depth -= 1;
        }
        let num_leaves = 1usize << depth;

        // Deal peers round-robin over leaves for balance.
        let mut leaves: Vec<Vec<PeerId>> = vec![Vec::new(); num_leaves];
        let mut paths = Vec::with_capacity(n);
        for i in 0..n {
            let leaf = i % num_leaves;
            let prefix = Prefix::new((leaf as u64) << (64 - depth.max(1) as u64), depth);
            paths.push(if depth == 0 { Prefix::ROOT } else { prefix });
            leaves[leaf].push(PeerId::from_idx(i));
        }

        let mut overlay = TrieOverlay { depth, paths, leaves, refs: Vec::new() };
        overlay.rebuild_routing_tables(rng);
        Ok(overlay)
    }

    /// Trie depth (path length).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of leaves (replica groups).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Members of leaf `leaf`.
    ///
    /// # Panics
    /// Panics if `leaf` is out of range.
    pub fn leaf_members(&self, leaf: usize) -> &[PeerId] {
        &self.leaves[leaf]
    }

    /// Leaf index responsible for `key`.
    pub fn leaf_of_key(&self, key: Key) -> usize {
        self.leaf_of(key)
    }

    /// Leaf index that `peer` belongs to.
    pub fn leaf_of_member(&self, peer: PeerId) -> usize {
        self.leaf_of_peer(peer)
    }

    /// The path of `peer`.
    pub fn path_of(&self, peer: PeerId) -> Prefix {
        self.paths[peer.idx()]
    }

    /// Leaf index responsible for `key`.
    #[inline]
    fn leaf_of(&self, key: Key) -> usize {
        if self.depth == 0 {
            0
        } else {
            (key.0 >> (64 - self.depth)) as usize
        }
    }

    /// (Re)builds every peer's routing table by sampling references from
    /// the opposite subtree at each level — the steady-state result of
    /// P-Grid's exchange protocol.
    pub fn rebuild_routing_tables(&mut self, rng: &mut SmallRng) {
        let n = self.paths.len();
        let num_leaves = self.leaves.len();
        let mut refs = Vec::with_capacity(n);
        for p in 0..n {
            let my_leaf = self.leaf_of_peer(PeerId::from_idx(p));
            let mut levels = Vec::with_capacity(self.depth as usize);
            for level in 0..self.depth {
                // Sibling subtree at `level`: leaves that share the first
                // `level` bits of my leaf and differ at bit `level`. The
                // level block [start, start + 2·block) splits into a lower
                // and an upper half; my sibling is whichever half I am not
                // in.
                let block = num_leaves >> (level + 1); // leaves per half
                let my_block_start = (my_leaf >> (self.depth - level)) << (self.depth - level);
                let half = self.depth - level - 1;
                let my_side = (my_leaf >> half) & 1;
                let sibling_start =
                    if my_side == 0 { my_block_start + block } else { my_block_start };
                let mut level_refs = Vec::with_capacity(REFS_PER_LEVEL);
                for _ in 0..REFS_PER_LEVEL {
                    let leaf = sibling_start + rng.random_range(0..block);
                    let members = &self.leaves[leaf];
                    if let Some(&pick) = members.as_slice().choose(rng) {
                        level_refs.push(pick);
                    }
                }
                level_refs.sort_unstable();
                level_refs.dedup();
                levels.push(level_refs);
            }
            refs.push(levels);
        }
        self.refs = refs;
    }

    fn leaf_of_peer(&self, peer: PeerId) -> usize {
        let p = self.paths[peer.idx()];
        if self.depth == 0 {
            0
        } else {
            (p.bits() >> (64 - self.depth)) as usize
        }
    }

    /// Samples a replacement for a stale reference of `peer` at `level`
    /// from the correct sibling subtree, without touching the reference
    /// lists (draws depend only on the immutable leaf partition, so a plan
    /// draws the same whether or not earlier repairs were applied).
    fn sample_replacement(&self, peer: PeerId, level: u32, rng: &mut SmallRng) -> Option<PeerId> {
        let num_leaves = self.leaves.len();
        let my_leaf = self.leaf_of_peer(peer);
        let block = num_leaves >> (level + 1);
        let my_block_start = (my_leaf >> (self.depth - level)) << (self.depth - level);
        let half = self.depth - level - 1;
        let my_side = (my_leaf >> half) & 1;
        let sibling_start = if my_side == 0 { my_block_start + block } else { my_block_start };
        let leaf = sibling_start + rng.random_range(0..block);
        self.leaves[leaf].as_slice().choose(rng).copied()
    }

    /// Replaces `stale` in `peer`'s level-`level` references with
    /// `replacement` (message-free repair; the paper assumes repair
    /// information piggybacks on regular traffic). `None`, or an
    /// already-present pick, evicts the stale reference instead.
    fn apply_ref_repair(
        &mut self,
        peer: PeerId,
        level: u32,
        stale: PeerId,
        replacement: Option<PeerId>,
    ) {
        let level_refs = &mut self.refs[peer.idx()][level as usize];
        if let Some(pos) = level_refs.iter().position(|&r| r == stale) {
            match replacement {
                Some(fresh) if !level_refs.contains(&fresh) => level_refs[pos] = fresh,
                _ => {
                    level_refs.swap_remove(pos);
                }
            }
        }
    }
}

impl Overlay for TrieOverlay {
    fn num_active(&self) -> usize {
        self.paths.len()
    }

    fn group_count(&self) -> usize {
        self.leaves.len()
    }

    fn group_members(&self, group: usize) -> &[PeerId] {
        &self.leaves[group]
    }

    fn group_of_key(&self, key: Key) -> usize {
        self.leaf_of(key)
    }

    fn group_of_peer(&self, peer: PeerId) -> usize {
        self.leaf_of_peer(peer)
    }

    fn is_responsible(&self, peer: PeerId, key: Key) -> bool {
        self.paths[peer.idx()].contains(key)
    }

    fn begin_lookup(&self, from: PeerId, key: Key) -> LookupState {
        // Each hop resolves at least one more leading bit, so routing is
        // bounded by the depth plus retries; belt-and-braces budget below.
        let budget = ((self.depth as usize + 1) * MAX_ATTEMPTS_PER_LEVEL + 8) as u32;
        LookupState { current: from, hops: 0, budget, target_group: self.leaf_of(key) }
    }

    fn next_hop(
        &self,
        key: Key,
        state: &mut LookupState,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<HopOutcome> {
        let path = self.paths[state.current.idx()];
        if path.contains(key) {
            return Ok(HopOutcome::Arrived(state.current));
        }
        let level = key.common_prefix_len(Key(path.bits())).min(self.depth - 1);
        let level_refs = &self.refs[state.current.idx()][level as usize];
        // Try references in random order until one is online. Every
        // attempt is a real message (wasted if the target is offline).
        let mut order: Vec<PeerId> = level_refs.clone();
        order.shuffle(rng);
        for cand in order {
            state.hops += 1;
            // Saturating: once exhausted, each further level gets exactly one
            // attempt before dead-ending (mirrors the attempt-counting loop
            // this replaced).
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
                "no online reference at level {level} from {} after {} hops",
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
        // Probe each reference with probability env; a stale one is
        // replaced by a fresh sample from the correct sibling subtree. The
        // probe sweep and the replacement sampling read only the immutable
        // leaf partition and this peer's own references, so recording
        // repairs and replaying them later is draw-for-draw identical.
        if !live.is_online(peer) {
            return;
        }
        let p = peer.idx();
        for level in 0..self.depth {
            scratch.stale.clear();
            for &r in &self.refs[p][level as usize] {
                if rng.random::<f64>() < env {
                    metrics.record(MessageKind::Probe);
                    if !live.is_online(r) {
                        scratch.stale.push(r);
                    }
                }
            }
            for &s in &scratch.stale {
                let replacement = self.sample_replacement(peer, level, rng);
                out.push(Repair::TrieRef { peer, level, stale: s, replacement });
            }
        }
    }

    fn maintenance_apply(&mut self, repairs: &[Repair], _live: &Liveness) {
        for &r in repairs {
            match r {
                Repair::TrieRef { peer, level, stale, replacement } => {
                    self.apply_ref_repair(peer, level, stale, replacement);
                }
                other => unreachable!("non-trie repair {other:?} handed to TrieOverlay"),
            }
        }
    }

    fn routing_entries(&self, peer: PeerId) -> usize {
        self.refs[peer.idx()].iter().map(Vec::len).sum()
    }

    fn entry_peer(&self, live: &Liveness, rng: &mut SmallRng) -> Option<PeerId> {
        // Sample a handful of random active peers; fall back to a scan.
        for _ in 0..16 {
            let cand = PeerId::from_idx(rng.random_range(0..self.paths.len()));
            if live.is_online(cand) {
                return Some(cand);
            }
        }
        (0..self.paths.len()).map(PeerId::from_idx).find(|&p| live.is_online(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn build(n: usize, g: usize) -> TrieOverlay {
        TrieOverlay::build(n, g, &mut rng()).expect("buildable")
    }

    #[test]
    fn depth_matches_population_and_group_size() {
        assert_eq!(build(1600, 50).depth(), 5); // 32 leaves, exact
        assert_eq!(build(400, 50).depth(), 3); // 8 leaves, exact
        assert_eq!(build(50, 50).depth(), 0); // single leaf

        // 20 000/50 = 400 → log2 ≈ 8.64 rounds to 9 (512 leaves of ~39):
        // closer to the target in log space than 256 leaves of 78.
        assert_eq!(build(20_000, 50).depth(), 9);
    }

    #[test]
    fn every_leaf_is_roughly_group_sized() {
        let o = build(1600, 50);
        for leaf in &o.leaves {
            assert_eq!(leaf.len(), 50, "round-robin deal must balance exactly here");
        }
        // Non-exact ratios stay within a factor √2 of the target.
        let o = build(20_000, 50);
        for leaf in &o.leaves {
            assert!((35..=72).contains(&leaf.len()), "leaf size {}", leaf.len());
        }
    }

    #[test]
    fn paths_partition_the_key_space() {
        let o = build(512, 32);
        // Every key must be contained in exactly the leaf it maps to.
        let mut r = rng();
        for _ in 0..200 {
            let key = Key(r.random::<u64>());
            let group = o.responsible_group(key);
            assert!(!group.is_empty());
            for &p in &group {
                assert!(o.is_responsible(p, key));
                assert!(o.path_of(p).contains(key));
            }
        }
    }

    #[test]
    fn lookup_reaches_a_responsible_peer() {
        let o = build(1024, 16);
        let live = Liveness::all_online(1024);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..300 {
            let from = PeerId::from_idx(r.random_range(0..1024));
            let key = Key(r.random::<u64>());
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("lookup");
            assert!(o.is_responsible(out.peer, key));
            assert!(out.hops <= o.depth() * REFS_PER_LEVEL as u32);
        }
    }

    #[test]
    fn average_hops_is_about_half_depth() {
        // With random start and random key, the expected number of divergent
        // levels is depth/2 — the simulator analogue of Eq. 7's ½·log2.
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
        let expect = f64::from(o.depth()) / 2.0;
        assert!((avg - expect).abs() < 0.25, "avg hops {avg} should be ≈ depth/2 = {expect}");
    }

    #[test]
    fn lookup_counts_every_hop_in_metrics() {
        let o = build(256, 16);
        let live = Liveness::all_online(256);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut manual = 0u64;
        for _ in 0..50 {
            let out = o.lookup(PeerId(0), Key(r.random::<u64>()), &live, &mut r, &mut m).unwrap();
            manual += u64::from(out.hops);
        }
        assert_eq!(m.totals()[MessageKind::RouteHop], manual);
    }

    #[test]
    fn offline_references_waste_hops_but_lookup_survives() {
        let o = build(1024, 16);
        let mut live = Liveness::all_online(1024);
        let mut r = rng();
        // Take 30 % of peers offline.
        for i in 0..1024 {
            if r.random::<f64>() < 0.3 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        let mut ok = 0;
        let mut failed = 0;
        let trials = 400;
        for _ in 0..trials {
            let from = loop {
                let c = PeerId::from_idx(r.random_range(0..1024));
                if live.is_online(c) {
                    break c;
                }
            };
            match o.lookup(from, Key(r.random::<u64>()), &live, &mut r, &mut m) {
                Ok(out) => {
                    assert!(live.is_online(out.peer), "must terminate at an online peer");
                    ok += 1;
                }
                Err(PdhtError::LookupFailed { .. }) => failed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > trials * 8 / 10, "most lookups should survive 30% churn, ok={ok}");
        let _ = failed;
    }

    #[test]
    fn maintenance_probes_at_env_rate_and_repairs() {
        let mut o = build(2048, 16);
        let mut live = Liveness::all_online(2048);
        let mut r = rng();
        // Knock out 20 % of the peers, run maintenance with a high probe
        // rate, and verify the surviving peers' tables stop pointing at
        // dead peers.
        for i in 0..2048 {
            if r.random::<f64>() < 0.2 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        for _ in 0..60 {
            o.maintenance_round(0.2, &live, &mut r, &mut m);
        }
        assert!(m.totals()[MessageKind::Probe] > 0);
        let mut stale_left = 0usize;
        let mut total_refs = 0usize;
        for p in 0..2048 {
            let peer = PeerId::from_idx(p);
            if !live.is_online(peer) {
                continue;
            }
            for level in &o.refs[p] {
                for &r2 in level {
                    total_refs += 1;
                    if !live.is_online(r2) {
                        stale_left += 1;
                    }
                }
            }
        }
        let stale_frac = stale_left as f64 / total_refs as f64;
        assert!(
            stale_frac < 0.01,
            "after heavy probing almost no stale refs should remain ({stale_frac})"
        );
    }

    #[test]
    fn probe_volume_matches_env_expectation() {
        let mut o = build(1000, 10);
        let live = Liveness::all_online(1000);
        let mut r = rng();
        let mut m = Metrics::new();
        let env = 0.05;
        let rounds = 200;
        for _ in 0..rounds {
            o.maintenance_round(env, &live, &mut r, &mut m);
        }
        let total_entries: usize = (0..1000).map(|p| o.routing_entries(PeerId::from_idx(p))).sum();
        let expected = env * total_entries as f64 * f64::from(rounds);
        let got = m.totals()[MessageKind::Probe] as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "probe count {got} should be ~{expected}"
        );
    }

    #[test]
    fn entry_peer_finds_an_online_peer() {
        let o = build(64, 8);
        let mut live = Liveness::all_offline(64);
        live.set(PeerId(17), true);
        let mut r = rng();
        assert_eq!(o.entry_peer(&live, &mut r), Some(PeerId(17)));
        let none = Liveness::all_offline(64);
        assert_eq!(o.entry_peer(&none, &mut r), None);
    }

    #[test]
    fn single_leaf_trie_routes_trivially() {
        let o = build(10, 50); // depth 0: everyone responsible for everything
        let live = Liveness::all_online(10);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = o.lookup(PeerId(3), Key(0xdead), &live, &mut r, &mut m).unwrap();
        assert_eq!(out.peer, PeerId(3));
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn build_rejects_degenerate_input() {
        assert!(TrieOverlay::build(0, 10, &mut rng()).is_err());
        assert!(TrieOverlay::build(10, 0, &mut rng()).is_err());
    }

    #[test]
    fn next_hop_stepping_matches_one_shot_lookup() {
        // Driving the step API by hand, with an identically seeded rng, must
        // reproduce lookup() exactly: same arrival peer, same hop count.
        let o = build(1024, 16);
        let live = Liveness::all_online(1024);
        let mut r_pick = rng();
        for _ in 0..100 {
            let from = PeerId::from_idx(r_pick.random_range(0..1024));
            let key = Key(r_pick.random::<u64>());
            let seed = r_pick.random::<u64>();
            let mut m1 = Metrics::new();
            let one_shot = o
                .lookup(from, key, &live, &mut SmallRng::seed_from_u64(seed), &mut m1)
                .expect("lookup");

            let mut r2 = SmallRng::seed_from_u64(seed);
            let mut m2 = Metrics::new();
            let mut st = o.begin_lookup(from, key);
            let arrived = loop {
                match o.next_hop(key, &mut st, &live, &mut r2, &mut m2).expect("step") {
                    HopOutcome::Arrived(p) => break p,
                    HopOutcome::Forwarded(p) => assert_eq!(p, st.current),
                }
            };
            assert_eq!(arrived, one_shot.peer);
            assert_eq!(st.hops, one_shot.hops);
            assert_eq!(m1.totals()[MessageKind::RouteHop], m2.totals()[MessageKind::RouteHop]);
        }
    }

    #[test]
    fn next_hop_makes_monotone_prefix_progress() {
        // Every forward strictly lengthens the common prefix between the
        // current peer's path and the key — the trie's routing invariant.
        let o = build(4096, 8);
        let live = Liveness::all_online(4096);
        let mut r = rng();
        for _ in 0..50 {
            let key = Key(r.random::<u64>());
            let from = PeerId::from_idx(r.random_range(0..4096));
            let mut st = o.begin_lookup(from, key);
            let mut last_cpl = key.common_prefix_len(Key(o.path_of(from).bits()));
            let mut m = Metrics::new();
            loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m).unwrap() {
                    HopOutcome::Arrived(p) => {
                        assert!(o.is_responsible(p, key));
                        break;
                    }
                    HopOutcome::Forwarded(p) => {
                        let cpl = key.common_prefix_len(Key(o.path_of(p).bits()));
                        assert!(cpl > last_cpl.min(o.depth() - 1), "prefix must grow");
                        last_cpl = cpl;
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_dead_end_reports_failure_without_panicking() {
        let o = build(256, 16);
        // Everyone except the start peer offline: the first step must fail.
        let mut live = Liveness::all_offline(256);
        live.set(PeerId(0), true);
        let mut r = rng();
        let mut m = Metrics::new();
        // Pick a key peer 0 is not responsible for.
        let key = (0..)
            .map(|i| Key(rng().random::<u64>().wrapping_add(i)))
            .find(|&k| !o.is_responsible(PeerId(0), k))
            .unwrap();
        let mut st = o.begin_lookup(PeerId(0), key);
        let out = o.next_hop(key, &mut st, &live, &mut r, &mut m);
        assert!(matches!(out, Err(PdhtError::LookupFailed { .. })));
    }
}
