//! A Chord-style ring DHT (\[StMo01\]).
//!
//! Included to back the paper's claim (Section 1) that the analysis applies
//! to any "traditional DHT": peers sit on a 2^64 identifier ring, a key
//! belongs to the disjoint **replica arc** containing its clockwise
//! successor (see [`ChordOverlay`]), and routing walks fingers that halve
//! the remaining clockwise distance — the same `O(log n)` hop and table
//! asymptotics as the trie, with different constants.

use crate::traits::{HopOutcome, LookupState, Overlay, PlanScratch, Repair};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId, Result};
use rand::rngs::SmallRng;
use rand::Rng;

/// Successor-list length — routing redundancy only; replica groups are the
/// ring arcs described on [`ChordOverlay`] and may be smaller or larger.
const SUCCESSORS: usize = 8;

/// One ring participant.
struct Node {
    /// Position on the ring.
    id: u64,
    /// Finger table: distinct peers at exponentially increasing clockwise
    /// distances.
    fingers: Vec<PeerId>,
    /// The next [`SUCCESSORS`] peers clockwise.
    successors: Vec<PeerId>,
}

/// A Chord-style overlay.
///
/// Replica groups are **consecutive ring arcs**: the sorted ring is cut
/// into `⌈n / group_size⌉` chunks of `group_size` successive positions, and
/// a key belongs to the chunk containing its successor. This gives Chord
/// the same disjoint-partition structure as the trie's leaves (each active
/// peer in exactly one group), which is what the engine's replica gossip
/// and index placement are built on — see the [`Overlay`] trait docs.
pub struct ChordOverlay {
    /// Nodes indexed by `PeerId`.
    nodes: Vec<Node>,
    /// `(ring_id, peer)` sorted by `ring_id` for successor queries.
    ring: Vec<(u64, PeerId)>,
    /// Replica-arc length (`group_size` positions per bucket).
    group_size: usize,
    /// Members of each replica arc, in ring order.
    buckets: Vec<Vec<PeerId>>,
    /// Peer index → its replica-arc index.
    bucket_of: Vec<usize>,
}

impl ChordOverlay {
    /// Builds a ring over `n` peers with replica groups of `group_size`
    /// (capped at `n`).
    ///
    /// # Errors
    /// Fails if `n == 0` or `group_size == 0`.
    pub fn build(n: usize, group_size: usize, rng: &mut SmallRng) -> Result<ChordOverlay> {
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
        // Random distinct ring positions.
        let mut ring: Vec<(u64, PeerId)> = Vec::with_capacity(n);
        let mut used = pdht_types::fasthash::set_with_capacity::<u64>(n * 2);
        for i in 0..n {
            let mut id = rng.random::<u64>();
            while !used.insert(id) {
                id = rng.random::<u64>();
            }
            ring.push((id, PeerId::from_idx(i)));
        }
        ring.sort_unstable_by_key(|&(id, _)| id);

        // Position of each peer in the sorted ring.
        let mut pos_of = vec![0usize; n];
        for (pos, &(_, p)) in ring.iter().enumerate() {
            pos_of[p.idx()] = pos;
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        for (i, &my_pos) in pos_of.iter().enumerate() {
            let my_id = ring[my_pos].0;
            // Successor list.
            let mut successors = Vec::with_capacity(SUCCESSORS.min(n - 1));
            for s in 1..=SUCCESSORS.min(n.saturating_sub(1)) {
                successors.push(ring[(my_pos + s) % n].1);
            }
            // Fingers: for k in 0..64, the successor of my_id + 2^k;
            // deduplicated, excluding self.
            let mut fingers: Vec<PeerId> = Vec::new();
            for k in 0..64 {
                let target = my_id.wrapping_add(1u64 << k);
                let succ = Self::successor_on(&ring, target);
                if succ != PeerId::from_idx(i) && fingers.last() != Some(&succ) {
                    fingers.push(succ);
                }
            }
            fingers.dedup();
            nodes.push(Node { id: my_id, fingers, successors });
        }

        // Replica arcs: chunks of `group_size` consecutive ring positions.
        let group_size = group_size.min(n);
        let mut buckets: Vec<Vec<PeerId>> =
            ring.chunks(group_size).map(|chunk| chunk.iter().map(|&(_, p)| p).collect()).collect();
        // A short trailing chunk would be a degenerate replica group; merge
        // it into its predecessor instead.
        if buckets.len() > 1 && buckets[buckets.len() - 1].len() < group_size {
            let tail = buckets.pop().expect("checked non-empty");
            buckets.last_mut().expect("len > 1").extend(tail);
        }
        let mut bucket_of = vec![0usize; n];
        for (b, members) in buckets.iter().enumerate() {
            for &m in members {
                bucket_of[m.idx()] = b;
            }
        }

        Ok(ChordOverlay { nodes, ring, group_size, buckets, bucket_of })
    }

    /// First peer clockwise from `point` (inclusive).
    fn successor_on(ring: &[(u64, PeerId)], point: u64) -> PeerId {
        let idx = ring.partition_point(|&(id, _)| id < point);
        ring[idx % ring.len()].1
    }

    /// The peer primarily responsible for `key`.
    pub fn successor(&self, key: Key) -> PeerId {
        Self::successor_on(&self.ring, key.0)
    }

    /// Ring id of `peer` (for tests).
    pub fn ring_id(&self, peer: PeerId) -> u64 {
        self.nodes[peer.idx()].id
    }

    /// Is `candidate` in the clockwise half-open arc `(from, to]`?
    #[inline]
    fn in_arc(from: u64, to: u64, candidate: u64) -> bool {
        // Distances measured clockwise from `from`.
        let arc = to.wrapping_sub(from);
        let d = candidate.wrapping_sub(from);
        d != 0 && d <= arc
    }
}

impl Overlay for ChordOverlay {
    fn num_active(&self) -> usize {
        self.nodes.len()
    }

    fn group_count(&self) -> usize {
        self.buckets.len()
    }

    fn group_members(&self, group: usize) -> &[PeerId] {
        &self.buckets[group]
    }

    fn group_of_key(&self, key: Key) -> usize {
        let pos = self.ring.partition_point(|&(id, _)| id < key.0) % self.ring.len();
        // The trailing arc absorbs any short final chunk; clamp into range.
        (pos / self.group_size).min(self.buckets.len() - 1)
    }

    fn group_of_peer(&self, peer: PeerId) -> usize {
        self.bucket_of[peer.idx()]
    }

    fn begin_lookup(&self, from: PeerId, key: Key) -> LookupState {
        // The key's arc is loop-invariant; resolve the ring binary search
        // once so the per-hop responsibility checks are O(1). The budget is
        // a generous step bound: fingers are halving.
        LookupState {
            current: from,
            hops: 0,
            budget: 4 * 64 + 16,
            target_group: self.group_of_key(key),
        }
    }

    fn next_hop(
        &self,
        key: Key,
        state: &mut LookupState,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<HopOutcome> {
        let _ = rng; // Chord routing is deterministic given the tables.

        let current = state.current;
        if self.bucket_of[current.idx()] == state.target_group {
            return Ok(HopOutcome::Arrived(current));
        }
        // Saturating so a caller retrying after budget exhaustion keeps
        // getting the error instead of underflowing (mirrors the trie).
        state.budget = state.budget.saturating_sub(1);
        if state.budget == 0 {
            return Err(PdhtError::LookupFailed {
                key: key.0,
                reason: "routing did not converge".into(),
            });
        }
        let me = &self.nodes[current.idx()];
        // Closest preceding *online* finger within (me, key], falling
        // back through successors. Every contact attempt costs a hop.
        let mut next: Option<PeerId> = None;
        for &f in me.fingers.iter().rev() {
            let fid = self.nodes[f.idx()].id;
            if Self::in_arc(me.id, key.0, fid) {
                state.hops += 1;
                metrics.record(MessageKind::RouteHop);
                if live.is_online(f) {
                    next = Some(f);
                    break;
                }
            }
        }
        if next.is_none() {
            for &s in &me.successors {
                state.hops += 1;
                metrics.record(MessageKind::RouteHop);
                if live.is_online(s) {
                    next = Some(s);
                    break;
                }
            }
        }
        match next {
            Some(p) => {
                // Monotone-progress guard: every legitimate hop strictly
                // shrinks the clockwise distance to the key. A hop that
                // grows it is a successor that overshot the key into a
                // *different* (non-responsible) arc — possible when the
                // key's whole arc is offline and the arc is shorter than
                // the successor list. Routing can never get back in front
                // of the key from there, so fail fast instead of cycling
                // the ring until the hop budget runs out.
                let d_cur = key.0.wrapping_sub(self.nodes[current.idx()].id);
                let d_next = key.0.wrapping_sub(self.nodes[p.idx()].id);
                if d_next >= d_cur && self.bucket_of[p.idx()] != state.target_group {
                    return Err(PdhtError::LookupFailed {
                        key: key.0,
                        reason: format!(
                            "responsible arc unreachable: overshot the key from {current}"
                        ),
                    });
                }
                state.current = p;
                Ok(HopOutcome::Forwarded(p))
            }
            None => Err(PdhtError::LookupFailed {
                key: key.0,
                reason: format!("no online finger or successor from {current}"),
            }),
        }
    }

    #[allow(clippy::too_many_arguments)] // the probe inputs plus plan outputs
    fn maintenance_plan(
        &self,
        peer: PeerId,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        _scratch: &mut PlanScratch,
        out: &mut Vec<Repair>,
    ) {
        // Probe each finger/successor entry with probability env. A stale
        // finger is re-targeted to the next online peer clockwise of its
        // old position; stale successors re-derive the whole list from the
        // ring (both free, by piggybacking). The finger walks are rng-free
        // and read only immutable ids and the ring oracle — never another
        // peer's mutable state — so batched plans replay exactly.
        if !live.is_online(peer) {
            return;
        }
        let i = peer.idx();
        for (fi, &f) in self.nodes[i].fingers.iter().enumerate() {
            if rng.random::<f64>() < env {
                metrics.record(MessageKind::Probe);
                if !live.is_online(f) {
                    let old_id = self.nodes[f.idx()].id;
                    let mut probe_point = old_id.wrapping_add(1);
                    let mut replacement = Self::successor_on(&self.ring, probe_point);
                    let mut guard = 0;
                    while !live.is_online(replacement) && guard < self.ring.len() {
                        probe_point = self.nodes[replacement.idx()].id.wrapping_add(1);
                        replacement = Self::successor_on(&self.ring, probe_point);
                        guard += 1;
                    }
                    if live.is_online(replacement) {
                        out.push(Repair::ChordFinger { peer, slot: fi as u32, to: replacement });
                    }
                }
            }
        }
        let mut any_stale = false;
        for &s in &self.nodes[i].successors {
            if rng.random::<f64>() < env {
                metrics.record(MessageKind::Probe);
                if !live.is_online(s) {
                    any_stale = true;
                }
            }
        }
        if any_stale {
            // The fresh successor list is a pure function of the ring and
            // liveness, both stable until the apply barrier — record a
            // marker and re-derive there.
            out.push(Repair::ChordSuccessors { peer });
        }
    }

    fn maintenance_apply(&mut self, repairs: &[Repair], live: &Liveness) {
        for &r in repairs {
            match r {
                Repair::ChordFinger { peer, slot, to } => {
                    self.nodes[peer.idx()].fingers[slot as usize] = to;
                }
                Repair::ChordSuccessors { peer } => {
                    let i = peer.idx();
                    let my_id = self.nodes[i].id;
                    let n_ring = self.ring.len();
                    let start = self.ring.partition_point(|&(id, _)| id <= my_id) % n_ring;
                    let mut fresh = Vec::with_capacity(SUCCESSORS);
                    let mut off = 0usize;
                    while fresh.len() < SUCCESSORS.min(n_ring - 1) && off < n_ring - 1 {
                        let cand = self.ring[(start + off) % n_ring].1;
                        if live.is_online(cand) {
                            fresh.push(cand);
                        }
                        off += 1;
                    }
                    if !fresh.is_empty() {
                        self.nodes[i].successors = fresh;
                    }
                }
                other => unreachable!("non-Chord repair {other:?} handed to ChordOverlay"),
            }
        }
    }

    fn routing_entries(&self, peer: PeerId) -> usize {
        let node = &self.nodes[peer.idx()];
        node.fingers.len() + node.successors.len()
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
        SmallRng::seed_from_u64(99)
    }

    fn build(n: usize, g: usize) -> ChordOverlay {
        ChordOverlay::build(n, g, &mut rng()).expect("buildable")
    }

    #[test]
    fn successor_is_clockwise_nearest() {
        let o = build(100, 4);
        let mut r = rng();
        for _ in 0..200 {
            let key = Key(r.random::<u64>());
            let succ = o.successor(key);
            let succ_id = o.ring_id(succ);
            // No other peer lies strictly between key and its successor.
            for i in 0..100 {
                let id = o.ring_id(PeerId(i));
                if id == succ_id {
                    continue;
                }
                let d_succ = succ_id.wrapping_sub(key.0);
                let d_other = id.wrapping_sub(key.0);
                assert!(d_other > d_succ || d_other == 0 && key.0 == id);
            }
        }
    }

    #[test]
    fn replica_arcs_partition_the_ring() {
        let o = build(64, 5);
        // 64 peers in arcs of 5: 12 full arcs plus a 4-peer tail merged
        // into the last one.
        assert_eq!(o.group_count(), 12);
        let mut seen = std::collections::HashSet::new();
        for g in 0..o.group_count() {
            let members = o.group_members(g);
            assert!((5..=9).contains(&members.len()), "arc size {}", members.len());
            // Members are consecutive ring positions (strictly increasing
            // ids) and each reports this arc as its group.
            for w in members.windows(2) {
                assert!(o.ring_id(w[0]) < o.ring_id(w[1]));
            }
            for &m in members {
                assert_eq!(o.group_of_peer(m), g);
                assert!(seen.insert(m), "arcs must be disjoint");
            }
        }
        assert_eq!(seen.len(), 64, "arcs must cover every peer");
    }

    #[test]
    fn key_group_contains_its_successor() {
        let o = build(64, 5);
        let mut r = rng();
        for _ in 0..200 {
            let key = Key(r.random::<u64>());
            let group = o.responsible_group(key);
            assert!(group.contains(&o.successor(key)));
            assert!(o.is_responsible(o.successor(key), key));
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
        }
    }

    #[test]
    fn hops_scale_logarithmically() {
        let o = build(2048, 8);
        let live = Liveness::all_online(2048);
        let mut r = rng();
        let mut m = Metrics::new();
        let trials = 2000;
        let mut total = 0u64;
        for _ in 0..trials {
            let from = PeerId::from_idx(r.random_range(0..2048));
            let key = Key(r.random::<u64>());
            total += u64::from(o.lookup(from, key, &live, &mut r, &mut m).unwrap().hops);
        }
        let avg = total as f64 / f64::from(trials);
        // Chord's classic ½·log2(n) ≈ 5.5 for n = 2048; allow slack for the
        // successor-list tail.
        assert!(avg > 3.0 && avg < 9.0, "avg hops {avg} out of logarithmic band");
    }

    #[test]
    fn survives_churn_with_wasted_hops() {
        let o = build(1000, 8);
        let mut live = Liveness::all_online(1000);
        // NOTE: deliberately decorrelated from the build seed — reusing the
        // same stream makes the offline coin flips correlate bitwise with
        // the ring ids drawn during build (an adversarially dead arc).
        let mut r = SmallRng::seed_from_u64(0xd15c0);
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
                // The arrival peer must still be in the key's replica group.
                assert!(o.is_responsible(out.peer, key));
                ok += 1;
            }
        }
        assert!(ok > trials * 7 / 10, "most lookups should survive, ok={ok}");
    }

    #[test]
    fn maintenance_repairs_fingers() {
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
        let mut stale = 0usize;
        let mut total = 0usize;
        for i in 0..600 {
            if !live.is_online(PeerId::from_idx(i)) {
                continue;
            }
            for &f in &o.nodes[i].fingers {
                total += 1;
                if !live.is_online(f) {
                    stale += 1;
                }
            }
        }
        assert!(
            (stale as f64) / (total as f64) < 0.02,
            "stale fingers should be repaired: {stale}/{total}"
        );
        assert!(m.totals()[MessageKind::Probe] > 0);
    }

    #[test]
    fn offline_arc_fails_fast_instead_of_cycling() {
        // Arcs smaller than the successor list: when a key's whole arc is
        // offline, successors overshoot into the next arc and the old
        // routing loop cycled the ring until its ~272-hop budget died.
        // The monotone-progress guard must dead-end within a few hops.
        let o = build(50, 2);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut exercised = 0;
        for _ in 0..40 {
            let key = Key(r.random::<u64>());
            let arc = o.responsible_group(key);
            let mut live = Liveness::all_online(50);
            for &p in &arc {
                live.set(p, false);
            }
            let from = (0..50)
                .map(PeerId::from_idx)
                .find(|&p| live.is_online(p))
                .expect("someone is online");
            let before = m.totals()[MessageKind::RouteHop];
            let out = o.lookup(from, key, &live, &mut r, &mut m);
            let spent = m.totals()[MessageKind::RouteHop] - before;
            assert!(out.is_err(), "whole responsible arc is offline");
            assert!(spent < 60, "dead-end must be cheap, spent {spent} hops");
            exercised += 1;
        }
        assert_eq!(exercised, 40);
    }

    #[test]
    fn routing_table_size_is_logarithmic() {
        let o = build(4096, 8);
        let entries = o.routing_entries(PeerId(0));
        // ~log2(4096) = 12 distinct fingers + 8 successors, modest slack.
        assert!((15..=30).contains(&entries), "entries = {entries}");
    }

    #[test]
    fn degenerate_builds_rejected() {
        assert!(ChordOverlay::build(0, 4, &mut rng()).is_err());
        assert!(ChordOverlay::build(10, 0, &mut rng()).is_err());
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
            // Chord routing is deterministic given the tables, so stepping
            // arrives at the same peer with the same cost.
            assert_eq!(arrived, one_shot.peer);
            assert_eq!(st.hops, one_shot.hops);
            assert_eq!(m1.totals()[MessageKind::RouteHop], m2.totals()[MessageKind::RouteHop]);
        }
    }

    #[test]
    fn next_hop_shrinks_clockwise_distance_every_forward() {
        let o = build(2048, 8);
        let live = Liveness::all_online(2048);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..50 {
            let key = Key(r.random::<u64>());
            let from = PeerId::from_idx(r.random_range(0..2048));
            let mut st = o.begin_lookup(from, key);
            let mut d_last = key.0.wrapping_sub(o.ring_id(from));
            loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m).unwrap() {
                    HopOutcome::Arrived(p) => {
                        assert!(o.is_responsible(p, key));
                        break;
                    }
                    HopOutcome::Forwarded(p) => {
                        let d = key.0.wrapping_sub(o.ring_id(p));
                        assert!(d < d_last, "forwards must make clockwise progress");
                        d_last = d;
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_fails_cleanly_when_nothing_is_online() {
        let o = build(100, 4);
        let live = Liveness::all_offline(100);
        let mut r = rng();
        let mut m = Metrics::new();
        let key = Key(r.random::<u64>());
        let from =
            (0..100).map(PeerId::from_idx).find(|&p| !o.is_responsible(p, key)).expect("someone");
        let mut st = o.begin_lookup(from, key);
        let out = o.next_hop(key, &mut st, &live, &mut r, &mut m);
        assert!(matches!(out, Err(PdhtError::LookupFailed { .. })));
    }

    #[test]
    fn two_peer_ring_works() {
        let o = build(2, 2);
        let live = Liveness::all_online(2);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = o.lookup(PeerId(0), Key(42), &live, &mut r, &mut m).unwrap();
        assert!(o.is_responsible(out.peer, Key(42)));
    }
}
