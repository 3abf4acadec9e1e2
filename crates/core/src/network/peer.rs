//! Per-peer index state.
//!
//! Every active peer owns a [`PartialIndex`] (its slice of the distributed
//! index); the engine additionally needs the *global* count of distinct
//! indexed keys — the paper's `indexSize` metric (Fig. 3). Keeping the
//! replica-copy reference counts next to the stores, behind one facade,
//! means no call site can update a store and forget the accounting (the
//! monolithic engine threaded two `&mut` maps through every closure to
//! achieve the same).
//!
//! The accounting is a **flattened arena**: one `u32` refcount per dense
//! key index in a plain `Vec`, plus a distinct-key counter. Insert, purge
//! and eviction bookkeeping are integer bumps — no hashing, no allocation —
//! which keeps the per-event TTL sweeps and query-path store updates
//! allocation-free at 100k-peer scale.
//!
//! # Sharding
//!
//! For shard-parallel rounds the stores are grouped into [`StoreShard`]
//! regions: peers of the same replica group always land in the same shard
//! (the engine assigns shard = the group's shard), each shard keeps its own
//! refcounts and distinct-key counter, and a `peer → (shard, local index)`
//! slot table translates ids. Because a key is only ever stored at its
//! responsible group — true at every insert site: the query pipeline, TTL
//! sweeps, and IndexAll preload/gossip all write at group members — each
//! key's copies live entirely inside one shard, so per-shard `distinct`
//! counts are disjoint and the global gauge is their sum. The unsharded
//! constructor is the single-shard identity mapping.

use crate::index::{InsertResult, PartialIndex};
use crate::ttl::Ttl;
use pdht_gossip::VersionedValue;
use pdht_types::{Key, PeerId};

/// One shard's worth of peer stores plus its disjoint slice of the
/// distinct-key accounting. All methods address peers by their
/// *shard-local* dense index.
pub(crate) struct StoreShard {
    /// The member peers' [`PartialIndex`]es, in shard-local order.
    stores: Vec<PartialIndex>,
    /// Replica copies resident in this shard, per dense key index.
    copies: Vec<u32>,
    /// Keys with at least one resident copy in this shard.
    distinct: usize,
    /// Reusable scratch for per-peer purge sweeps.
    purge_buf: Vec<u32>,
}

impl StoreShard {
    fn new(members: usize, capacity: usize, num_keys: usize) -> StoreShard {
        StoreShard {
            stores: (0..members).map(|_| PartialIndex::new(capacity)).collect(),
            copies: vec![0; num_keys],
            distinct: 0,
            purge_buf: Vec::new(),
        }
    }

    /// Distinct keys resident in this shard.
    pub(crate) fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Inserts key index `idx` (routed key `key`) at shard-local peer
    /// `local`, maintaining the distinct-key accounting for both the insert
    /// and any eviction it caused.
    pub(crate) fn insert_local(
        &mut self,
        local: usize,
        idx: u32,
        key: Key,
        value: VersionedValue,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        let res = self.stores[local].insert(idx, key, value, now, ttl);
        if res.was_new {
            let c = &mut self.copies[idx as usize];
            if *c == 0 {
                self.distinct += 1;
            }
            *c += 1;
        }
        if let Some(victim) = res.evicted {
            self.drop_copy(victim);
        }
        res
    }

    /// Read-through at shard-local peer `local`, refreshing the entry's TTL
    /// on hit (the selection algorithm's refresh-on-query rule).
    pub(crate) fn get_and_refresh_local(
        &mut self,
        local: usize,
        idx: u32,
        now: u64,
        ttl: Ttl,
    ) -> Option<VersionedValue> {
        self.stores[local].get_and_refresh(idx, now, ttl)
    }

    /// Non-refreshing visibility check at shard-local peer `local`.
    pub(crate) fn peek_local(&self, local: usize, idx: u32, now: u64) -> Option<VersionedValue> {
        self.stores[local].peek(idx, now)
    }

    /// Evicts every expired entry at shard-local peer `local`, updating the
    /// accounting.
    pub(crate) fn purge_expired_local(&mut self, local: usize, now: u64) {
        let mut buf = std::mem::take(&mut self.purge_buf);
        buf.clear();
        self.stores[local].purge_expired_into(now, &mut buf);
        for &idx in &buf {
            self.drop_copy(idx);
        }
        self.purge_buf = buf;
    }

    /// Snapshot of a shard-local peer's live entries.
    pub(crate) fn snapshot_local(&self, local: usize) -> Vec<(u32, Key, VersionedValue)> {
        self.stores[local].iter().map(|(idx, e)| (idx, e.key, e.value)).collect()
    }

    fn drop_copy(&mut self, idx: u32) {
        let c = &mut self.copies[idx as usize];
        debug_assert!(*c > 0, "refcount underflow for key index {idx}");
        *c -= 1;
        if *c == 0 {
            self.distinct -= 1;
        }
    }
}

/// The per-peer TTL stores of all active peers, plus distinct-key
/// accounting across them, grouped into [`StoreShard`] regions.
pub(crate) struct PeerStores {
    /// `peer → (shard, shard-local index)`.
    slot: Vec<(u16, u32)>,
    shards: Vec<StoreShard>,
}

impl PeerStores {
    /// `nap` empty stores of `capacity` entries each in a single shard
    /// (identity slot mapping), over a key universe of `num_keys` dense
    /// indices — the one-lane layout the unit tests exercise peer by peer.
    #[cfg(test)]
    pub(crate) fn new(nap: usize, capacity: usize, num_keys: usize) -> PeerStores {
        PeerStores {
            slot: (0..nap).map(|i| (0, i as u32)).collect(),
            shards: vec![StoreShard::new(nap, capacity, num_keys)],
        }
    }

    /// Stores split into `num_shards` regions: peer `p` lives in shard
    /// `assign[p]`, shard-local indices dense in ascending peer order.
    /// Shards with no members still get an (empty) region, so the engine's
    /// lane list always zips cleanly.
    ///
    /// # Panics
    /// Panics if `assign` names a shard `>= num_shards`.
    pub(crate) fn new_sharded(
        assign: &[u16],
        num_shards: usize,
        capacity: usize,
        num_keys: usize,
    ) -> PeerStores {
        let mut members = vec![0u32; num_shards];
        let slot: Vec<(u16, u32)> = assign
            .iter()
            .map(|&s| {
                let local = members[s as usize];
                members[s as usize] += 1;
                (s, local)
            })
            .collect();
        PeerStores {
            slot,
            shards: members
                .iter()
                .map(|&m| StoreShard::new(m as usize, capacity, num_keys))
                .collect(),
        }
    }

    /// The slot table and the mutable shard regions, for callers that hand
    /// each region to a different worker (the shard-parallel query phase).
    pub(crate) fn split_mut(&mut self) -> (&[(u16, u32)], &mut [StoreShard]) {
        (&self.slot, &mut self.shards)
    }

    fn local(&self, peer: PeerId) -> (usize, usize) {
        let (s, l) = self.slot[peer.idx()];
        (s as usize, l as usize)
    }

    /// Distinct keys resident in at least one store (sum over shards —
    /// disjoint because every key's copies live inside one shard).
    pub(crate) fn distinct_keys(&self) -> usize {
        self.shards.iter().map(StoreShard::distinct_keys).sum()
    }

    /// Inserts key index `idx` (routed key `key`) at `peer`, maintaining
    /// the distinct-key accounting for both the insert and any eviction it
    /// caused. Returns the raw result for callers that assert fit.
    pub(crate) fn insert(
        &mut self,
        peer: PeerId,
        idx: u32,
        key: Key,
        value: VersionedValue,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        let (s, l) = self.local(peer);
        self.shards[s].insert_local(l, idx, key, value, now, ttl)
    }

    /// Non-refreshing visibility check at `peer`. The simulation paths all
    /// go through [`ShardStores::peek`] now; the facade form remains for
    /// the unit tests exercising store semantics peer-by-peer.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn peek(&self, peer: PeerId, idx: u32, now: u64) -> Option<VersionedValue> {
        let (s, l) = self.local(peer);
        self.shards[s].peek_local(l, idx, now)
    }

    /// Evicts every expired entry at `peer`, updating the accounting
    /// (engine sweeps go through [`ShardStores::purge_expired`]).
    #[cfg(test)]
    pub(crate) fn purge_expired(&mut self, peer: PeerId, now: u64) {
        let (s, l) = self.local(peer);
        self.shards[s].purge_expired_local(l, now);
    }

    /// Snapshot of `peer`'s live entries (rejoin donors hand this over).
    pub(crate) fn snapshot(&self, peer: PeerId) -> Vec<(u32, Key, VersionedValue)> {
        let (s, l) = self.local(peer);
        self.shards[s].snapshot_local(l)
    }
}

/// One shard's view of the peer stores: the shared slot table plus
/// exclusive access to that shard's region. This is what a query lane
/// carries — peer-id-keyed like the facade, but confined (checked in debug
/// builds) to peers the shard owns.
pub(crate) struct ShardStores<'a> {
    pub(crate) slot: &'a [(u16, u32)],
    pub(crate) shard_id: u16,
    pub(crate) shard: &'a mut StoreShard,
}

impl ShardStores<'_> {
    fn local(&self, peer: PeerId) -> usize {
        let (s, l) = self.slot[peer.idx()];
        debug_assert_eq!(
            s, self.shard_id,
            "peer {peer:?} belongs to store shard {s}, not {}",
            self.shard_id
        );
        l as usize
    }

    /// See [`PeerStores::insert`].
    pub(crate) fn insert(
        &mut self,
        peer: PeerId,
        idx: u32,
        key: Key,
        value: VersionedValue,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        let l = self.local(peer);
        self.shard.insert_local(l, idx, key, value, now, ttl)
    }

    /// Read-through at `peer`, refreshing the entry's TTL on hit
    /// (the selection algorithm's refresh-on-query rule).
    pub(crate) fn get_and_refresh(
        &mut self,
        peer: PeerId,
        idx: u32,
        now: u64,
        ttl: Ttl,
    ) -> Option<VersionedValue> {
        let l = self.local(peer);
        self.shard.get_and_refresh_local(l, idx, now, ttl)
    }

    /// See [`PeerStores::peek`].
    pub(crate) fn peek(&self, peer: PeerId, idx: u32, now: u64) -> Option<VersionedValue> {
        self.shard.peek_local(self.local(peer), idx, now)
    }

    /// See [`PeerStores::purge_expired`] (lane-local TTL sweeps dispatch
    /// here: the sweep event lives on the shard owning the peer's store).
    pub(crate) fn purge_expired(&mut self, peer: PeerId, now: u64) {
        let l = self.local(peer);
        self.shard.purge_expired_local(l, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: VersionedValue = VersionedValue { version: 1, data: 7 };

    fn k(idx: u32) -> Key {
        Key::hash_bytes(&u64::from(idx).to_le_bytes())
    }

    #[test]
    fn distinct_keys_track_copies_not_replicas() {
        let mut p = PeerStores::new(3, 8, 64);
        p.insert(PeerId(0), 42, k(42), V, 0, Ttl::Rounds(10));
        p.insert(PeerId(1), 42, k(42), V, 0, Ttl::Rounds(10));
        assert_eq!(p.distinct_keys(), 1, "two replicas, one key");
        p.insert(PeerId(2), 43, k(43), V, 0, Ttl::Rounds(10));
        assert_eq!(p.distinct_keys(), 2);
    }

    #[test]
    fn purge_releases_accounting() {
        let mut p = PeerStores::new(2, 8, 16);
        p.insert(PeerId(0), 1, k(1), V, 0, Ttl::Rounds(5));
        p.insert(PeerId(1), 1, k(1), V, 0, Ttl::Rounds(5));
        p.purge_expired(PeerId(0), 100);
        assert_eq!(p.distinct_keys(), 1, "one replica still holds the key");
        p.purge_expired(PeerId(1), 100);
        assert_eq!(p.distinct_keys(), 0);
    }

    #[test]
    fn eviction_by_capacity_is_accounted() {
        let mut p = PeerStores::new(1, 1, 4);
        p.insert(PeerId(0), 1, k(1), V, 0, Ttl::Rounds(10));
        let res = p.insert(PeerId(0), 2, k(2), V, 0, Ttl::Rounds(10));
        assert!(res.evicted.is_some(), "capacity 1 must evict");
        assert_eq!(p.distinct_keys(), 1);
        assert!(p.peek(PeerId(0), 2, 0).is_some());
        assert!(p.peek(PeerId(0), 1, 0).is_none());
    }

    #[test]
    fn snapshot_returns_live_entries() {
        let mut p = PeerStores::new(1, 8, 4);
        p.insert(PeerId(0), 1, k(1), V, 0, Ttl::Rounds(10));
        p.insert(PeerId(0), 2, k(2), V, 0, Ttl::Rounds(10));
        let mut snap = p.snapshot(PeerId(0));
        snap.sort_by_key(|&(idx, _, _)| idx);
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].0, snap[0].1), (1, k(1)));
    }

    #[test]
    fn repeated_purges_reuse_the_scratch_buffer() {
        let mut p = PeerStores::new(1, 8, 8);
        for round in 0..4u64 {
            p.insert(PeerId(0), 1, k(1), V, round, Ttl::Rounds(1));
            p.purge_expired(PeerId(0), round + 1);
            assert_eq!(p.distinct_keys(), 0);
        }
    }

    #[test]
    fn sharded_layout_routes_peers_to_their_region() {
        // Peers 0,2 in shard 0; peers 1,3 in shard 1.
        let assign = [0u16, 1, 0, 1];
        let mut p = PeerStores::new_sharded(&assign, 2, 8, 16);
        p.insert(PeerId(0), 1, k(1), V, 0, Ttl::Rounds(5));
        p.insert(PeerId(2), 1, k(1), V, 0, Ttl::Rounds(5));
        p.insert(PeerId(1), 2, k(2), V, 0, Ttl::Rounds(5));
        p.insert(PeerId(3), 3, k(3), V, 0, Ttl::Rounds(5));
        assert_eq!(p.distinct_keys(), 3, "global distinct is the sum over shards");
        assert!(p.peek(PeerId(2), 1, 0).is_some());
        assert!(p.peek(PeerId(2), 2, 0).is_none());
        let (slot, shards) = p.split_mut();
        assert_eq!(slot, &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].distinct_keys(), 1, "key 1 lives wholly in shard 0");
        assert_eq!(shards[1].distinct_keys(), 2);
    }

    #[test]
    fn empty_shards_still_materialize() {
        let assign = [2u16, 2];
        let mut p = PeerStores::new_sharded(&assign, 4, 8, 8);
        let (_, shards) = p.split_mut();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[2].stores.len(), 2);
        assert!(shards[0].stores.is_empty());
    }

    #[test]
    fn shard_view_matches_facade() {
        let assign = [0u16, 1, 0, 1];
        let mut p = PeerStores::new_sharded(&assign, 2, 8, 16);
        p.insert(PeerId(1), 5, k(5), V, 0, Ttl::Rounds(9));
        let (slot, shards) = p.split_mut();
        let mut view = ShardStores { slot, shard_id: 1, shard: &mut shards[1] };
        assert!(view.peek(PeerId(1), 5, 0).is_some());
        view.insert(PeerId(3), 6, k(6), V, 0, Ttl::Rounds(9));
        assert!(view.get_and_refresh(PeerId(3), 6, 1, Ttl::Rounds(9)).is_some());
        assert_eq!(p.distinct_keys(), 2);
        assert!(p.peek(PeerId(3), 6, 1).is_some());
    }
}
