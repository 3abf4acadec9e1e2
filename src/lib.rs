//! # pdht — a query-adaptive partial distributed hash table
//!
//! A full reproduction of *"A Query-Adaptive Partial Distributed Hash Table
//! for Peer-to-Peer Systems"* (Klemm, Datta, Aberer — EDBT 2004 workshops):
//! the analytical cost model (Eq. 1–17), every substrate the paper's system
//! rests on (a P-Grid-style trie DHT, a Chord ring, a Gnutella-like
//! unstructured overlay, replica gossip, churn), the TTL-based selection
//! algorithm itself, and the experiment harness regenerating every table
//! and figure of the evaluation (see `DESIGN.md` for the experiment index).
//!
//! This facade crate re-exports the workspace by topic:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `crates/types` | ids, keys, message taxonomy, liveness, RNG streams |
//! | [`zipf`] | `crates/zipf` | Zipf pmf/cdf, per-round probabilities, popularity shift |
//! | [`model`] | `crates/model` | the analytical cost model and figure sweeps |
//! | [`sim`] | `crates/sim` | deterministic event queue, latency models, round driver, metrics, shard pool + outbox barriers |
//! | [`overlay`] | `crates/overlay` | the [`overlay::Overlay`] trait (routing + plan/apply maintenance), trie + Chord + Kademlia DHTs, churn, conformance kit |
//! | [`unstructured`] | `crates/unstructured` | random graphs, flooding, k-random-walks |
//! | [`gossip`] | `crates/gossip` | replica groups, push/pull rumor spreading |
//! | [`workload`] | `crates/workload` | news metadata, key catalogs, query/update streams |
//! | [`core`] | `crates/core` | partial index, TTL policies, the event-driven network engine (one engine: `shards` lanes, one by default) |
//!
//! Two pieces sit outside the facade: `crates/bench` (experiment binaries
//! and criterion micro-benchmarks) and `shims/` (offline stand-ins for
//! `rand`/`proptest`/`criterion`, vendored because the build environment
//! has no crates.io access).
//!
//! The network engine (`core::network`) is message-granular *all the way
//! down*: round phases, the individual hops of in-flight queries, and the
//! per-peer background work — each peer's routing-table maintenance tick,
//! TTL eviction sweep, and the waves of in-flight update propagations —
//! are events on [`sim::EventQueue`]s (phase markers on a global queue,
//! everything else on the queue of the execution lane that owns it, one
//! lane per [`core::PdhtConfig::shards`]), with per-hop delays drawn from a
//! pluggable [`sim::LatencyModel`] ([`core::LatencyConfig`]; `Zero` plus
//! the default [`core::BackgroundSchedule`] reproduces the paper's
//! whole-round semantics bit-for-bit, non-zero models surface p50/p95/p99
//! query latency, jittered schedules spread background work across each
//! round for 100k+-peer scenarios — experiment S4). In-flight contexts
//! park in a generational [`sim::Slab`] and the per-peer stores key by
//! dense index over a flat refcount arena, so event dispatch is
//! allocation-free. The structured overlay is selected at
//! runtime via [`core::OverlayKind`] — the same simulation runs over the
//! paper's trie, a Chord ring, or a Kademlia-style XOR DHT with k-bucket
//! routing and XOR-prefix replica groups (ablation A2 in `DESIGN.md`).
//! Every substrate — current and future — passes the shared
//! [`overlay::conformance`] suite, which property-checks the
//! [`overlay::Overlay`] contract (partition invariants, hop accounting,
//! `lookup` ≡ stepped `next_hop`, batched maintenance plans ≡ per-peer
//! plan-then-apply, determinism, churn liveness) from a single test body
//! per invariant.
//!
//! # Example
//!
//! ```
//! use pdht::model::{Scenario, StrategyCosts};
//!
//! // Reproduce one x-axis point of the paper's Fig. 1.
//! let costs = StrategyCosts::evaluate(&Scenario::table1(), 1.0 / 600.0).unwrap();
//! assert!(costs.partial_ideal < costs.index_all.min(costs.no_index));
//! ```

pub use pdht_core as core;
pub use pdht_gossip as gossip;
pub use pdht_model as model;
pub use pdht_overlay as overlay;
pub use pdht_sim as sim;
pub use pdht_types as types;
pub use pdht_unstructured as unstructured;
pub use pdht_workload as workload;
pub use pdht_zipf as zipf;

/// The crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let s = crate::model::Scenario::table1();
        assert_eq!(s.num_peers, 20_000);
        let d = crate::zipf::ZipfDistribution::new(10, 1.2).unwrap();
        assert!(d.prob(1) > d.prob(10));
        assert!(!crate::VERSION.is_empty());
    }
}
