//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates P2P strategies by counting messages over rounds
//! (one round = 1 s). This crate provides the machinery every simulated
//! subsystem shares:
//!
//! * [`EventQueue`] — a stable priority queue over virtual time (ties break
//!   by insertion order, so runs are reproducible), backed by a
//!   hierarchical timing wheel (amortized O(1) per operation;
//!   [`HeapEventQueue`] keeps the `BinaryHeap` reference backend),
//! * [`Metrics`] — cumulative and per-round message accounting plus named
//!   gauges (index size, hit rate, …) and hop [`Histogram`]s,
//! * [`latency`] — pluggable per-hop [`LatencyModel`]s (zero, uniform,
//!   log-normal) for message-granular engines,
//! * [`random`] — exponential/Poisson/geometric sampling built on plain
//!   `rand` (the offline set has no `rand_distr`),
//! * [`RoundDriver`] — a helper that advances simulations round-by-round
//!   and snapshots metrics at each boundary,
//! * [`shard`] — shard-parallel execution primitives: a [`ShardPool`] of
//!   persistent parked workers plus deterministic cross-shard [`Outbox`]es
//!   merged by `(time, src, seq)` into caller-owned [`MergeBuffers`], so
//!   parallel rounds stay bit-reproducible and the barriers
//!   allocation-free,
//! * [`Slab`] — a generational slab for in-flight per-query/per-update
//!   contexts, so event dispatch parks and resumes state allocation-free,
//! * [`VisitSet`] — a generation-stamped membership set, so per-query
//!   visited maps borrow one engine-owned buffer instead of allocating.

pub mod event;
pub mod latency;
pub mod metrics;
pub mod random;
pub mod scratch;
pub mod shard;
pub mod slab;
pub(crate) mod wheel;

pub use event::{EventQueue, HeapEventQueue, Scheduled};
pub use latency::{LatencyModel, LogNormalLatency, UniformLatency, ZeroLatency};
pub use metrics::{Histogram, HistogramSummary, Metrics, RoundDriver};
pub use scratch::VisitSet;
pub use shard::{merge_outboxes, merge_outboxes_into, MergeBuffers, OutMsg, Outbox, ShardPool};
pub use slab::{Slab, SlabKey};
