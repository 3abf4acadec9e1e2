//! The benchmark workloads and their shape guards.
//!
//! Every workload is Table-1 shaped with the population overridden, runs
//! under Gnutella-like churn with each peer's maintenance and TTL ticks
//! jittered over 900 ms of the round, and stresses a different layer. The
//! reasons, and why there is no zero-latency walk workload, are recorded in
//! `perfbench/README.md` and `BENCHMARK.json`.

use pdht_core::{
    BackgroundSchedule, GossipCodec, LatencyConfig, OverlayKind, PdhtConfig, SimReport, Strategy,
    TtlPolicy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// IndexAll at 100k peers with coded update gossip beside the reads.
    GossipCoded,
    /// Partial at 100k peers on Chord with log-normal hop latency, 2 shards.
    LatencySharded,
}

/// Full size is what the benchmark measures; toy size runs the same code
/// paths in well under a second, for the smoke self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::GossipCoded, Workload::LatencySharded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GossipCoded => "gossip_coded",
            Workload::LatencySharded => "latency_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads for the shard pool (the host has 2 cpus).
    pub fn threads(self) -> usize {
        match self {
            Workload::LatencySharded => 2,
            Workload::GossipCoded => 1,
        }
    }

    /// Rounds run before timing starts. They are a fixed, seed-determined
    /// prefix, so their `SimReport` digest is what the output check pins.
    /// `gossip_coded` needs ~50 rounds before its index has filled, and
    /// `latency_sharded` ~250 before its 30 s timeouts and 200-round TTL
    /// expiries have reached their steady rates.
    pub fn prefix_rounds(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::GossipCoded, Scale::Full) => 60,
            (Workload::LatencySharded, Scale::Full) => 250,
            (_, Scale::Toy) => 5,
        }
    }

    pub fn config(self, scale: Scale, seed: u64) -> PdhtConfig {
        let (peers, keys) =
            if scale == Scale::Toy { (2_000, 4_000) } else { (100_000, Scenario::table1().keys) };
        let mut scenario = Scenario { num_peers: peers, keys, ..Scenario::table1() };
        let (f_qry, strategy) = match self {
            Workload::GossipCoded => {
                scenario.f_upd = 1.0 / 120.0;
                (1.0 / 600.0, Strategy::IndexAll)
            }
            Workload::LatencySharded => (1.0 / 60.0, Strategy::Partial),
        };
        let mut cfg = PdhtConfig::new(scenario, f_qry, strategy);
        cfg.seed = seed;
        cfg.ttl_policy = TtlPolicy::Fixed(200);
        cfg.purge_stride = 8;
        cfg.churn = ChurnConfig::gnutella_like();
        cfg.background =
            BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
        match self {
            Workload::GossipCoded => {
                cfg.gossip_codec = GossipCodec::RlncSparse;
                cfg.gossip_generation = 32;
            }
            Workload::LatencySharded => {
                cfg.overlay = OverlayKind::Chord;
                cfg.latency = LatencyConfig::LogNormal { median_ms: 40.0, sigma: 1.0 };
                cfg.query_timeout_secs = Some(30.0);
                cfg.shards = 2;
            }
        }
        cfg
    }

    /// Checks that the workload still exercises the layer it exists for;
    /// returns the violated guard. `rep` covers the timed window,
    /// `events_per_round` is the engine's dispatch rate over it and
    /// `background_per_round` the per-peer maintenance and TTL ticks alone.
    pub fn shape_violation(
        self,
        rep: &SimReport,
        events_per_round: f64,
        background_per_round: f64,
    ) -> Option<String> {
        match self {
            Workload::GossipCoded => {
                if rep.gossip_bytes == 0 {
                    return Some("gossip_bytes = 0: no update wave ran".into());
                }
                if rep.gossip_innovative == 0 {
                    return Some("no innovative gossip receive".into());
                }
            }
            Workload::LatencySharded => {
                let p50 = rep.query_latency_us.map_or(0, |h| h.p50);
                if p50 == 0 {
                    return Some("query-latency p50 is 0: hops are not delayed".into());
                }
                // At zero latency the queue sees little beyond the
                // background ticks; here every hop is a scheduled event.
                let floor = 2.0 * background_per_round;
                if events_per_round < floor {
                    return Some(format!(
                        "{events_per_round:.0} events/round, need >= {floor:.0} (twice the \
                         background ticks): hops are not scheduled"
                    ));
                }
            }
        }
        None
    }
}
