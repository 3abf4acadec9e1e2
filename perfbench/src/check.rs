//! Output checks: the prefix digest pinned per seed in `expected.tsv`,
//! plus invariants every seed's report must satisfy.

use pdht_core::{PdhtNetwork, SimReport};
use pdht_sim::HistogramSummary;
use pdht_types::{MessageKind, Round};
use std::fmt::Write as _;

/// Recorded prefix results, one `workload seed prefix_rounds msgs digest`
/// line per pinned run (`pdht-perfbench record` prints these lines).
const EXPECTED: &str = include_str!("../expected.tsv");

/// What the checked prefix computed: its exact message total and a digest
/// of its `SimReport` plus exact by-kind counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixResult {
    pub rounds: u64,
    pub msgs: u64,
    pub digest: String,
}

impl PrefixResult {
    /// Summarises rounds `[0, rounds)`, which must have run.
    pub fn of(net: &PdhtNetwork, rounds: u64) -> PrefixResult {
        let rep = net.report(0, rounds - 1);
        let counts = net
            .metrics()
            .counts_between(Round(0), Round(rounds - 1))
            .expect("prefix rounds were simulated");
        let mut canon = String::new();
        for (kind, n) in counts.iter() {
            let _ = write!(canon, "{}={n};", kind.name());
        }
        canonical_report(&rep, &mut canon);
        PrefixResult { rounds, msgs: counts.total(), digest: format!("{:016x}", fnv1a(&canon)) }
    }

    /// The line `record` prints for this result.
    pub fn tsv_line(&self, workload: &str, seed: u64) -> String {
        format!("{workload}\t{seed}\t{}\t{}\t{}", self.rounds, self.msgs, self.digest)
    }
}

/// The recorded result for `(workload, seed)`, if that seed is pinned.
fn expected(workload: &str, seed: u64) -> Option<PrefixResult> {
    EXPECTED.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).find_map(|l| {
        let f: Vec<&str> = l.split('\t').collect();
        (f.len() == 5 && f[0] == workload && f[1].parse() == Ok(seed)).then(|| PrefixResult {
            rounds: f[2].parse().expect("expected.tsv: prefix rounds"),
            msgs: f[3].parse().expect("expected.tsv: message total"),
            digest: f[4].to_string(),
        })
    })
}

/// Compares a computed prefix against the pinned one; `Err` names the
/// mismatch.
pub fn verify_prefix(workload: &str, seed: u64, got: &PrefixResult) -> Result<bool, String> {
    let Some(want) = expected(workload, seed) else { return Ok(false) };
    if want != *got {
        return Err(format!(
            "{workload} seed {seed}: prefix of {} rounds computed {} msgs, digest {}; \
             expected {} rounds, {} msgs, digest {}",
            got.rounds, got.msgs, got.digest, want.rounds, want.msgs, want.digest
        ));
    }
    Ok(true)
}

/// Seed-independent invariants of a window report; `availability` is the
/// churn model's stationary share of online peers.
pub fn report_violation(rep: &SimReport, availability: f64) -> Option<String> {
    if (rep.availability - availability).abs() > 0.05 {
        return Some(format!(
            "measured availability {} is not the churn model's {availability}",
            rep.availability
        ));
    }
    if rep.msgs_per_round <= 0.0 {
        return Some("the window sent no message".into());
    }
    None
}

fn canonical_report(rep: &SimReport, out: &mut String) {
    // Floats at 10 significant digits: a re-association of a mean's sum
    // must not read as a different result.
    let _ = write!(
        out,
        "rounds={}..{};p_indexed={:.9e};indexed_keys={:.9e};availability={:.9e};\
         search_failures={};lookup_failures={};stale_hits={};skipped_offline={};\
         query_timeouts={};gossip_innovative={};gossip_redundant={};gossip_bytes={};",
        rep.rounds.0,
        rep.rounds.1,
        rep.p_indexed,
        rep.indexed_keys,
        rep.availability,
        rep.search_failures,
        rep.lookup_failures,
        rep.stale_hits,
        rep.skipped_offline,
        rep.query_timeouts,
        rep.gossip_innovative,
        rep.gossip_redundant,
        rep.gossip_bytes,
    );
    for (name, h) in [
        ("query_hops", rep.query_hops),
        ("query_latency_us", rep.query_latency_us),
        ("gossip_wave_redundant", rep.gossip_wave_redundant),
        ("gossip_wave_bytes", rep.gossip_wave_bytes),
    ] {
        let h =
            h.unwrap_or(HistogramSummary { count: 0, mean: 0.0, p50: 0, p95: 0, p99: 0, max: 0 });
        let _ = write!(
            out,
            "{name}={},{:.9e},{},{},{},{};",
            h.count, h.mean, h.p50, h.p95, h.p99, h.max
        );
    }
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Messages of `kind` per round in `rep`.
pub fn per_round(rep: &SimReport, kind: MessageKind) -> f64 {
    rep.by_kind.iter().filter(|(k, _)| *k == kind).map(|&(_, v)| v).sum()
}
