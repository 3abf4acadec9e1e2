//! Integration tests for the message-granular engine: latency models,
//! in-flight queries, timeouts, and the event hook.

use pdht_core::{
    HookAction, HookPoint, LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, RoundPhase,
    SimReport, Strategy,
};
use pdht_model::Scenario;
use proptest::prelude::*;

fn cfg(strategy: Strategy, latency: LatencyConfig) -> PdhtConfig {
    let mut c = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
    c.latency = latency;
    c
}

fn cfg_on(kind: OverlayKind, strategy: Strategy, latency: LatencyConfig) -> PdhtConfig {
    let mut c = cfg(strategy, latency);
    c.overlay = kind;
    c
}

fn fingerprint(r: &SimReport) -> (u64, String, u64, u64, u64) {
    let hops = r.query_hops.expect("hops histogram populated");
    let lat = r.query_latency_us.expect("latency histogram populated");
    (
        hops.count,
        format!("{:.6}|{:.6}", r.msgs_per_round, r.p_indexed),
        hops.p50 + hops.p95 * 1_000 + hops.p99 * 1_000_000,
        lat.p50,
        lat.p95 + lat.p99,
    )
}

fn run(c: PdhtConfig, rounds: u64) -> (SimReport, usize) {
    let mut net = PdhtNetwork::new(c).expect("network builds");
    net.run(rounds);
    let inflight = net.queries_in_flight();
    (net.report(0, rounds - 1), inflight)
}

#[test]
fn nonzero_latency_populates_deterministic_histograms() {
    let model = LatencyConfig::LogNormal { median_ms: 40.0, sigma: 0.6 };
    let (a, _) = run(cfg(Strategy::Partial, model), 25);
    let (b, _) = run(cfg(Strategy::Partial, model), 25);

    let hops = a.query_hops.expect("hops populated");
    let lat = a.query_latency_us.expect("latency populated");
    assert!(hops.count > 0, "queries must be measured");
    assert!(hops.p99 >= hops.p95 && hops.p95 >= hops.p50);
    assert!(lat.p50 > 0, "non-zero model must produce non-zero latency");
    assert!(lat.p99 >= lat.p95 && lat.p95 >= lat.p50);

    assert_eq!(fingerprint(&a), fingerprint(&b), "same seed + model must reproduce exactly");
}

#[test]
fn zero_latency_histograms_report_hops_but_no_delay() {
    let (r, inflight) = run(cfg(Strategy::Partial, LatencyConfig::Zero), 25);
    let hops = r.query_hops.expect("hops populated");
    let lat = r.query_latency_us.expect("latency populated");
    assert!(hops.count > 0);
    assert_eq!(hops.count, lat.count);
    assert!(hops.p95 > 0, "multi-stage queries take steps even at zero delay");
    assert_eq!(lat.max, 0, "zero latency means zero virtual delay");
    assert_eq!(inflight, 0, "zero-delay queries resolve inline");
}

#[test]
fn slow_networks_leave_queries_in_flight_across_rounds() {
    // Hop delays comparable to the round length: some queries must still be
    // unresolved when their round ends, and resolve in later rounds — on
    // every overlay substrate.
    for kind in OverlayKind::ALL {
        let model = LatencyConfig::Uniform { lo_ms: 300.0, hi_ms: 900.0 };
        let mut net = PdhtNetwork::new(cfg_on(kind, Strategy::Partial, model)).expect("builds");
        let mut saw_inflight = false;
        for _ in 0..30 {
            net.step_round();
            saw_inflight |= net.queries_in_flight() > 0;
        }
        assert!(saw_inflight, "{kind:?}: sub-second hops at 1s rounds must span rounds");
        let r = net.report(0, 29);
        let lat = r.query_latency_us.expect("latency populated");
        assert!(
            lat.max >= 1_000_000,
            "{kind:?}: multi-hop queries at ~600ms/hop must exceed one round, got {} us",
            lat.max
        );
        assert!(r.p_indexed > 0.0, "{kind:?}: pipeline still answers queries");
    }
}

#[test]
fn timeouts_abandon_slow_queries() {
    for kind in OverlayKind::ALL {
        let mut c =
            cfg_on(kind, Strategy::Partial, LatencyConfig::Uniform { lo_ms: 200.0, hi_ms: 400.0 });
        c.query_timeout_secs = Some(0.5);
        let (r, _) = run(c, 30);
        assert!(r.query_timeouts > 0, "{kind:?}: sub-second budget at ~300ms/hop must time out");

        // Without a timeout nothing is abandoned.
        let (r2, _) = run(cfg_on(kind, Strategy::Partial, LatencyConfig::Zero), 30);
        assert_eq!(r2.query_timeouts, 0, "{kind:?}");
    }
}

#[test]
fn hook_injects_blackout_between_churn_and_queries() {
    // The hook fires before every phase; returning a blackout action before
    // round 10's Queries phase (i.e. after its Churn ran) must knock peers
    // out exactly then — visible as a skipped-query spike in that round.
    let mut net = PdhtNetwork::new(cfg(Strategy::Partial, LatencyConfig::Zero)).expect("builds");
    net.set_event_hook(Box::new(|point| match point {
        HookPoint::BeforePhase { round: 10, phase: RoundPhase::Queries } => {
            vec![HookAction::Blackout { fraction: 0.8 }]
        }
        _ => Vec::new(),
    }));
    net.run(12);
    let before = net.report(0, 9);
    let at = net.report(10, 10);
    assert_eq!(before.skipped_offline, 0, "no churn configured before the blackout");
    assert!(
        at.skipped_offline > 0,
        "80% blackout right before the query phase must skip offline origins"
    );
    assert!(at.availability < 0.5, "availability gauge must see the blackout");
}

#[test]
fn hook_fires_before_the_phase_its_background_events_follow() {
    // BeforePhase{OverlayMaintenance} must observe the instant *before*
    // that round's per-peer maintenance ticks dispatch: a total blackout
    // injected there silences that round's probes entirely.
    let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, LatencyConfig::Zero)).expect("builds");
    net.set_event_hook(Box::new(|point| match point {
        HookPoint::BeforePhase { round: 5, phase: RoundPhase::OverlayMaintenance } => {
            vec![HookAction::Blackout { fraction: 1.0 }]
        }
        _ => Vec::new(),
    }));
    net.run(6);
    let probes = |r: &pdht_core::SimReport| -> f64 {
        r.by_kind
            .iter()
            .filter(|(k, _)| *k == pdht_types::MessageKind::Probe)
            .map(|&(_, v)| v)
            .sum()
    };
    assert!(probes(&net.report(4, 4)) > 0.0, "maintenance must probe before the blackout");
    assert_eq!(
        probes(&net.report(5, 5)),
        0.0,
        "a blackout at BeforePhase(OverlayMaintenance) must silence that round's probes"
    );
}

#[test]
fn hook_sees_only_phase_boundaries_under_latency() {
    // Message events ride the lane queues, drained inside parallel passes
    // where a `!Send` hook cannot run: the hook observes the six phase
    // markers of every round, in order, and nothing else — and observing
    // them changes no result.
    use std::cell::RefCell;
    use std::rc::Rc;
    let cfg = cfg(Strategy::Partial, LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 });
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen_hook = Rc::clone(&seen);
    let mut hooked = PdhtNetwork::new(cfg.clone()).expect("builds");
    hooked.set_event_hook(Box::new(move |point| {
        if let HookPoint::BeforePhase { round, phase } = point {
            seen_hook.borrow_mut().push((round, phase));
        }
        Vec::new()
    }));
    hooked.run(5);
    let mut plain = PdhtNetwork::new(cfg).expect("builds");
    plain.run(5);

    let phases = [
        RoundPhase::Churn,
        RoundPhase::OverlayMaintenance,
        RoundPhase::PurgeExpired,
        RoundPhase::ContentUpdates,
        RoundPhase::Queries,
        RoundPhase::Bookkeeping,
    ];
    let expected: Vec<(u64, RoundPhase)> =
        (0..5).flat_map(|r| phases.into_iter().map(move |p| (r, p))).collect();
    assert_eq!(*seen.borrow(), expected, "six phase points per round, in firing order");
    assert!(hooked.report(0, 4).query_hops.is_some_and(|h| h.mean > 0.0), "hops must be delayed");
    assert_eq!(hooked.report(0, 4), plain.report(0, 4), "a passive hook changes nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any latency model preserves seeded determinism, for every strategy,
    /// on every overlay substrate.
    #[test]
    fn any_latency_model_preserves_seeded_determinism(
        seed in any::<u32>(),
        model_idx in 0usize..3,
        strat_idx in 0usize..3,
        overlay_idx in 0usize..3,
    ) {
        let model = [
            LatencyConfig::Zero,
            LatencyConfig::Uniform { lo_ms: 0.0, hi_ms: 30.0 },
            LatencyConfig::LogNormal { median_ms: 25.0, sigma: 0.8 },
        ][model_idx];
        let strategy = [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex][strat_idx];
        let overlay = OverlayKind::ALL[overlay_idx];
        let mk = || {
            let mut c = cfg_on(overlay, strategy, model);
            c.seed = u64::from(seed);
            c
        };
        let (a, a_inflight) = run(mk(), 12);
        let (b, b_inflight) = run(mk(), 12);
        prop_assert_eq!(a.msgs_per_round, b.msgs_per_round);
        prop_assert_eq!(a.by_kind, b.by_kind);
        prop_assert_eq!(a.p_indexed, b.p_indexed);
        prop_assert_eq!(a.query_timeouts, b.query_timeouts);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a_inflight, b_inflight);
    }

    /// Zero latency reproduces the synchronous accounting for all three
    /// strategies: the whole-run totals match a run of the same seed on the
    /// other overlay order of events — i.e. the engine never leaves queries
    /// in flight and round reports close over every message.
    #[test]
    fn zero_latency_resolves_everything_in_round(
        seed in any::<u32>(),
        strat_idx in 0usize..3,
        overlay_idx in 0usize..3,
    ) {
        let strategy = [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex][strat_idx];
        let mut c = cfg_on(OverlayKind::ALL[overlay_idx], strategy, LatencyConfig::Zero);
        c.seed = u64::from(seed);
        let mut net = PdhtNetwork::new(c).expect("builds");
        for _ in 0..10 {
            net.step_round();
            prop_assert_eq!(net.queries_in_flight(), 0);
        }
    }
}
