//! A reusable conformance suite for [`Overlay`] implementations.
//!
//! The [`Overlay`] trait documents invariants — a disjoint replica
//! partition, hop accounting, routing termination, resumable stepping —
//! that every substrate must uphold for the engine to hold it as a
//! `Box<dyn Overlay>`. This module property-checks that contract against
//! any factory, so each invariant lives in exactly one place instead of
//! being re-asserted ad hoc per substrate.
//!
//! Usage (one line per substrate, no per-overlay assertions):
//!
//! ```
//! use pdht_overlay::{conformance_suite, TrieOverlay};
//!
//! conformance_suite!(trie, |n, g, rng| {
//!     Box::new(TrieOverlay::build(n, g, rng).expect("trie builds"))
//! });
//! # fn main() {}
//! ```
//!
//! The macro expands to one `#[test]` per invariant (named after the
//! check), so a failing substrate reports *which* contract clause broke.
//! New substrates plug in by adding one `conformance_suite!` invocation —
//! see `crates/overlay/tests/conformance.rs` for the three current ones.

use crate::traits::{HopOutcome, Overlay, PlanScratch};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a fresh overlay over `n` peers with target replica-group size
/// `group_size`, drawing construction randomness from `rng`. Must be
/// deterministic: the same `(n, group_size)` and rng state must yield an
/// identically-behaving overlay.
pub type Factory = fn(n: usize, group_size: usize, rng: &mut SmallRng) -> Box<dyn Overlay>;

/// The `(n, group_size, seed)` shapes every check runs over: a two-peer
/// degenerate, a group-sized single-group overlay, an uneven ratio, and an
/// experiment-sized population.
const SHAPES: [(usize, usize, u64); 4] = [(2, 2, 11), (48, 64, 12), (257, 8, 13), (600, 16, 14)];

fn build(factory: Factory, n: usize, g: usize, seed: u64) -> Box<dyn Overlay> {
    factory(n, g, &mut SmallRng::seed_from_u64(seed))
}

/// Deterministic pseudo-random keys decorrelated from build seeds.
fn keys_for(seed: u64, count: usize) -> Vec<Key> {
    let mut r = SmallRng::seed_from_u64(seed ^ 0x1357_9bdf_2468_ace0);
    (0..count).map(|_| Key(r.random::<u64>())).collect()
}

/// Groups are disjoint, non-empty, and jointly cover all active peers;
/// `group_of_peer` agrees with membership.
pub fn check_partition_disjoint_and_covering(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        assert_eq!(o.num_active(), n, "num_active must report the population");
        assert!(o.group_count() >= 1, "at least one replica group");
        let mut owner: Vec<Option<usize>> = vec![None; n];
        for group in 0..o.group_count() {
            let members = o.group_members(group);
            assert!(!members.is_empty(), "group {group} is empty (n={n}, g={g})");
            for &m in members {
                assert!(m.idx() < n, "member out of population");
                assert_eq!(
                    owner[m.idx()].replace(group),
                    None,
                    "peer {m} appears in two groups (n={n}, g={g})"
                );
                assert_eq!(
                    o.group_of_peer(m),
                    group,
                    "group_of_peer disagrees with group_members (n={n}, g={g})"
                );
            }
        }
        assert!(
            owner.iter().all(Option::is_some),
            "groups must jointly cover every peer (n={n}, g={g})"
        );
    }
}

/// Every key maps into range; `responsible_group` equals the members of
/// `group_of_key`; `is_responsible` holds exactly on that group.
pub fn check_key_responsibility(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        for key in keys_for(seed, 40) {
            let kg = o.group_of_key(key);
            assert!(kg < o.group_count(), "group_of_key out of range");
            assert_eq!(
                o.responsible_group(key),
                o.group_members(kg).to_vec(),
                "responsible_group must be group_members(group_of_key)"
            );
            for p in (0..n).map(PeerId::from_idx) {
                assert_eq!(
                    o.is_responsible(p, key),
                    o.group_of_peer(p) == kg,
                    "is_responsible must hold exactly on the key's group (peer {p})"
                );
            }
        }
    }
}

/// With everyone online, lookups from any start terminate at a responsible
/// peer, and `next_hop` at a responsible peer reports `Arrived` without
/// consuming hops, budget, or messages.
pub fn check_routing_terminates_exactly_at_responsibility(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        let live = Liveness::all_online(n);
        let mut r = SmallRng::seed_from_u64(seed ^ 0xA0);
        let mut m = Metrics::new();
        for key in keys_for(seed, 25) {
            let from = PeerId::from_idx(r.random_range(0..n));
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("all-online lookup");
            assert!(o.is_responsible(out.peer, key), "lookup must end on a responsible peer");

            // Termination is *exactly* responsibility: stepping from the
            // arrival peer is a free no-op arrival.
            let mut st = o.begin_lookup(out.peer, key);
            let before = (st.hops, st.budget, m.totals()[MessageKind::RouteHop]);
            match o.next_hop(key, &mut st, &live, &mut r, &mut m).expect("arrived step") {
                HopOutcome::Arrived(p) => assert!(o.is_responsible(p, key)),
                HopOutcome::Forwarded(_) => panic!("responsible peer must not forward"),
            }
            assert_eq!(
                (st.hops, st.budget, m.totals()[MessageKind::RouteHop]),
                before,
                "arrival detection must cost nothing"
            );
        }
    }
}

/// `lookup` is exactly `next_hop` driven to completion: same arrival peer,
/// same hop count, same message accounting, given identical rng states.
pub fn check_lookup_equals_stepping(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        let live = Liveness::all_online(n);
        let mut pick = SmallRng::seed_from_u64(seed ^ 0xB0);
        for key in keys_for(seed, 25) {
            let from = PeerId::from_idx(pick.random_range(0..n));
            let hop_seed = pick.random::<u64>();

            let mut m1 = Metrics::new();
            let one_shot = o
                .lookup(from, key, &live, &mut SmallRng::seed_from_u64(hop_seed), &mut m1)
                .expect("lookup");

            let mut r2 = SmallRng::seed_from_u64(hop_seed);
            let mut m2 = Metrics::new();
            let mut st = o.begin_lookup(from, key);
            let arrived = loop {
                match o.next_hop(key, &mut st, &live, &mut r2, &mut m2).expect("step") {
                    HopOutcome::Arrived(p) => break p,
                    HopOutcome::Forwarded(p) => {
                        assert_eq!(p, st.current, "Forwarded must report the new current peer");
                    }
                }
            };
            assert_eq!(arrived, one_shot.peer, "stepping must arrive where lookup did");
            assert_eq!(st.hops, one_shot.hops, "stepping must cost what lookup cost");
            assert_eq!(
                m1.totals()[MessageKind::RouteHop],
                m2.totals()[MessageKind::RouteHop],
                "metrics must agree between lookup and stepping"
            );
        }
    }
}

/// Hop accounting is monotone and message-backed: every `Forwarded` step
/// increases `state.hops` by at least one, and the metrics' `RouteHop`
/// total advances in lockstep with it.
pub fn check_hop_accounting_is_monotone(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        let live = Liveness::all_online(n);
        let mut r = SmallRng::seed_from_u64(seed ^ 0xC0);
        let mut m = Metrics::new();
        for key in keys_for(seed, 25) {
            let from = PeerId::from_idx(r.random_range(0..n));
            let mut st = o.begin_lookup(from, key);
            assert_eq!(st.hops, 0, "a fresh lookup has spent nothing");
            let base = m.totals()[MessageKind::RouteHop];
            loop {
                let before = st.hops;
                match o.next_hop(key, &mut st, &live, &mut r, &mut m).expect("step") {
                    HopOutcome::Arrived(_) => {
                        assert_eq!(st.hops, before, "arrival must not add hops");
                        break;
                    }
                    HopOutcome::Forwarded(_) => {
                        assert!(st.hops > before, "every forward costs at least one hop");
                    }
                }
                assert_eq!(
                    m.totals()[MessageKind::RouteHop] - base,
                    u64::from(st.hops),
                    "RouteHop messages must track state.hops exactly"
                );
            }
        }
    }
}

/// Identical seeds yield identical overlays and identical lookup outcomes
/// (arrival peers and hop counts) across independent builds.
pub fn check_determinism_under_fixed_seeds(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let run = || {
            let o = build(factory, n, g, seed);
            let live = Liveness::all_online(n);
            let mut r = SmallRng::seed_from_u64(seed ^ 0xD0);
            let mut m = Metrics::new();
            let mut trace = Vec::new();
            for key in keys_for(seed, 25) {
                let from = PeerId::from_idx(r.random_range(0..n));
                let out = o.lookup(from, key, &live, &mut r, &mut m).expect("lookup");
                trace.push((out.peer, out.hops));
            }
            (trace, m.totals()[MessageKind::RouteHop])
        };
        assert_eq!(run(), run(), "same seeds must reproduce routing exactly (n={n}, g={g})");
    }
}

/// Under churn, routing degrades gracefully: from online starts, most
/// lookups still succeed, every success lands on an *online* responsible
/// peer, and every failure is a clean [`PdhtError::LookupFailed`].
pub fn check_liveness_under_churn(factory: Factory) {
    let (n, g, seed) = (600usize, 16usize, 21u64);
    let o = build(factory, n, g, seed);
    let mut live = Liveness::all_online(n);
    // Decorrelated from the build stream (a shared stream can correlate the
    // offline coin flips with construction randomness).
    let mut r = SmallRng::seed_from_u64(seed ^ 0xE0E0);
    for i in 0..n {
        if r.random::<f64>() < 0.2 {
            live.set(PeerId::from_idx(i), false);
        }
    }
    let mut m = Metrics::new();
    let trials = 200u32;
    let mut ok = 0u32;
    for key in keys_for(seed, trials as usize) {
        let from = loop {
            let c = PeerId::from_idx(r.random_range(0..n));
            if live.is_online(c) {
                break c;
            }
        };
        match o.lookup(from, key, &live, &mut r, &mut m) {
            Ok(out) => {
                assert!(live.is_online(out.peer), "lookups must terminate at online peers");
                assert!(o.is_responsible(out.peer, key), "churn must not break responsibility");
                ok += 1;
            }
            Err(PdhtError::LookupFailed { .. }) => {}
            Err(e) => panic!("routing dead-ends must be LookupFailed, got {e}"),
        }
    }
    assert!(ok > trials * 7 / 10, "most lookups should survive 20% churn, ok={ok}/{trials}");

    // Maintenance keeps the overlay usable: after heavy probing, routing
    // still works and probes were actually charged.
    let mut o = build(factory, n, g, seed);
    for _ in 0..10 {
        o.maintenance_round(0.3, &live, &mut r, &mut m);
    }
    assert!(m.totals()[MessageKind::Probe] > 0, "maintenance must charge probe messages");
    let mut ok_after = 0u32;
    for key in keys_for(seed ^ 1, 50) {
        let from = loop {
            let c = PeerId::from_idx(r.random_range(0..n));
            if live.is_online(c) {
                break c;
            }
        };
        if let Ok(out) = o.lookup(from, key, &live, &mut r, &mut m) {
            assert!(o.is_responsible(out.peer, key));
            ok_after += 1;
        }
    }
    assert!(ok_after > 35, "repair must not degrade routing, ok={ok_after}/50");
}

/// The sequential maintenance reference: each peer's repairs are planned
/// and applied before the next peer is planned, so every plan reads fully
/// repaired tables.
fn step_each_peer(
    o: &mut dyn Overlay,
    env: f64,
    live: &Liveness,
    rng: &mut SmallRng,
    metrics: &mut Metrics,
) {
    let mut scratch = PlanScratch::new();
    let mut repairs = Vec::new();
    for p in 0..o.num_active() {
        o.maintenance_plan(
            PeerId::from_idx(p),
            env,
            live,
            rng,
            metrics,
            &mut scratch,
            &mut repairs,
        );
        o.maintenance_apply(&repairs, live);
        repairs.clear();
    }
}

/// Runs `sweep` and [`step_each_peer`] for five rounds on two same-seed
/// builds over a 25%-offline population, and asserts they charge the same
/// probes, consume the rng draw for draw (checked every round, so a
/// divergence is caught at the round that introduced it), and leave
/// structurally and behaviourally identical routing tables.
fn assert_sweep_matches_stepping(
    factory: Factory,
    salt: u64,
    sweep: fn(&mut dyn Overlay, &Liveness, &mut SmallRng, &mut Metrics),
) {
    for (n, g, seed) in SHAPES {
        let mut swept = build(factory, n, g, seed);
        let mut stepped = build(factory, n, g, seed);
        let mut live = Liveness::all_online(n);
        let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xF0F0);
        for i in 1..n {
            if churn_rng.random::<f64>() < 0.25 {
                live.set(PeerId::from_idx(i), false);
            }
        }
        // Peer 0 stays online so the lookup-source sampling below always
        // has a candidate (a fully-offline shape would spin forever).
        assert!(live.is_online(PeerId(0)));
        let mut m_swept = Metrics::new();
        let mut m_stepped = Metrics::new();
        let mut rng_swept = SmallRng::seed_from_u64(seed ^ salt);
        let mut rng_stepped = SmallRng::seed_from_u64(seed ^ salt);
        for _ in 0..5 {
            sweep(swept.as_mut(), &live, &mut rng_swept, &mut m_swept);
            step_each_peer(stepped.as_mut(), 0.3, &live, &mut rng_stepped, &mut m_stepped);
            assert_eq!(
                rng_swept.random::<u64>(),
                rng_stepped.random::<u64>(),
                "the sweep must consume rng exactly like stepping (n={n}, g={g})"
            );
        }
        assert_eq!(
            m_swept.totals()[MessageKind::Probe],
            m_stepped.totals()[MessageKind::Probe],
            "the sweep must charge exactly the stepping probes (n={n}, g={g})"
        );
        for p in (0..n).map(PeerId::from_idx) {
            assert_eq!(
                swept.routing_entries(p),
                stepped.routing_entries(p),
                "table sizes diverged at peer {p} (n={n}, g={g})"
            );
        }
        // Identical lookup traces from identical rng states.
        let mut r1 = SmallRng::seed_from_u64(seed ^ salt ^ 0xF2);
        let mut r2 = SmallRng::seed_from_u64(seed ^ salt ^ 0xF2);
        for key in keys_for(seed ^ salt, 25) {
            let from = loop {
                let c = PeerId::from_idx(r1.random_range(0..n));
                let c2 = PeerId::from_idx(r2.random_range(0..n));
                assert_eq!(c, c2);
                if live.is_online(c) {
                    break c;
                }
            };
            let a = swept.lookup(from, key, &live, &mut r1, &mut m_swept);
            let b = stepped.lookup(from, key, &live, &mut r2, &mut m_stepped);
            match (a, b) {
                (Ok(oa), Ok(ob)) => {
                    assert_eq!((oa.peer, oa.hops), (ob.peer, ob.hops), "repaired tables diverged");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("repaired tables diverged: {a:?} vs {b:?} (n={n}, g={g})"),
            }
        }
    }
}

/// `maintenance_round` is exactly the per-peer plan → apply step swept in
/// peer order — the contract any overriding (batched, faster) sweep must
/// keep, since engines schedule one `PeerMaintenance` event per peer.
pub fn check_maintenance_round_matches_per_peer_plans(factory: Factory) {
    assert_sweep_matches_stepping(factory, 0xF1, |o, live, rng, m| {
        o.maintenance_round(0.3, live, rng, m);
    });
}

/// Planning **every** peer first and replaying the batched repairs
/// afterwards is exactly stepping each peer in turn. This holds because no
/// peer's plan reads another peer's *mutable* routing state, and it is what
/// lets shard lanes plan their peers on worker threads and apply repairs
/// at the serial pass barrier.
pub fn check_maintenance_plan_apply_matches_step(factory: Factory) {
    assert_sweep_matches_stepping(factory, 0xF3, |o, live, rng, m| {
        let mut scratch = PlanScratch::new();
        let mut repairs = Vec::new();
        for p in 0..o.num_active() {
            let peer = PeerId::from_idx(p);
            o.maintenance_plan(peer, 0.3, live, rng, m, &mut scratch, &mut repairs);
        }
        o.maintenance_apply(&repairs, live);
    });
}

/// Runs every conformance check (the one-call entry point; the
/// [`conformance_suite!`](crate::conformance_suite) macro exposes them as
/// individual named tests instead).
pub fn check_all(factory: Factory) {
    check_partition_disjoint_and_covering(factory);
    check_key_responsibility(factory);
    check_routing_terminates_exactly_at_responsibility(factory);
    check_lookup_equals_stepping(factory);
    check_hop_accounting_is_monotone(factory);
    check_determinism_under_fixed_seeds(factory);
    check_liveness_under_churn(factory);
    check_maintenance_round_matches_per_peer_plans(factory);
    check_maintenance_plan_apply_matches_step(factory);
}

/// Expands to a module of `#[test]`s — one per conformance invariant — for
/// the given overlay factory. See the module docs for usage.
#[macro_export]
macro_rules! conformance_suite {
    ($name:ident, $factory:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            const FACTORY: $crate::conformance::Factory = $factory;

            #[test]
            fn partition_disjoint_and_covering() {
                $crate::conformance::check_partition_disjoint_and_covering(FACTORY);
            }

            #[test]
            fn key_responsibility() {
                $crate::conformance::check_key_responsibility(FACTORY);
            }

            #[test]
            fn routing_terminates_exactly_at_responsibility() {
                $crate::conformance::check_routing_terminates_exactly_at_responsibility(FACTORY);
            }

            #[test]
            fn lookup_equals_stepping() {
                $crate::conformance::check_lookup_equals_stepping(FACTORY);
            }

            #[test]
            fn hop_accounting_is_monotone() {
                $crate::conformance::check_hop_accounting_is_monotone(FACTORY);
            }

            #[test]
            fn determinism_under_fixed_seeds() {
                $crate::conformance::check_determinism_under_fixed_seeds(FACTORY);
            }

            #[test]
            fn liveness_under_churn() {
                $crate::conformance::check_liveness_under_churn(FACTORY);
            }

            // Named for the per-peer step reference it compares against
            // (test names are stable across the suite's history).
            #[test]
            fn maintenance_step_matches_round() {
                $crate::conformance::check_maintenance_round_matches_per_peer_plans(FACTORY);
            }

            #[test]
            fn maintenance_plan_apply_matches_step() {
                $crate::conformance::check_maintenance_plan_apply_matches_step(FACTORY);
            }
        }
    };
}
