//! The two ways one workload runs: untraced for the end-to-end metrics, and
//! traced (phase-marker hook, phase timers, ledger) for the per-layer ones.
//!
//! Both first run the workload's fixed prefix and check its digest, then
//! step rounds until `--seconds` of wall time have been measured (and at
//! least 100 rounds have run).

use crate::check::{self, per_round, PrefixResult};
use crate::ledger::{self, Shape};
use crate::workloads::{Scale, Workload};
use pdht_core::{
    HookPoint, LatencyConfig, OverlayKind, PdhtNetwork, PhaseBreakdown, RoundPhase, SimReport,
    Strategy,
};
use pdht_overlay::ChurnConfig;
use pdht_types::{MessageKind, Round};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// An untraced run sets up twice over (see `set_up`), each time at least
/// `SETUP_MIN_REPS` times and until `SETUP_MIN_SECS` have passed (at most
/// `SETUP_MAX_REPS` times); `setup_s` is the median of all of them.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_SECS: f64 = 2.0;
/// The rates are medians over slices of the window this long, so a host
/// slowdown shorter than half the window does not move them.
const SLICE_SECS: f64 = 2.0;
/// A window times at least this many rounds, so `round_ms_p90` has at
/// least ten samples beyond it.
const MIN_ROUNDS: usize = 100;

/// What a run prints as its result line.
pub struct Outcome {
    /// Every violated output check or shape guard.
    pub problems: Vec<String>,
    /// Timed rounds.
    pub attempted: u64,
    /// Timed rounds that did not complete as a round must (no metrics
    /// mark, or fewer than the six phase events dispatched).
    pub failed: u64,
    pub metrics: Vec<(String, &'static str, f64)>,
}

/// The measured window `[from, to]`.
struct Window {
    from: u64,
    to: u64,
    /// Wall-clock of each `step_round`, ms.
    round_ms: Vec<f64>,
    /// Messages of each timed round.
    round_msgs: Vec<u64>,
    /// Queries finished or abandoned in each timed round.
    round_done: Vec<u64>,
    /// Phase spans of the rounds that ran with the hook (traced runs: the
    /// even-numbered rounds of the window).
    spans: Vec<Spans>,
    events: u64,
    failed: u64,
}

impl Window {
    fn rounds(&self) -> u64 {
        self.to - self.from + 1
    }
}

/// Per-round wall-clock between consecutive `BeforePhase` markers, ms.
/// `churn` starts at the `step_round` call and `tail` runs from the
/// `Bookkeeping` marker to its return, so the six spans sum to the round.
#[derive(Clone, Copy, Default)]
struct Spans([f64; 6]);

const SPAN_NAMES: [&str; 6] = [
    "core.span.churn_ms",
    "core.span.maintenance_ms",
    "core.span.purge_ms",
    "core.span.content_ms",
    "core.span.queries_ms",
    "core.span.tail_ms",
];

type Marks = Rc<RefCell<Vec<(RoundPhase, Instant)>>>;

fn hook_into(marks: &Marks) -> pdht_core::EventHook {
    let marks = Rc::clone(marks);
    Box::new(move |point| {
        if let HookPoint::BeforePhase { phase, .. } = point {
            marks.borrow_mut().push((phase, Instant::now()));
        }
        Vec::new()
    })
}

fn build(w: Workload, scale: Scale, seed: u64) -> Result<PdhtNetwork, String> {
    let mut net = PdhtNetwork::new(w.config(scale, seed))
        .map_err(|e| format!("{}: network rejected its config: {e}", w.name()))?;
    net.set_threads(w.threads());
    Ok(net)
}

/// Runs the fixed prefix and checks its result against the pinned one.
fn run_prefix(
    net: &mut PdhtNetwork,
    w: Workload,
    scale: Scale,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let rounds = w.prefix_rounds(scale);
    net.run(rounds);
    let got = PrefixResult::of(net, rounds);
    let name = scaled_name(w, scale);
    match check::verify_prefix(&name, seed, &got) {
        Ok(true) => {
            println!("prefix: {rounds} rounds, {} msgs, digest {} (pinned)", got.msgs, got.digest)
        }
        Ok(false) => println!(
            "prefix: {rounds} rounds, {} msgs, digest {} (seed {seed} not pinned: \
             invariants and shape guards only)",
            got.msgs, got.digest
        ),
        Err(e) => problems.push(e),
    }
}

/// The name a workload's digests are pinned under (toy runs pin their own).
fn scaled_name(w: Workload, scale: Scale) -> String {
    match scale {
        Scale::Full => w.name().to_string(),
        Scale::Toy => format!("{}@toy", w.name()),
    }
}

/// Steps rounds until `seconds` of round wall time are measured and at
/// least `MIN_ROUNDS` rounds have run. With `marks`, every other round runs
/// with the phase hook installed (the others measure what the hook costs).
fn timed_window(net: &mut PdhtNetwork, seconds: f64, marks: Option<&Marks>) -> Window {
    let from = net.next_round();
    let events0 = net.events_dispatched();
    let mut win = Window {
        from,
        to: from,
        round_ms: Vec::new(),
        round_msgs: Vec::new(),
        round_done: Vec::new(),
        spans: Vec::new(),
        events: 0,
        failed: 0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut done = queries_done(net);
    while measured < budget || win.round_ms.len() < MIN_ROUNDS {
        let traced = marks.filter(|_| win.round_ms.len().is_multiple_of(2));
        match traced {
            Some(m) => {
                m.borrow_mut().clear();
                net.set_event_hook(hook_into(m));
            }
            None => net.clear_event_hook(),
        }
        let round = net.next_round();
        let ev = net.events_dispatched();
        let t0 = Instant::now();
        net.step_round();
        let t1 = Instant::now();
        let took = t1 - t0;
        measured += took;
        let ms = took.as_secs_f64() * 1e3;
        win.round_ms.push(ms);
        let msgs = net.metrics().round_delta(Round(round)).map(|c| c.total());
        if msgs.is_none() || net.events_dispatched() < ev + 6 {
            win.failed += 1;
        }
        win.round_msgs.push(msgs.unwrap_or(0));
        let done_now = queries_done(net);
        win.round_done.push(done_now - done);
        done = done_now;
        if let Some(m) = traced {
            match spans_of(&m.borrow(), t0, t1) {
                Some(s) => win.spans.push(s),
                None => win.failed += 1,
            }
        }
    }
    net.clear_event_hook();
    win.to = net.next_round() - 1;
    win.events = net.events_dispatched() - events0;
    win
}

fn spans_of(marks: &[(RoundPhase, Instant)], t0: Instant, t1: Instant) -> Option<Spans> {
    const ORDER: [RoundPhase; 6] = [
        RoundPhase::Churn,
        RoundPhase::OverlayMaintenance,
        RoundPhase::PurgeExpired,
        RoundPhase::ContentUpdates,
        RoundPhase::Queries,
        RoundPhase::Bookkeeping,
    ];
    if marks.len() != 6 || marks.iter().zip(ORDER).any(|(&(p, _), want)| p != want) {
        return None;
    }
    let mut edges = [t0; 7];
    for i in 1..6 {
        edges[i] = marks[i].1;
    }
    edges[6] = t1;
    let mut s = Spans::default();
    for i in 0..6 {
        s.0[i] = (edges[i + 1] - edges[i]).as_secs_f64() * 1e3;
    }
    Some(s)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile by nearest rank.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Queries finished or abandoned so far (the `query_hops` histogram sees
/// every one exactly once).
fn queries_done(net: &PdhtNetwork) -> u64 {
    let last = net.next_round() - 1;
    net.report(last, last).query_hops.map_or(0, |h| h.count)
}

/// Output checks every window must pass, at any seed. The shape guards
/// describe the full-size workloads; toy runs skip them.
fn check_window(
    net: &PdhtNetwork,
    w: Workload,
    scale: Scale,
    win: &Window,
    problems: &mut Vec<String>,
) {
    let rep = net.report(win.from, win.to);
    problems.extend(check::report_violation(&rep, ChurnConfig::gnutella_like().availability()));
    // One maintenance tick per active peer per round, plus (Partial) one
    // TTL sweep per `purge_stride` rounds.
    let cfg = net.config();
    let sweeps =
        if cfg.strategy == Strategy::Partial { 1.0 / cfg.purge_stride as f64 } else { 0.0 };
    let background = net.num_active_peers() as f64 * (1.0 + sweeps);
    if scale == Scale::Full {
        problems.extend(w.shape_violation(
            &rep,
            win.events as f64 / win.rounds() as f64,
            background,
        ));
    }
}

/// Search + lookup failures + timeouts over queries done in the window.
fn fail_share(rep: &SimReport, done: u64) -> f64 {
    let failed = rep.search_failures + rep.lookup_failures + rep.query_timeouts;
    failed as f64 / done.max(1) as f64
}

/// Builds the network at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_SECS` of set-up have passed (at most `SETUP_MAX_REPS`
/// times), appending each wall-clock to `times`; returns the last network.
/// Each network is dropped before the next is built, so peak RSS stays one
/// network's.
fn set_up(
    w: Workload,
    scale: Scale,
    seed: u64,
    times: &mut Vec<f64>,
) -> Result<PdhtNetwork, String> {
    let first = times.len();
    let mut net = None;
    loop {
        let reps = &times[first..];
        if reps.len() >= SETUP_MAX_REPS
            || (reps.len() >= SETUP_MIN_REPS && reps.iter().sum::<f64>() >= SETUP_MIN_SECS)
        {
            return Ok(net.expect("at least one set-up"));
        }
        drop(net.take());
        let t = Instant::now();
        net = Some(build(w, scale, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
}

/// The median over consecutive slices of at least `SLICE_SECS` of round
/// wall-clock of `per_round` summed over the slice per wall second. A
/// remainder shorter than a slice joins the last slice.
fn slice_median_rate(round_ms: &[f64], per_round: &[u64]) -> (f64, usize) {
    let mut slices: Vec<(f64, u64)> = Vec::new();
    let (mut ms, mut n) = (0.0, 0u64);
    for (&r_ms, &r_n) in round_ms.iter().zip(per_round) {
        ms += r_ms;
        n += r_n;
        if ms >= SLICE_SECS * 1e3 {
            slices.push((ms, n));
            (ms, n) = (0.0, 0);
        }
    }
    match slices.last_mut() {
        Some(last) => {
            last.0 += ms;
            last.1 += n;
        }
        None => slices.push((ms, n)),
    }
    let count = slices.len();
    (median(slices.into_iter().map(|(ms, n)| n as f64 * 1e3 / ms).collect()), count)
}

/// The untraced run: set-ups, prefix, timed window, then more set-ups.
/// `setup_s` is the median of set-ups taken before the prefix and after
/// the window, so it samples the host at two instants a run apart.
pub fn untraced(w: Workload, scale: Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut net = set_up(w, scale, seed, &mut setup_s)?;
    let mut problems = Vec::new();
    run_prefix(&mut net, w, scale, seed, &mut problems);
    let done0 = queries_done(&net);
    let win = timed_window(&mut net, seconds, None);
    let rep = net.report(win.from, win.to);
    let done = queries_done(&net) - done0;
    let rounds = win.rounds() as f64;
    check_window(&net, w, scale, &win, &mut problems);
    let peak_rss = peak_rss_mb()?;
    drop(net);
    let before = setup_s.len();
    set_up(w, scale, seed, &mut setup_s)?;

    println!(
        "window: rounds {}..={} ({} timed), {:.0} msgs/round, {done} queries done, \
         {:.1} events/round",
        win.from,
        win.to,
        win.round_ms.len(),
        rep.msgs_per_round,
        win.events as f64 / rounds
    );
    let ns_per_msg: Vec<f64> = win
        .round_ms
        .iter()
        .zip(&win.round_msgs)
        .map(|(ms, &n)| ms * 1e6 / n.max(1) as f64)
        .collect();
    println!(
        "per-round ns/msg: p25 {:.2}, p50 {:.2}, p75 {:.2}",
        quantile(ns_per_msg.clone(), 0.25),
        quantile(ns_per_msg.clone(), 0.5),
        quantile(ns_per_msg, 0.75)
    );
    println!(
        "query_fail_share: {:.6} (search + lookup failures + timeouts / queries done)",
        fail_share(&rep, done)
    );
    let ms_of =
        |v: &[f64]| v.iter().map(|s| format!("{:.1}", s * 1e3)).collect::<Vec<_>>().join(" ");
    println!(
        "set-up ms: before {} | after {}",
        ms_of(&setup_s[..before]),
        ms_of(&setup_s[before..])
    );
    let (msgs_per_s, slices) = slice_median_rate(&win.round_ms, &win.round_msgs);
    let (queries_per_s, _) = slice_median_rate(&win.round_ms, &win.round_done);
    println!("rates: medians over {slices} slices of at least {SLICE_SECS} s");
    let metrics = vec![
        ("setup_s".to_string(), "s", median(setup_s)),
        ("round_ms_p50".to_string(), "ms", median(win.round_ms.clone())),
        ("round_ms_p90".to_string(), "ms", quantile(win.round_ms.clone(), 0.9)),
        ("sim_msgs_per_s".to_string(), "msgs/s", msgs_per_s),
        ("sim_queries_per_s".to_string(), "queries/s", queries_per_s),
        ("peak_rss_mb".to_string(), "MB", peak_rss),
    ];
    Ok(Outcome { problems, attempted: win.round_ms.len() as u64, failed: win.failed, metrics })
}

/// The traced run: the prefix runs with the hook and phase timers on (its
/// digest must equal the untraced one), then a window of alternately
/// traced and untraced rounds, then the ledger and the attribution.
pub fn traced(w: Workload, scale: Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut net = build(w, scale, seed)?;
    net.enable_phase_timers();
    let marks: Marks = Rc::default();
    net.set_event_hook(hook_into(&marks));
    let mut problems = Vec::new();
    run_prefix(&mut net, w, scale, seed, &mut problems);
    let done0 = queries_done(&net);
    let pb0 = net.phase_breakdown().expect("phase timers enabled");
    let win = timed_window(&mut net, seconds, Some(&marks));
    let pb1 = net.phase_breakdown().expect("phase timers enabled");
    let rep = net.report(win.from, win.to);
    let done = queries_done(&net) - done0;
    let rounds = win.rounds() as f64;
    let events_per_round = win.events as f64 / rounds;
    check_window(&net, w, scale, &win, &mut problems);

    let cfg = net.config().clone();
    let shape = Shape {
        peers: cfg.scenario.num_peers as usize,
        active: net.num_active_peers(),
        keys: cfg.scenario.keys as usize,
        alpha: cfg.scenario.alpha,
        f_qry: cfg.f_qry,
        resident_events: 2 * net.num_active_peers() + net.queries_in_flight(),
        inflight: net.queries_in_flight() + net.updates_in_flight(),
        shards: cfg.shards as usize,
    };
    let t_ledger = Instant::now();
    let ledger = ledger::measure(&shape, seed);
    println!("ledger: {} entries in {:.1} s", ledger.len(), t_ledger.elapsed().as_secs_f64());
    let unit = |name: &str| ledger.iter().find(|e| e.0 == name).map_or(0.0, |e| e.2);

    let mut spans = Spans::default();
    for s in &win.spans {
        for i in 0..6 {
            spans.0[i] += s.0[i] / win.spans.len() as f64;
        }
    }
    let walk = per_round(&rep, MessageKind::WalkStep);
    let push = per_round(&rep, MessageKind::GossipPush);
    let pull = per_round(&rep, MessageKind::GossipPull);
    let flood = per_round(&rep, MessageKind::ReplicaFlood);
    let route = per_round(&rep, MessageKind::RouteHop);
    let insert = per_round(&rep, MessageKind::IndexInsert);
    let classified = rep.gossip_innovative + rep.gossip_redundant;
    // Every query the index does not answer goes to a walk (timeouts count
    // as misses); the walk failed if the query failed its search or timed
    // out.
    let misses = (1.0 - rep.p_indexed) * done as f64;
    let walk_success = if misses >= 1.0 {
        ((misses - (rep.search_failures + rep.query_timeouts) as f64) / misses).max(0.0)
    } else {
        0.0
    };
    let (serial_fraction, barrier_ms) = if cfg.shards > 1 {
        let d = PhaseBreakdown {
            churn: pb1.churn - pb0.churn,
            queries: pb1.queries - pb0.queries,
            background: pb1.background - pb0.background,
            barriers: pb1.barriers - pb0.barriers,
        };
        (d.serial_fraction(), d.barriers.as_secs_f64() * 1e3 / rounds)
    } else {
        (0.0, 0.0)
    };

    // Attribution: by-kind counts × ledger unit costs against the measured
    // round. Probes and pulls have no ledger entry of their own: probes are
    // left unpriced, pulls are priced as pushes. Walk steps take the 100k
    // entry, the population of both workloads.
    let walk_ns = unit("unstructured.walk_step_ns.100k");
    let hop_ns = unit(match cfg.overlay {
        OverlayKind::Trie => "overlay.next_hop_ns.trie",
        OverlayKind::Chord => "overlay.next_hop_ns.chord",
        OverlayKind::Kademlia => "overlay.next_hop_ns.kademlia",
    });
    let churn = ChurnConfig::gnutella_like();
    let transitions = shape.peers as f64 * 2.0 / (churn.mean_online_secs + churn.mean_offline_secs);
    let per_event_ns = unit("sim.wheel_hold_ns")
        + if cfg.latency == LatencyConfig::Zero { 0.0 } else { unit("sim.latency_sample_ns") };
    let queries = done as f64 / rounds;
    let layers = [
        ("unstructured", walk, walk * walk_ns),
        (
            "gossip",
            push + pull + flood,
            (push + pull) * unit("gossip.push_ns_per_msg.rlnc_sparse_g32")
                + flood * unit("gossip.flood_ns_per_msg"),
        ),
        (
            "overlay",
            route + insert,
            (route + insert) * hop_ns + transitions * unit("overlay.churn_ns_per_transition"),
        ),
        ("sim", events_per_round, events_per_round * per_event_ns),
        ("workload", queries, queries * unit("workload.query_gen_ns")),
    ];
    let measured_ms: f64 = spans.0.iter().sum();
    let predicted_ms: f64 = layers.iter().map(|l| l.2).sum::<f64>() / 1e6;
    println!("attribution (per round): layer, work units, predicted ms");
    for (layer, units, ns) in layers {
        println!("  {layer:<12} {units:>14.1} {:>10.3}", ns / 1e6);
    }
    println!(
        "  predicted {predicted_ms:.3} ms, measured {measured_ms:.3} ms, residual {:.3} ms \
         ({:.1}% of the round)",
        measured_ms - predicted_ms,
        100.0 * (measured_ms - predicted_ms) / measured_ms.max(1e-9)
    );
    let insitu_walk = if walk > 0.0 { spans.0[4] * 1e6 / walk } else { 0.0 };
    let insitu_gossip = if push + pull > 0.0 { spans.0[3] * 1e6 / (push + pull) } else { 0.0 };
    if walk > 0.0 {
        println!("  walk step in situ {insitu_walk:.2} ns vs isolated {walk_ns:.2} ns");
    }
    if push + pull > 0.0 {
        println!(
            "  gossip msg in situ {insitu_gossip:.2} ns vs isolated {:.2} ns",
            unit("gossip.push_ns_per_msg.rlnc_sparse_g32")
        );
    }
    // Wall-clock per message over the rounds run with the hook (even) and
    // without it (odd).
    let ns_per_msg = |parity: usize| {
        let (ms, msgs) = win
            .round_ms
            .iter()
            .zip(&win.round_msgs)
            .skip(parity)
            .step_by(2)
            .fold((0.0, 0u64), |(ms, n), (r_ms, r_n)| (ms + r_ms, n + r_n));
        ms * 1e6 / msgs.max(1) as f64
    };
    let (traced_ns, untraced_ns) = (ns_per_msg(0), ns_per_msg(1));
    let overhead = if win.round_ms.len() > 1 { traced_ns / untraced_ns - 1.0 } else { 0.0 };
    println!(
        "tracing overhead: {traced_ns:.2} ns/msg over rounds with the hook, {untraced_ns:.2} \
         without ({:+.1}%)",
        overhead * 100.0
    );

    let mut metrics: Vec<(String, &'static str, f64)> =
        SPAN_NAMES.iter().zip(spans.0).map(|(n, v)| (n.to_string(), "ms", v)).collect();
    let mut add = |name: &str, unit: &'static str, value: f64| {
        metrics.push((name.to_string(), unit, value));
    };
    add("core.p_indexed", "ratio", rep.p_indexed);
    add("core.query_fail_share", "ratio", fail_share(&rep, done));
    add("core.predicted_round_ms", "ms", predicted_ms);
    add("core.residual_ms", "ms", measured_ms - predicted_ms);
    add("core.trace_overhead_share", "ratio", overhead);
    add("unstructured.msgs.walk_step", "msgs/round", walk);
    add("unstructured.walk_success_share", "ratio", walk_success);
    add("unstructured.insitu_step_ns", "ns", insitu_walk);
    add("gossip.msgs.push", "msgs/round", push);
    add("gossip.msgs.pull", "msgs/round", pull);
    add("gossip.msgs.replica_flood", "msgs/round", flood);
    add("gossip.bytes_per_round", "bytes/round", rep.gossip_bytes_per_round);
    add(
        "gossip.innovative_share",
        "ratio",
        if classified > 0 { rep.gossip_innovative as f64 / classified as f64 } else { 0.0 },
    );
    add("gossip.insitu_ns_per_msg", "ns", insitu_gossip);
    add("overlay.msgs.route_hop", "msgs/round", route);
    add("overlay.msgs.probe", "msgs/round", per_round(&rep, MessageKind::Probe));
    add("sim.events_per_round", "events/round", events_per_round);
    add("sim.serial_fraction", "ratio", serial_fraction);
    add("sim.barrier_ms", "ms", barrier_ms);
    for (name, unit, value) in ledger {
        add(name, unit, value);
    }
    Ok(Outcome { problems, attempted: win.round_ms.len() as u64, failed: win.failed, metrics })
}

/// Computes and prints the prefix result of each seed (the lines of
/// `expected.tsv`).
pub fn record(
    w: Workload,
    scale: Scale,
    seeds: std::ops::RangeInclusive<u64>,
) -> Result<(), String> {
    for seed in seeds {
        let mut net = build(w, scale, seed)?;
        let rounds = w.prefix_rounds(scale);
        net.run(rounds);
        println!("{}", PrefixResult::of(&net, rounds).tsv_line(&scaled_name(w, scale), seed));
    }
    Ok(())
}
