//! Experiment S2 — §5.2: the discrete-event simulator vs the analytical
//! model.
//!
//! Runs the full network (trie DHT + unstructured overlay + replica
//! flooding + TTL selection) on a 1/10-scale Table 1 scenario and compares
//! measured message rates, index size and hit probability against the
//! model's Eq. 11/12/17 predictions for the same (scaled) scenario.
//!
//! Absolute agreement is not expected — the simulator's trie amortizes
//! routing across replica groups (≈ ½·log2(nap/repl) hops instead of the
//! model's ½·log2(nap)) and floods the replica subnetwork only on local
//! misses where Eq. 16 charges every query — but the *ordering* of the
//! strategies and the adaptive index size must reproduce.

use pdht_bench::{
    build_network, f1, f3, parse_sim_args, print_table, reject_peers_override, write_csv,
    write_histograms_csv, SimArgs,
};
use pdht_core::{LatencyConfig, PdhtConfig, SimReport, Strategy};
use pdht_model::figures::freq_label;
use pdht_model::{Scenario, SelectionModel, StrategyCosts};

struct RunResult {
    strategy: &'static str,
    model_msgs: f64,
    sim_msgs: f64,
    sim_p_indexed: f64,
    sim_indexed_keys: f64,
    wasted_bandwidth: f64,
    gossip_bytes_per_round: f64,
}

fn run_strategy(
    scenario: &Scenario,
    f_qry: f64,
    strategy: Strategy,
    rounds: u64,
    warmup: u64,
    args: &SimArgs,
) -> (f64, f64, f64, SimReport) {
    let mut cfg = PdhtConfig::new(scenario.clone(), f_qry, strategy);
    cfg.seed = 0x51_2004;
    cfg.overlay = args.overlay;
    cfg.latency = args.latency;
    args.apply_shards(&mut cfg);
    let mut net = build_network(cfg);
    args.apply_threads(&mut net);
    net.run(rounds);
    let rep = net.report(warmup, rounds - 1);
    if args.latency != LatencyConfig::Zero {
        if let Some(lat) = rep.query_latency_us {
            println!(
                "  {strategy:?}: query latency p50/p95/p99 = {:.1}/{:.1}/{:.1} ms over {} queries",
                lat.p50 as f64 / 1e3,
                lat.p95 as f64 / 1e3,
                lat.p99 as f64 / 1e3,
                lat.count
            );
        }
    }
    (rep.msgs_per_round_model_view(), rep.p_indexed, rep.indexed_keys, rep)
}

fn main() {
    let args = parse_sim_args();
    reject_peers_override(&args, "sim_vs_model");
    println!(
        "S2 configuration: overlay = {:?}, latency = {:?}, threads = {}, shards = {}, \
         gossip codec = {:?}, gen size = {}{}",
        args.overlay,
        args.latency,
        args.threads,
        args.effective_shards(),
        args.gossip_codec,
        args.gen_size,
        if args.smoke { ", smoke mode" } else { "" }
    );
    let scenario =
        if args.smoke { Scenario::table1_scaled(20) } else { Scenario::table1_scaled(10) };
    let freqs: &[f64] =
        if args.smoke { &[1.0 / 30.0] } else { &[1.0 / 30.0, 1.0 / 120.0, 1.0 / 600.0] };
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    // Per-run query-hop / query-latency histograms, persisted alongside the
    // message counters (ROADMAP open item).
    let mut hist_reports: Vec<(String, SimReport)> = Vec::new();

    for &f_qry in freqs {
        let model = StrategyCosts::evaluate(&scenario, f_qry).expect("model");
        let sel = SelectionModel::evaluate(&scenario, f_qry).expect("model");
        // Steady state needs ~keyTtl rounds for the TTL index; bound the
        // runtime while letting the index reach equilibrium.
        let ttl = sel.key_ttl.min(400.0) as u64;
        let rounds = if args.smoke { 60 } else { (2 * ttl + 200).min(900) };
        let warmup = rounds / 2;

        let mut results: Vec<RunResult> = Vec::new();
        for (name, strategy, model_msgs) in [
            ("partial", Strategy::Partial, sel.total_cost),
            ("indexAll", Strategy::IndexAll, model.index_all),
            ("noIndex", Strategy::NoIndex, model.no_index),
        ] {
            let (sim_msgs, p_indexed, indexed, rep) =
                run_strategy(&scenario, f_qry, strategy, rounds, warmup, &args);
            let wasted_bandwidth = rep.wasted_bandwidth;
            let gossip_bytes_per_round = rep.gossip_bytes_per_round;
            hist_reports.push((format!("{name}@{}", freq_label(f_qry)), rep));
            results.push(RunResult {
                strategy: name,
                model_msgs,
                sim_msgs,
                sim_p_indexed: p_indexed,
                sim_indexed_keys: indexed,
                wasted_bandwidth,
                gossip_bytes_per_round,
            });
        }

        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.strategy.to_string(),
                    f1(r.model_msgs),
                    f1(r.sim_msgs),
                    f3(r.sim_msgs / r.model_msgs),
                    f3(r.sim_p_indexed),
                    f1(r.sim_indexed_keys),
                    f3(r.wasted_bandwidth),
                    f1(r.gossip_bytes_per_round),
                ]
            })
            .collect();
        print_table(
            &format!(
                "S2 sim-vs-model at fQry = {} (1/{} scale, {} rounds, keyTtl = {:.0})",
                freq_label(f_qry),
                if args.smoke { 20 } else { 10 },
                rounds,
                sel.key_ttl
            ),
            &[
                "strategy",
                "model msg/s",
                "sim msg/s",
                "ratio",
                "sim pIndxd",
                "sim keys",
                "wasted",
                "bytes/rnd",
            ],
            &rows,
        );

        println!(
            "  model expectations: selection pIndxd = {:.3}, index size = {:.0} keys",
            sel.p_indexed, sel.index_size
        );
        // The scaled scenario has its own crossover structure (broadcast is
        // 10× cheaper relative to maintenance than at full scale), so the
        // meaningful check is: does the simulator rank the strategies the
        // way the model ranks them *for this scenario*?
        let rank = |key: fn(&RunResult) -> f64, rs: &[RunResult]| -> Vec<&'static str> {
            let mut v: Vec<&RunResult> = rs.iter().collect();
            v.sort_by(|a, b| key(a).total_cmp(&key(b)));
            v.into_iter().map(|r| r.strategy).collect()
        };
        let model_order = rank(|r| r.model_msgs, &results);
        let sim_order = rank(|r| r.sim_msgs, &results);
        println!(
            "  ordering check: model says {:?}, sim says {:?} -> {}",
            model_order,
            sim_order,
            if model_order == sim_order { "agreement" } else { "MISMATCH" }
        );

        for r in &results {
            csv_rows.push(vec![
                format!("{:.8}", f_qry),
                r.strategy.to_string(),
                f1(r.model_msgs),
                f1(r.sim_msgs),
                f3(r.sim_p_indexed),
                f1(r.sim_indexed_keys),
                f3(r.wasted_bandwidth),
                f1(r.gossip_bytes_per_round),
            ]);
        }
    }

    if args.smoke {
        let path = write_csv(
            "sim_vs_model",
            &[
                "f_qry",
                "strategy",
                "model_msgs",
                "sim_msgs",
                "sim_p_indexed",
                "sim_indexed_keys",
                "wasted_bandwidth",
                "gossip_bytes_per_round",
            ],
            &csv_rows,
        )
        .expect("write results CSV");
        let hist_path =
            write_histograms_csv("sim_vs_model_hist", &hist_reports).expect("write histogram CSV");
        println!(
            "\nsmoke mode: skipping the full Table-1 run; wrote {} and {}",
            path.display(),
            hist_path.display()
        );
        return;
    }

    // --- Full Table-1 scale: the headline ordering ---------------------
    // At 20 000 peers the broadcast cost (720 msg) dwarfs index search, so
    // the model predicts the selection algorithm beats BOTH baselines at
    // fQry = 1/300 (Fig. 4). Verify with the real network. A fixed keyTtl
    // of 400 rounds (instead of the paper's 1/fMin ≈ 1 800) keeps the
    // steady state reachable in a bounded run; the model reference uses the
    // same TTL, so the comparison stays exact.
    let full = Scenario::table1();
    let f_qry = 1.0 / 300.0;
    let ttl = 400u64;
    let rounds = 1_000u64;
    let warmup = 500u64;
    let sel = SelectionModel::evaluate_with_ttl(&full, f_qry, ttl as f64).expect("model");
    let model = StrategyCosts::evaluate(&full, f_qry).expect("model");

    let mut results: Vec<RunResult> = Vec::new();
    for (name, strategy, model_msgs) in [
        ("partial", Strategy::Partial, sel.total_cost),
        ("indexAll", Strategy::IndexAll, model.index_all),
        ("noIndex", Strategy::NoIndex, model.no_index),
    ] {
        let mut cfg = PdhtConfig::new(full.clone(), f_qry, strategy);
        cfg.seed = 0x51_2004;
        cfg.overlay = args.overlay;
        cfg.latency = args.latency;
        cfg.ttl_policy = pdht_core::TtlPolicy::Fixed(ttl);
        args.apply_shards(&mut cfg);
        let mut net = build_network(cfg);
        args.apply_threads(&mut net);
        net.run(rounds);
        let rep = net.report(warmup, rounds - 1);
        results.push(RunResult {
            strategy: name,
            model_msgs,
            sim_msgs: rep.msgs_per_round_model_view(),
            sim_p_indexed: rep.p_indexed,
            sim_indexed_keys: rep.indexed_keys,
            wasted_bandwidth: rep.wasted_bandwidth,
            gossip_bytes_per_round: rep.gossip_bytes_per_round,
        });
        hist_reports.push((format!("{name}@full_scale_1_300"), rep));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                f1(r.model_msgs),
                f1(r.sim_msgs),
                f3(r.sim_msgs / r.model_msgs),
                f3(r.sim_p_indexed),
                f1(r.sim_indexed_keys),
                f3(r.wasted_bandwidth),
                f1(r.gossip_bytes_per_round),
            ]
        })
        .collect();
    print_table(
        &format!("S2 full Table-1 scale at fQry = 1/300 (keyTtl = {ttl}, {rounds} rounds)"),
        &[
            "strategy",
            "model msg/s",
            "sim msg/s",
            "ratio",
            "sim pIndxd",
            "sim keys",
            "wasted",
            "bytes/rnd",
        ],
        &rows,
    );
    let partial = results.iter().find(|r| r.strategy == "partial").unwrap();
    let others_min = results
        .iter()
        .filter(|r| r.strategy != "partial")
        .map(|r| r.sim_msgs)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  headline check: partial {:.0} msg/s vs best baseline {:.0} msg/s -> {}",
        partial.sim_msgs,
        others_min,
        if partial.sim_msgs < others_min {
            "partial indexing wins at full scale (paper's claim reproduced)"
        } else {
            "partial does not win — inspect"
        }
    );
    for r in &results {
        csv_rows.push(vec![
            "full_scale_1_300".into(),
            r.strategy.to_string(),
            f1(r.model_msgs),
            f1(r.sim_msgs),
            f3(r.sim_p_indexed),
            f1(r.sim_indexed_keys),
            f3(r.wasted_bandwidth),
            f1(r.gossip_bytes_per_round),
        ]);
    }

    let path = write_csv(
        "sim_vs_model",
        &[
            "f_qry",
            "strategy",
            "model_msgs",
            "sim_msgs",
            "sim_p_indexed",
            "sim_indexed_keys",
            "wasted_bandwidth",
            "gossip_bytes_per_round",
        ],
        &csv_rows,
    )
    .expect("write results CSV");
    let hist_path =
        write_histograms_csv("sim_vs_model_hist", &hist_reports).expect("write histogram CSV");
    println!("\nwrote {} and {}", path.display(), hist_path.display());
}
