//! Experiment S5 — generation-size sweep: bytes vs redundancy across the
//! gossip codecs.
//!
//! Runs the same 64-replica update-heavy scenario at every (codec,
//! generation) point of {plain, chunked, rlnc, rlnc-sparse} × {8, 16, 32}
//! and tabulates the byte cost model against the receive-level redundancy,
//! so the coding tradeoff reads off one table: plain pays full values per
//! push, chunked pays a fragment plus an offer bitmap, dense RLNC adds a
//! coefficient vector per packet, and sparse RLNC buys the same chunked
//! payload with ⌈G/4⌉-support combinations that keep encode cheap. Plain
//! ignores the generation knob, so its three rows double as a
//! determinism check (identical accounting at every G).
//!
//! The `--gossip-codec` and `--gen-size` flags are ignored here — the grid
//! *is* the experiment. `--smoke` shrinks rounds for CI; writes
//! `results/sim_gen_sweep.csv`.

use pdht_bench::{
    build_network, f1, f3, parse_sim_args, print_table, reject_peers_override, write_csv,
    write_histograms_csv,
};
use pdht_core::{GossipCodec, PdhtConfig, SimReport, Strategy};
use pdht_model::Scenario;

const GENERATIONS: [usize; 3] = [8, 16, 32];
const CODECS: [(GossipCodec, &str); 4] = [
    (GossipCodec::Plain, "plain"),
    (GossipCodec::Chunked, "chunked"),
    (GossipCodec::Rlnc, "rlnc"),
    (GossipCodec::RlncSparse, "rlnc-sparse"),
];

fn main() {
    let args = parse_sim_args();
    reject_peers_override(&args, "sim_gen_sweep");
    println!(
        "S5 configuration: overlay = {:?}, latency = {:?}, threads = {}, shards = {}{}",
        args.overlay,
        args.latency,
        args.threads,
        args.effective_shards(),
        if args.smoke { ", smoke mode" } else { "" }
    );
    let rounds: u64 = if args.smoke { 40 } else { 120 };

    let run = |codec: GossipCodec, gen: usize| -> SimReport {
        // The repl-64 group makes rumor spreading overshoot hard, so the
        // redundancy differences between codecs are visible above noise.
        let scenario = Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1_scaled(20) };
        let mut cfg = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
        cfg.seed = 0x9e4_2004;
        cfg.overlay = args.overlay;
        cfg.latency = args.latency;
        args.apply_shards(&mut cfg);
        cfg.gossip_codec = codec;
        cfg.gossip_generation = gen;
        let mut net = build_network(cfg);
        args.apply_threads(&mut net);
        net.run(rounds);
        net.report(0, rounds - 1)
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut hist_reports: Vec<(String, SimReport)> = Vec::new();
    let mut plain_bytes_per_round: Option<f64> = None;
    for gen in GENERATIONS {
        for (codec, name) in CODECS {
            let rep = run(codec, gen);
            let received = rep.gossip_innovative + rep.gossip_redundant;
            // Bytes spent per innovative (rank-raising) receive: the
            // sweep's figure of merit — how much bandwidth one unit of
            // actually-new information costs under each codec.
            let bytes_per_innovative = if rep.gossip_innovative > 0 {
                rep.gossip_bytes as f64 / rep.gossip_innovative as f64
            } else {
                f64::NAN
            };
            if codec == GossipCodec::Plain {
                // Plain ignores G: pin the first row and verify the rest.
                match plain_bytes_per_round {
                    None => plain_bytes_per_round = Some(rep.gossip_bytes_per_round),
                    Some(first) => assert!(
                        (rep.gossip_bytes_per_round - first).abs() < f64::EPSILON,
                        "plain accounting moved with --gen-size: {first} vs {}",
                        rep.gossip_bytes_per_round
                    ),
                }
            }
            rows.push(vec![
                name.to_string(),
                gen.to_string(),
                received.to_string(),
                rep.gossip_redundant.to_string(),
                f3(rep.wasted_bandwidth),
                f1(rep.gossip_bytes_per_round),
                f1(bytes_per_innovative),
            ]);
            csv_rows.push(vec![
                name.to_string(),
                gen.to_string(),
                f1(rep.msgs_per_round),
                rep.gossip_innovative.to_string(),
                rep.gossip_redundant.to_string(),
                f3(rep.wasted_bandwidth),
                rep.gossip_bytes.to_string(),
                f1(rep.gossip_bytes_per_round),
                f1(bytes_per_innovative),
            ]);
            hist_reports.push((format!("{name}@g{gen}"), rep));
        }
    }
    print_table(
        &format!(
            "S5 generation-size sweep — repl 64, {rounds} rounds, seed pinned \
             (bytes/innov = gossip bytes per rank-raising receive)"
        ),
        &["codec", "G", "received", "redundant", "wasted", "bytes/rnd", "bytes/innov"],
        &rows,
    );

    let path = write_csv(
        "sim_gen_sweep",
        &[
            "codec",
            "gen_size",
            "msgs_per_round",
            "gossip_innovative",
            "gossip_redundant",
            "wasted_bandwidth",
            "gossip_bytes",
            "gossip_bytes_per_round",
            "bytes_per_innovative",
        ],
        &csv_rows,
    )
    .expect("write results CSV");
    let hist_path =
        write_histograms_csv("sim_gen_sweep_hist", &hist_reports).expect("write histogram CSV");
    println!("\nwrote {} and {}", path.display(), hist_path.display());
}
