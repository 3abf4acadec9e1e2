//! Shared plumbing for the experiment binaries: fixed-width table printing
//! and CSV emission into `results/`.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see the experiment index in `DESIGN.md`) by printing the series to
//! stdout and writing `results/<name>.csv`.

use pdht_sim::HistogramSummary;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    // crates/bench → workspace root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV file into `results/`, returning its path.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Pseudorandom hop delay for the scheduler hold-model benchmarks: a
/// deterministic mix of near-future (same-round) and multi-second delays,
/// exercising every timing-wheel level the simulator touches. Shared by
/// `bench event_dispatch` and the `sim_scale` bin so the criterion numbers
/// and the CI-recorded `wheel_speedup` measure the *same* schedule.
pub fn sched_delay(i: u64) -> pdht_types::SimTime {
    pdht_types::SimTime::from_micros(pdht_types::mix64(0xd15ba7c4, i) % 2_000_000 + 1)
}

/// Writes a pre-rendered JSON document into `results/<name>.json`,
/// returning its path (benchmark artifacts like `BENCH_sim_scale.json`;
/// the offline environment has no serde, so callers format the body).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, body)?;
    Ok(path)
}

/// Extracts the first numeric value stored under `"key":` in
/// `results/<name>.json`, or `None` if the file or key is absent. Good
/// enough for the flat hand-rendered benchmark artifacts (no serde in this
/// environment); bins use it to print deltas against the committed
/// baseline before overwriting it.
pub fn read_json_number(name: &str, key: &str) -> Option<f64> {
    let body = fs::read_to_string(results_dir().join(format!("{name}.json"))).ok()?;
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Prints a fixed-width table: header row, separator, data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with three significant decimals for tables.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with one decimal for msg/s columns.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips() {
        let p = write_csv(
            "unit_test_artifact",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(719.96), "720.0");
    }

    #[test]
    fn json_number_extraction() {
        let p = write_json(
            "unit_test_json_artifact",
            "{\n  \"bench\": \"x\",\n  \"ms_per_round\": 41.625,\n  \"nested\": {\n    \
             \"speedup\": 2.5\n  }\n}\n",
        )
        .unwrap();
        assert_eq!(read_json_number("unit_test_json_artifact", "ms_per_round"), Some(41.625));
        assert_eq!(read_json_number("unit_test_json_artifact", "speedup"), Some(2.5));
        assert_eq!(read_json_number("unit_test_json_artifact", "absent"), None);
        assert_eq!(read_json_number("no_such_file_at_all", "ms_per_round"), None);
        let _ = std::fs::remove_file(p);
    }
}

/// Command-line flags shared by the simulation bins (S2/S3/S4): overlay
/// substrate, latency model, population override, and a CI-friendly smoke
/// mode.
#[derive(Clone, Copy, Debug)]
pub struct SimArgs {
    /// `--overlay trie|chord|kademlia` (default: trie, the paper's
    /// substrate).
    pub overlay: pdht_core::OverlayKind,
    /// `--latency zero|uniform:LO_MS,HI_MS|lognormal:MEDIAN_MS,SIGMA`
    /// (default: zero, the paper's whole-round semantics).
    pub latency: pdht_core::LatencyConfig,
    /// `--peers N`: override the scenario's total population (the S4 scale
    /// knob; `None` keeps each bin's default).
    pub peers: Option<u32>,
    /// `--threads N`: worker threads executing the engine's lanes
    /// (default 1). A purely *executor* knob: results never depend on it.
    pub threads: u32,
    /// `--shards N`: the engine's shard (lane) count — the *semantic*
    /// knob (`PdhtConfig::shards`). `None` means the default, 1.
    pub shards: Option<u32>,
    /// `--gossip-codec plain|chunked|rlnc|rlnc-sparse`: how update-gossip
    /// packets are encoded (`PdhtConfig::gossip_codec`; default plain, the
    /// legacy accounting).
    pub gossip_codec: pdht_core::GossipCodec,
    /// `--gen-size G`: generation size for the coded codecs
    /// (`PdhtConfig::gossip_generation`; default 8, the fixed-size
    /// behavior; max [`pdht_gossip::MAX_GENERATION`]).
    pub gen_size: u32,
    /// `--smoke`: shrink rounds/scale so CI can exercise the bin quickly.
    pub smoke: bool,
}

impl SimArgs {
    /// The effective shard count: `--shards` when given, else 1 (the
    /// thread count never changes what a run computes).
    pub fn effective_shards(&self) -> u32 {
        self.shards.unwrap_or(1)
    }

    /// Applies the semantic knobs to a configuration (shard count and
    /// gossip codec) — pair with [`SimArgs::apply_threads`] on the built
    /// network.
    pub fn apply_shards(&self, cfg: &mut pdht_core::PdhtConfig) {
        cfg.shards = self.effective_shards();
        cfg.gossip_codec = self.gossip_codec;
        cfg.gossip_generation = self.gen_size as usize;
    }

    /// Applies the `--threads` knob to a built network (worker count).
    pub fn apply_threads(&self, net: &mut pdht_core::PdhtNetwork) {
        net.set_threads(self.threads.max(1) as usize);
    }
}

/// Parses a `u32` flag value inside `[lo, hi]`.
///
/// # Errors
/// Returns a human-readable description of the rejected spelling.
pub fn parse_count_flag(flag: &str, value: &str, lo: u32, hi: u32) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(n) if n >= lo && n <= hi => Ok(n),
        _ if hi == u32::MAX => Err(format!("{flag} needs an integer >= {lo}, got {value:?}")),
        _ => Err(format!("{flag} needs an integer in {lo}..={hi}, got {value:?}")),
    }
}

/// Parses a gossip-codec spec (`plain`, `chunked`, `rlnc`, `rlnc-sparse`).
///
/// # Errors
/// Returns a human-readable description of the rejected spelling.
pub fn parse_gossip_codec(spec: &str) -> Result<pdht_core::GossipCodec, String> {
    use pdht_core::GossipCodec;
    match spec {
        "plain" => Ok(GossipCodec::Plain),
        "chunked" => Ok(GossipCodec::Chunked),
        "rlnc" => Ok(GossipCodec::Rlnc),
        "rlnc-sparse" => Ok(GossipCodec::RlncSparse),
        other => {
            Err(format!("unknown gossip codec {other:?} (want plain|chunked|rlnc|rlnc-sparse)"))
        }
    }
}

/// Prints `msg` and the shared simulation usage line to stderr and exits
/// with code 2 — the one exit path for rejected flags and rejected
/// configurations. Partial output already printed by the bin is flushed
/// first, so it is never lost (`process::exit` skips the stdout
/// destructor).
pub fn usage_exit(msg: &str) -> ! {
    let _ = std::io::stdout().flush();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [--overlay trie|chord|kademlia] \
         [--latency zero|uniform:LO_MS,HI_MS|lognormal:MEDIAN_MS,SIGMA] \
         [--peers N] [--threads N] [--shards N] \
         [--gossip-codec plain|chunked|rlnc|rlnc-sparse] [--gen-size G] [--smoke]"
    );
    let _ = std::io::stderr().flush();
    std::process::exit(2);
}

/// Builds a bin's network, exiting through [`usage_exit`] when the
/// configuration is rejected (for example `--peers` below the scenario's
/// replication factor).
pub fn build_network(cfg: pdht_core::PdhtConfig) -> pdht_core::PdhtNetwork {
    pdht_core::PdhtNetwork::new(cfg)
        .unwrap_or_else(|e| usage_exit(&format!("invalid configuration: {e}")))
}

/// Parses the shared simulation flags from `std::env::args`, exiting with a
/// usage message on anything unrecognized.
pub fn parse_sim_args() -> SimArgs {
    use pdht_core::{GossipCodec, LatencyConfig, OverlayKind};
    let mut args = SimArgs {
        overlay: OverlayKind::Trie,
        latency: LatencyConfig::Zero,
        peers: None,
        threads: 1,
        shards: None,
        gossip_codec: GossipCodec::Plain,
        gen_size: pdht_gossip::GENERATION_SIZE as u32,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--overlay" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--overlay needs a value"));
                args.overlay = match v.as_str() {
                    "trie" => OverlayKind::Trie,
                    "chord" => OverlayKind::Chord,
                    "kademlia" => OverlayKind::Kademlia,
                    other => usage_exit(&format!("unknown overlay {other:?}")),
                };
            }
            "--latency" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--latency needs a value"));
                args.latency = parse_latency(&v).unwrap_or_else(|e| usage_exit(&e));
            }
            "--peers" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--peers needs a value"));
                args.peers = Some(
                    parse_count_flag("--peers", &v, 2, u32::MAX).unwrap_or_else(|e| usage_exit(&e)),
                );
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--threads needs a value"));
                args.threads =
                    parse_count_flag("--threads", &v, 1, 256).unwrap_or_else(|e| usage_exit(&e));
            }
            "--shards" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--shards needs a value"));
                args.shards = Some(
                    parse_count_flag("--shards", &v, 1, 256).unwrap_or_else(|e| usage_exit(&e)),
                );
            }
            "--gossip-codec" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--gossip-codec needs a value"));
                args.gossip_codec = parse_gossip_codec(&v).unwrap_or_else(|e| usage_exit(&e));
            }
            "--gen-size" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--gen-size needs a value"));
                args.gen_size =
                    parse_count_flag("--gen-size", &v, 1, pdht_gossip::MAX_GENERATION as u32)
                        .unwrap_or_else(|e| usage_exit(&e));
            }
            "--smoke" => args.smoke = true,
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Exits with an error if `--peers` was passed to a bin whose scenario is
/// fixed (only the S4 scale bin honors the override) — silently ignoring
/// the flag would mislabel the results.
pub fn reject_peers_override(args: &SimArgs, bin: &str) {
    if let Some(n) = args.peers {
        eprintln!(
            "error: {bin} runs a fixed scenario and does not support --peers {n} \
             (the population override is the S4 knob — use the sim_scale bin)"
        );
        std::process::exit(2);
    }
}

/// Parses a latency-model spec (`zero`, `uniform:LO_MS,HI_MS`,
/// `lognormal:MEDIAN_MS,SIGMA`).
///
/// # Errors
/// Returns a human-readable description of the malformed spec.
pub fn parse_latency(spec: &str) -> Result<pdht_core::LatencyConfig, String> {
    use pdht_core::LatencyConfig;
    if spec == "zero" {
        return Ok(LatencyConfig::Zero);
    }
    let two = |body: &str, what: &str| -> Result<(f64, f64), String> {
        let (a, b) = body
            .split_once(',')
            .ok_or_else(|| format!("{what} needs two comma-separated numbers, got {body:?}"))?;
        let a = a.trim().parse::<f64>().map_err(|e| format!("bad {what} number {a:?}: {e}"))?;
        let b = b.trim().parse::<f64>().map_err(|e| format!("bad {what} number {b:?}: {e}"))?;
        Ok((a, b))
    };
    if let Some(body) = spec.strip_prefix("uniform:") {
        let (lo_ms, hi_ms) = two(body, "uniform")?;
        return Ok(LatencyConfig::Uniform { lo_ms, hi_ms });
    }
    if let Some(body) = spec.strip_prefix("lognormal:") {
        let (median_ms, sigma) = two(body, "lognormal")?;
        return Ok(LatencyConfig::LogNormal { median_ms, sigma });
    }
    Err(format!("unknown latency model {spec:?}"))
}

/// The header of every histogram CSV (`write_histograms_csv`): one row per
/// `(label, metric)` pair carrying the full [`HistogramSummary`].
pub const HISTOGRAM_CSV_HEADER: [&str; 8] =
    ["label", "metric", "count", "mean", "p50", "p95", "p99", "max"];

/// Flattens one labelled [`HistogramSummary`] into a CSV row. The mean is
/// formatted with `Display`, which for `f64` is the shortest representation
/// that parses back exactly — so rows round-trip losslessly (asserted by
/// `histogram_rows_round_trip`).
pub fn histogram_csv_row(label: &str, metric: &str, h: &HistogramSummary) -> Vec<String> {
    vec![
        label.to_string(),
        metric.to_string(),
        h.count.to_string(),
        format!("{}", h.mean),
        h.p50.to_string(),
        h.p95.to_string(),
        h.p99.to_string(),
        h.max.to_string(),
    ]
}

/// Parses a row written by [`histogram_csv_row`] back into its label,
/// metric, and summary.
///
/// # Errors
/// Returns a description of the malformed row.
pub fn parse_histogram_csv_row(row: &str) -> Result<(String, String, HistogramSummary), String> {
    let fields: Vec<&str> = row.split(',').collect();
    if fields.len() != HISTOGRAM_CSV_HEADER.len() {
        return Err(format!(
            "expected {} fields, got {} in {row:?}",
            HISTOGRAM_CSV_HEADER.len(),
            fields.len()
        ));
    }
    let int = |s: &str| s.parse::<u64>().map_err(|e| format!("bad integer {s:?}: {e}"));
    Ok((
        fields[0].to_string(),
        fields[1].to_string(),
        HistogramSummary {
            count: int(fields[2])?,
            mean: fields[3].parse::<f64>().map_err(|e| format!("bad mean {:?}: {e}", fields[3]))?,
            p50: int(fields[4])?,
            p95: int(fields[5])?,
            p99: int(fields[6])?,
            max: int(fields[7])?,
        },
    ))
}

/// Writes the per-query hop/latency and per-wave wasted-bandwidth
/// histograms of labelled [`pdht_core::SimReport`]s to
/// `results/<name>.csv` (one row per populated histogram), returning the
/// path. Reports without histograms (e.g. a run that answered no queries,
/// or ran no update gossip) contribute no rows.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_histograms_csv(
    name: &str,
    reports: &[(String, pdht_core::SimReport)],
) -> std::io::Result<PathBuf> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, report) in reports {
        if let Some(h) = &report.query_hops {
            rows.push(histogram_csv_row(label, "query_hops", h));
        }
        if let Some(h) = &report.query_latency_us {
            rows.push(histogram_csv_row(label, "query_latency_us", h));
        }
        if let Some(h) = &report.gossip_wave_redundant {
            rows.push(histogram_csv_row(label, "gossip_wave_redundant", h));
        }
        if let Some(h) = &report.gossip_wave_bytes {
            rows.push(histogram_csv_row(label, "gossip_wave_bytes", h));
        }
    }
    write_csv(name, &HISTOGRAM_CSV_HEADER, &rows)
}

#[cfg(test)]
mod histogram_csv_tests {
    use super::*;

    #[test]
    fn histogram_rows_round_trip() {
        // A mean with a non-terminating binary expansion must survive the
        // format → parse cycle bit-for-bit (f64 Display is shortest-exact).
        let summary = HistogramSummary {
            count: 12_345,
            mean: 7.0 / 3.0,
            p50: 4,
            p95: 17,
            p99: 128,
            max: 100_000,
        };
        let row = histogram_csv_row("partial@1/30", "query_latency_us", &summary);
        let (label, metric, parsed) = parse_histogram_csv_row(&row.join(",")).expect("parses");
        assert_eq!(label, "partial@1/30");
        assert_eq!(metric, "query_latency_us");
        assert_eq!(parsed, summary, "CSV row must round-trip the summary exactly");
    }

    #[test]
    fn histogram_csv_file_round_trips_simreport_values() {
        // End-to-end: run a short simulation, persist its SimReport
        // histograms, read the file back, and compare against the report.
        use pdht_core::{LatencyConfig, PdhtConfig, PdhtNetwork, Strategy};
        let mut cfg =
            PdhtConfig::new(pdht_model::Scenario::table1_scaled(20), 1.0 / 30.0, Strategy::Partial);
        cfg.latency = LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 };
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.run(12);
        let report = net.report(0, 11);
        assert!(report.query_hops.is_some() && report.query_latency_us.is_some());

        let path = write_histograms_csv(
            "unit_test_histograms",
            &[("partial".to_string(), report.clone())],
        )
        .expect("write CSV");
        let body = std::fs::read_to_string(&path).expect("read back");
        let mut lines = body.lines();
        assert_eq!(lines.next().unwrap(), HISTOGRAM_CSV_HEADER.join(","));
        let mut seen = 0;
        for line in lines {
            let (label, metric, parsed) = parse_histogram_csv_row(line).expect("parses");
            assert_eq!(label, "partial");
            let original = match metric.as_str() {
                "query_hops" => report.query_hops.expect("hops populated"),
                "query_latency_us" => report.query_latency_us.expect("latency populated"),
                other => panic!("unexpected metric {other}"),
            };
            assert_eq!(parsed, original, "{metric} must round-trip through the CSV");
            seen += 1;
        }
        assert_eq!(seen, 2, "both histograms must be persisted");
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod latency_spec_tests {
    use super::parse_latency;
    use pdht_core::LatencyConfig;

    #[test]
    fn parses_all_model_specs() {
        assert_eq!(parse_latency("zero").unwrap(), LatencyConfig::Zero);
        assert_eq!(
            parse_latency("uniform:5,20").unwrap(),
            LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 }
        );
        assert_eq!(
            parse_latency("lognormal:30,0.5").unwrap(),
            LatencyConfig::LogNormal { median_ms: 30.0, sigma: 0.5 }
        );
        assert!(parse_latency("gaussian:1,2").is_err());
        assert!(parse_latency("uniform:5").is_err());
        assert!(parse_latency("lognormal:a,b").is_err());
    }
}

#[cfg(test)]
mod flag_spec_tests {
    use super::{parse_count_flag, parse_gossip_codec};
    use pdht_core::GossipCodec;

    #[test]
    fn count_flags_accept_their_domains() {
        assert_eq!(parse_count_flag("--peers", "2", 2, u32::MAX), Ok(2));
        assert_eq!(parse_count_flag("--peers", "1000000", 2, u32::MAX), Ok(1_000_000));
        assert_eq!(parse_count_flag("--threads", "1", 1, 256), Ok(1));
        assert_eq!(parse_count_flag("--threads", "256", 1, 256), Ok(256));
        assert_eq!(parse_count_flag("--shards", "8", 1, 256), Ok(8));
    }

    #[test]
    fn peers_rejections_name_the_spelling() {
        for bad in ["1", "0", "abc", "-3", "2.5", ""] {
            let err = parse_count_flag("--peers", bad, 2, u32::MAX).unwrap_err();
            assert!(err.contains("--peers") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn threads_rejections_name_the_spelling() {
        for bad in ["0", "257", "x", "-1", "1e2", ""] {
            let err = parse_count_flag("--threads", bad, 1, 256).unwrap_err();
            assert!(err.contains("--threads") && err.contains("1..=256"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn shards_rejections_name_the_spelling() {
        for bad in ["0", "1000", "four", ""] {
            let err = parse_count_flag("--shards", bad, 1, 256).unwrap_err();
            assert!(err.contains("--shards") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn gossip_codec_specs_parse_and_reject() {
        assert_eq!(parse_gossip_codec("plain"), Ok(GossipCodec::Plain));
        assert_eq!(parse_gossip_codec("chunked"), Ok(GossipCodec::Chunked));
        assert_eq!(parse_gossip_codec("rlnc"), Ok(GossipCodec::Rlnc));
        assert_eq!(parse_gossip_codec("rlnc-sparse"), Ok(GossipCodec::RlncSparse));
        for bad in [
            "Plain",
            "RLNC",
            "rlnC",
            "fountain",
            "raptor",
            "rlncsparse",
            "sparse",
            "RLNC-SPARSE",
            "",
        ] {
            let err = parse_gossip_codec(bad).unwrap_err();
            assert!(err.contains("plain|chunked|rlnc|rlnc-sparse"), "{err}");
        }
    }

    #[test]
    fn gen_size_rejections_name_the_spelling() {
        let hi = pdht_gossip::MAX_GENERATION as u32;
        assert_eq!(parse_count_flag("--gen-size", "1", 1, hi), Ok(1));
        assert_eq!(parse_count_flag("--gen-size", "8", 1, hi), Ok(8));
        assert_eq!(parse_count_flag("--gen-size", "32", 1, hi), Ok(32));
        for bad in ["0", "33", "64", "eight", "-8", "8.0", ""] {
            let err = parse_count_flag("--gen-size", bad, 1, hi).unwrap_err();
            assert!(err.contains("--gen-size") && err.contains("1..=32"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn default_shards_is_one_explicit_shards_win() {
        use super::SimArgs;
        use pdht_core::{LatencyConfig, OverlayKind, PdhtConfig, Strategy};
        let mut args = SimArgs {
            overlay: OverlayKind::Trie,
            latency: LatencyConfig::Zero,
            peers: None,
            threads: 4,
            shards: None,
            gossip_codec: GossipCodec::Rlnc,
            gen_size: 32,
            smoke: true,
        };
        assert_eq!(args.effective_shards(), 1, "--threads never sets the shard count");
        args.shards = Some(8);
        assert_eq!(args.effective_shards(), 8, "--shards decouples semantics");
        let mut cfg =
            PdhtConfig::new(pdht_model::Scenario::table1_scaled(20), 1.0 / 30.0, Strategy::Partial);
        args.apply_shards(&mut cfg);
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.gossip_codec, GossipCodec::Rlnc);
        assert_eq!(cfg.gossip_generation, 32, "apply_shards carries --gen-size");
    }
}
