//! The RIPPLE benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-topk|dense-local|served-ingest|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints one `workload metric value unit` line per metric, then a
//! JSON result line. `--trace 0` reports the end-to-end metrics of an
//! untraced run; `--trace 1` reports the per-layer metrics of a run whose
//! overlay and query callbacks are wrapped in timers, checked query by
//! query against an untraced twin. The exit code is non-zero when any
//! output check fails. `perfbench/design.json` records why each workload
//! exists and which end-to-end metric each layer metric should move.

mod check;
mod closed;
mod common;
mod report;
mod served;
mod trace;

use report::Report;
use ripple_data::{nba, synth, SynthConfig};
use std::process::{Command, ExitCode};

pub const WORKLOADS: [&str; 3] = ["paper-topk", "dense-local", "served-ingest"];

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("topk_p50_ms", "ms"),
    ("topk_p99_ms", "ms"),
    ("skyline_p50_ms", "ms"),
    ("skyline_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("served_p50_ms", "ms"),
    ("served_p99_ms", "ms"),
    ("served_max_rate_qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("messages_per_query", "count"),
    ("hops_per_query", "count"),
];

/// End-to-end metrics printed by every untraced run but left out of its
/// result line, and so given no bound: on a shared 2-core host their
/// spread over seeds reached 0.2–1.0 of their median on some workload,
/// wider than any bound the benchmark may set (see `perfbench/design.json`).
pub const UNBOUNDED: [&str; 7] = [
    "topk_p99_ms",
    "skyline_p95_ms",
    "served_p50_ms",
    "served_p99_ms",
    "served_max_rate_qps",
    "write_p50_ms",
    "write_p99_ms",
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("midas.peer_links.calls_per_query", "count"),
    ("midas.peer_links.us_per_query", "us"),
    ("midas.region_intersect.calls_per_query", "count"),
    ("midas.region_intersect.us_per_query", "us"),
    ("midas.region_volume.us_per_query", "us"),
    ("midas.route_lookup.us_per_query", "us"),
    ("midas.peer_view.us_per_query", "us"),
    ("midas.failover_target.calls_per_query", "count"),
    ("exec.us_per_query", "us"),
    ("exec.self_us_per_query", "us"),
    ("exec.tuples_transferred_per_query", "count"),
    ("query.us_per_query", "us"),
    ("topk.local_state.calls_per_query", "count"),
    ("topk.local_state.us_per_query", "us"),
    ("topk.global_state.us_per_query", "us"),
    ("topk.update_local.us_per_query", "us"),
    ("topk.local_answer.us_per_query", "us"),
    ("topk.link_relevant.us_per_query", "us"),
    ("topk.priority.us_per_query", "us"),
    ("topk.prune_witness.us_per_query", "us"),
    ("skyline.local_state.us_per_query", "us"),
    ("skyline.global_state.us_per_query", "us"),
    ("skyline.update_local.us_per_query", "us"),
    ("skyline.local_answer.us_per_query", "us"),
    ("skyline.link_relevant.us_per_query", "us"),
    ("store.tuples_scanned_per_query", "count"),
    ("store.blocks_pruned_per_query", "count"),
    ("store.scanned_per_answer", "ratio"),
    ("store.memtable_hits_per_query", "count"),
    ("store.tombstones_masked_per_query", "count"),
    ("store.write_amplification", "ratio"),
    ("store.compactions", "count"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("service.miss_ms_p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_invalidated_per_epoch", "count"),
    ("service.backlog_max", "count"),
    ("service.advance_epoch.ms_p99", "ms"),
    ("midas.insert_batch.ms_per_epoch", "ms"),
    ("midas.delete_tuples.ms_per_epoch", "ms"),
    ("data.generate_s", "s"),
    ("midas.build_s", "s"),
    ("midas.load_s", "s"),
    ("midas.age_s", "s"),
    ("generator.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Figure 4 at the paper's default size: 22k NBA-like 6-d tuples on 2^14
/// MIDAS peers, top-k with k = 10, r cycling over {0, Δ/3, 2Δ/3, Δ}.
fn paper_topk() -> closed::Spec {
    closed::Spec {
        dims: nba::DIMS,
        peers: 1 << 14,
        data: nba::paper,
        skyline_every: 0,
        side_skylines: 240,
        modes: common::paper_modes,
        write_batch: 256,
    }
}

/// 262,144 clustered 5-d SYNTH tuples on 64 peers (about 16 frozen blocks
/// per peer): three top-k (k = 10) to one constrained skyline, fast and
/// ripple modes.
fn dense_local() -> closed::Spec {
    closed::Spec {
        dims: 5,
        peers: 64,
        data: |rng| synth::generate(&SynthConfig::scaled(5, 262_144), rng),
        skyline_every: 4,
        side_skylines: 0,
        modes: |delta| {
            vec![
                ripple_core::Mode::Fast,
                ripple_core::Mode::Ripple(delta.div_ceil(2)),
            ]
        },
        write_batch: 1024,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload, untraced then traced, each in a process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status()
                .expect("spawn workload process");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut report = Report::new(&args.workload);
    match args.workload.as_str() {
        "paper-topk" => closed::run(
            &paper_topk(),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "dense-local" => closed::run(
            &dense_local(),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => served::run(args.seed, args.seconds, args.trace, &mut report),
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.print(declared, &UNBOUNDED) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
