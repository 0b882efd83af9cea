//! Micro-benchmark for the columnar block layer and its scan kernels
//! (PR acceptance run).
//!
//! Builds one MIDAS overlay and times two *local-scan-bound* workloads
//! over it through two executors: the blocked kernel paths
//! (`Executor::new`) and the scalar reference (`Executor::naive`, which
//! hands every peer a plain tuple slice, so no index or columnar mirror is
//! ever read):
//!
//! * **top-k**: every query carries a fresh linear scoring function
//!   (blocked: one batched `score_block` pass + top-k selector + `f⁺`
//!   block pruning, keeping the answer rows for the local answer; scalar:
//!   per-tuple scoring + full sort, then a rescoring filter);
//! * **constrained skyline**: a selective constraint defeats the per-peer
//!   skyline cache, so peers scan for the qualifying rows on every visit
//!   (blocked: columnar `filter_in_box` + corner-pruned blocks + index
//!   sort; scalar: per-tuple containment with a pointer chase per row,
//!   clone the qualifying set, recompute the skyline, then answer by a
//!   linear id scan).
//!
//! Before timing, every query is cross-checked: identical answer streams
//! and bit-identical cost ledgers (the data-plane scan counters are
//! excluded from ledger equality by design — they *are* the difference),
//! plus `blocks_pruned > 0` on the blocked arm so the run proves the
//! pruning bounds bite.
//!
//! Writes `results/BENCH_PR5_kernels.json` and prints a summary. Pass
//! `--quick` for a small CI smoke configuration (no speedup assertion:
//! shared runners make wall-clock gates flaky; the full run asserts
//! `>= 2x` on both workloads).

use ripple_bench::output::cpu_header_json;
use ripple_bench::runner::midas_uniform_with_data;
use ripple_bench::timing::bench;
use ripple_core::framework::Mode;
use ripple_core::skyline::SkylineQuery;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{LinearScore, Rect};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::PeerId;

const DIMS: usize = 4;
const K: usize = 16;

struct Config {
    peers: usize,
    records: usize,
    queries: usize,
    quick: bool,
}

impl Config {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        if quick {
            Self {
                peers: 16,
                records: 20_000,
                queries: 8,
                quick,
            }
        } else {
            Self {
                peers: 64,
                records: 200_000,
                queries: 48,
                quick,
            }
        }
    }
}

fn build(cfg: &Config) -> MidasNetwork {
    let mut rng = SmallRng::seed_from_u64(0xb10c);
    let data = ripple_data::synth::uniform(DIMS, cfg.records, &mut rng);
    midas_uniform_with_data(DIMS, cfg.peers, false, &data, 7)
}

fn initiators(net: &MidasNetwork, cfg: &Config) -> Vec<PeerId> {
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    (0..cfg.queries)
        .map(|_| net.random_peer(&mut rng))
        .collect()
}

/// One fresh scoring function per query: weights drawn from a seeded
/// stream, never repeated.
fn fresh_scores(cfg: &Config) -> Vec<LinearScore> {
    let mut rng = SmallRng::seed_from_u64(0xad0c);
    (0..cfg.queries)
        .map(|_| {
            let w: Vec<f64> = (0..DIMS).map(|_| 0.1 + 0.9 * rng.gen::<f64>()).collect();
            LinearScore::new(w)
        })
        .collect()
}

/// A selective interior box: few rows qualify, so the per-visit cost is the
/// *scan* that finds them (every store row must be constraint-tested), not
/// the skyline merges over the survivors — which is precisely the workload
/// the columnar filter kernel targets. A fat box (say `[0.1, 0.8]^d`)
/// produces hundreds of skyline members in 4-d and the run degenerates into
/// measuring the global merge logic, which the two arms share by design.
fn constraint() -> Rect {
    Rect::new(vec![0.38; DIMS], vec![0.52; DIMS])
}

fn topk_workload(
    exec: &Executor<'_, MidasNetwork>,
    inits: &[PeerId],
    scores: &[LinearScore],
) -> u64 {
    let mut sum = 0u64;
    for (&init, s) in inits.iter().zip(scores) {
        let q = TopKQuery::new(s.clone(), K);
        let out = exec.run(init, &q, Mode::Fast);
        sum = sum.wrapping_add(out.answers.len() as u64 + out.metrics.latency);
    }
    sum
}

fn skyline_workload(exec: &Executor<'_, MidasNetwork>, inits: &[PeerId]) -> u64 {
    let q = SkylineQuery::constrained(constraint());
    let mut sum = 0u64;
    for &init in inits {
        let out = exec.run(init, &q, Mode::Fast);
        sum = sum.wrapping_add(out.answers.len() as u64 + out.metrics.latency);
    }
    sum
}

/// Cross-checks the two arms query by query before anything is timed, and
/// verifies the blocked arm actually pruned blocks somewhere.
fn verify_equivalence(
    blocked: &Executor<'_, MidasNetwork>,
    scalar: &Executor<'_, MidasNetwork>,
    inits: &[PeerId],
    scores: &[LinearScore],
) -> (u64, u64, u64) {
    let mut scanned_blocked = 0u64;
    let mut scanned_scalar = 0u64;
    let mut pruned = 0u64;
    for (i, (&init, s)) in inits.iter().zip(scores).enumerate() {
        let q = TopKQuery::new(s.clone(), K);
        let a = blocked.run(init, &q, Mode::Fast);
        let b = scalar.run(init, &q, Mode::Fast);
        assert_eq!(a.metrics, b.metrics, "top-k ledgers diverged at query {i}");
        assert_eq!(a.answers, b.answers, "top-k answers diverged at query {i}");
        scanned_blocked += a.metrics.tuples_scanned;
        scanned_scalar += b.metrics.tuples_scanned;
        pruned += a.metrics.blocks_pruned;
        assert_eq!(b.metrics.blocks_pruned, 0, "scalar arm must never prune");

        let q = SkylineQuery::constrained(constraint());
        let a = blocked.run(init, &q, Mode::Fast);
        let b = scalar.run(init, &q, Mode::Fast);
        assert_eq!(
            a.metrics, b.metrics,
            "skyline ledgers diverged at query {i}"
        );
        assert_eq!(
            a.answers, b.answers,
            "skyline answers diverged at query {i}"
        );
        scanned_blocked += a.metrics.tuples_scanned;
        scanned_scalar += b.metrics.tuples_scanned;
        pruned += a.metrics.blocks_pruned;
    }
    assert!(
        pruned > 0,
        "blocked runs must prune blocks on this workload"
    );
    assert!(
        scanned_blocked < scanned_scalar,
        "pruned blocks are rows the blocked scan never touched"
    );
    (scanned_blocked, scanned_scalar, pruned)
}

fn main() {
    let cfg = Config::from_args();
    eprintln!(
        "building network: {} peers, {} tuples, {DIMS}-d ...",
        cfg.peers, cfg.records
    );
    let net = build(&cfg);
    let inits = initiators(&net, &cfg);
    let scores = fresh_scores(&cfg);

    let blocked = Executor::new(&net);
    let scalar = Executor::naive(&net);

    eprintln!(
        "verifying blocked == scalar on all {} queries ...",
        cfg.queries
    );
    let (scanned_blocked, scanned_scalar, pruned) =
        verify_equivalence(&blocked, &scalar, &inits, &scores);
    eprintln!(
        "scan accounting: blocked {scanned_blocked} rows, scalar {scanned_scalar} rows, \
         {pruned} blocks pruned"
    );

    let topk_scalar = bench("kernels/topk_scalar", || {
        topk_workload(&scalar, &inits, &scores)
    });
    let topk_blocked = bench("kernels/topk_blocked", || {
        topk_workload(&blocked, &inits, &scores)
    });
    let sky_scalar = bench("kernels/skyline_scalar", || {
        skyline_workload(&scalar, &inits)
    });
    let sky_blocked = bench("kernels/skyline_blocked", || {
        skyline_workload(&blocked, &inits)
    });

    let topk_speedup = topk_scalar.ns_per_iter / topk_blocked.ns_per_iter;
    let sky_speedup = sky_scalar.ns_per_iter / sky_blocked.ns_per_iter;
    println!(
        "top-k               : scalar {:.2} ms  blocked {:.2} ms  speedup {:.2}x",
        topk_scalar.ms_per_iter(),
        topk_blocked.ms_per_iter(),
        topk_speedup
    );
    println!(
        "constrained skyline : scalar {:.2} ms  blocked {:.2} ms  speedup {:.2}x",
        sky_scalar.ms_per_iter(),
        sky_blocked.ms_per_iter(),
        sky_speedup
    );

    if !cfg.quick {
        let json = format!(
            "{{\n  \"bench\": \"kernels\",\n  {cpu},\n  \"config\": {{ \"peers\": {}, \"records\": {}, \"dims\": {DIMS}, \"queries\": {}, \"k\": {K}, \"mode\": \"fast\", \"scores\": \"fresh linear weights per query\", \"scalar_arm\": \"Executor::naive\" }},\n  \"equivalence\": \"verified (identical answer streams + bit-identical ledgers on all queries)\",\n  \"scan_accounting\": {{ \"blocked_rows\": {scanned_blocked}, \"scalar_rows\": {scanned_scalar}, \"blocks_pruned\": {pruned} }},\n  \"topk\": {{ \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3} }},\n  \"skyline_constrained\": {{ \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3} }}\n}}\n",
            cfg.peers,
            cfg.records,
            cfg.queries,
            topk_scalar.ms_per_iter(),
            topk_blocked.ms_per_iter(),
            topk_speedup,
            sky_scalar.ms_per_iter(),
            sky_blocked.ms_per_iter(),
            sky_speedup,
            cpu = cpu_header_json(),
        );
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/BENCH_PR5_kernels.json", json).expect("write results");
        eprintln!("wrote results/BENCH_PR5_kernels.json");

        assert!(
            topk_speedup >= 2.0 && sky_speedup >= 2.0,
            "acceptance: both workloads must speed up >= 2x \
             (topk {topk_speedup:.2}x, skyline {sky_speedup:.2}x)"
        );
    }
}
