//! Certificate overhead benchmark (PR 7 acceptance run).
//!
//! For workload shapes spanning the paper's figure families — top-k across
//! overlay size, dimensionality and result size (figs 4–6), skyline plain
//! and constrained (figs 7–8), and single-tuple diversification across λ
//! (figs 9–12) — this bench measures, per shape × mode:
//!
//! * **query wall-clock** with certificate emission on vs off (the
//!   [`Executor::without_certificates`] ablation, same seeds, same
//!   initiators);
//! * **certificate size** in bytes ([`Certificate::size_bytes`]);
//! * **verification time** of the independent `ripple-verify` checker,
//!   compared against the query itself (the checker is O(answer + regions),
//!   so it should be orders of magnitude cheaper than re-running);
//! * **verification outcome** — every certificate must be accepted, and the
//!   JSON stamps `verified: true` per cell.
//!
//! Acceptance gate: the aggregate certificate overhead — (certs-on minus
//! certs-off total wall-clock) / certs-off — stays ≤ 5 %.
//!
//! Writes `results/BENCH_PR7_certificates.json`. Pass `quick` to shrink the
//! grid (the CI smoke entry point): every certificate is still verified, but
//! the overhead gate is skipped — 8 queries/cell on a shared runner is too
//! noisy to time honestly — and the output goes to a separate `_quick` file
//! so the committed full run is never clobbered.

use ripple_bench::output::cpu_header_json;
use ripple_bench::runner::midas_uniform_with_data;
use ripple_core::diversify::run_single_tuple_certified;
use ripple_core::skyline::{run_skyline_certified, SkylineQuery};
use ripple_core::topk::run_topk_certified;
use ripple_core::{Executor, Mode};
use ripple_geom::{DiversityQuery, LinearScore, Norm, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::PeerId;
use ripple_verify::{verify_coverage, verify_diversify, verify_skyline, verify_topk, Certificate};
use std::fmt::Write as _;
use std::time::Instant;

const MODES: [(&str, Mode); 3] = [
    ("fast", Mode::Fast),
    ("slow", Mode::Slow),
    ("ripple2", Mode::Ripple(2)),
];
const OVERHEAD_GATE: f64 = 0.05;

/// One workload shape: the figure family it stands in for, the overlay, and
/// the query family to drive over it.
struct Shape {
    figure: &'static str,
    query: &'static str,
    peers: usize,
    records: usize,
    dims: usize,
    k: usize,
    lambda: f64,
}

fn shapes(quick: bool) -> Vec<Shape> {
    let s = |figure, query, peers, records, dims, k, lambda| Shape {
        figure,
        query,
        peers,
        records,
        dims,
        k,
        lambda,
    };
    if quick {
        return vec![
            s("fig4", "topk", 128, 4_000, 2, 10, 0.0),
            s("fig7", "skyline", 128, 4_000, 2, 0, 0.0),
            s("fig9", "diversify", 128, 2_000, 2, 0, 0.5),
        ];
    }
    vec![
        // figs 4–6: top-k vs overlay size, dimensionality, result size.
        s("fig4", "topk", 256, 8_000, 2, 10, 0.0),
        s("fig4", "topk", 1024, 8_000, 2, 10, 0.0),
        s("fig5", "topk", 256, 8_000, 5, 10, 0.0),
        s("fig6", "topk", 256, 8_000, 2, 50, 0.0),
        s("fig6", "topk", 256, 8_000, 2, 100, 0.0),
        // figs 7–8: skyline vs overlay size and dimensionality.
        s("fig7", "skyline", 256, 8_000, 2, 0, 0.0),
        s("fig7", "skyline", 1024, 8_000, 2, 0, 0.0),
        s("fig8", "skyline", 256, 8_000, 4, 0, 0.0),
        s("fig8", "skyline-constrained", 256, 8_000, 2, 0, 0.0),
        // figs 9–12: single-tuple diversification across the λ trade-off.
        s("fig9", "diversify", 256, 4_000, 2, 0, 0.5),
        s("fig10", "diversify", 256, 4_000, 2, 0, 0.2),
        s("fig11", "diversify", 256, 4_000, 2, 0, 0.8),
        s("fig12", "diversify", 256, 4_000, 5, 0, 0.5),
    ]
}

/// Per-cell measurement accumulator.
#[derive(Default)]
struct Cell {
    on_ns: u128,
    off_ns: u128,
    verify_ns: u128,
    cert_bytes: u64,
    regions: u64,
    unverified: usize,
    n: u32,
}

impl Cell {
    fn record(&mut self, on_ns: u128, off_ns: u128, verify_ns: u128, cert: &Certificate, ok: bool) {
        self.on_ns += on_ns;
        self.off_ns += off_ns;
        self.verify_ns += verify_ns;
        self.cert_bytes += cert.size_bytes() as u64;
        self.regions += cert.regions.len() as u64;
        if !ok {
            self.unverified += 1;
        }
        self.n += 1;
    }

    fn avg_us(&self, ns: u128) -> f64 {
        ns as f64 / 1e3 / f64::from(self.n.max(1))
    }
}

fn build(shape: &Shape, rng: &mut SmallRng) -> MidasNetwork {
    let data = ripple_data::synth::uniform(shape.dims, shape.records, rng);
    midas_uniform_with_data(shape.dims, shape.peers, false, &data, 7)
}

fn initiators(net: &MidasNetwork, n: usize, salt: u64) -> Vec<PeerId> {
    let mut rng = SmallRng::seed_from_u64(0xce27 ^ salt);
    (0..n).map(|_| net.random_peer(&mut rng)).collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let queries = if quick { 8 } else { 24 };
    let mut rows = String::new();
    let mut total_on: u128 = 0;
    let mut total_off: u128 = 0;
    let mut total_unverified = 0usize;

    for shape in shapes(quick) {
        let mut rng = SmallRng::seed_from_u64(0x7e11);
        let net = build(&shape, &mut rng);
        let epoch = net.epoch();
        let inits = initiators(&net, queries, shape.peers as u64);
        for (mname, mode) in MODES {
            let mut cell = Cell::default();
            for &init in &inits {
                let certifying = Executor::new(&net).without_trace();
                let ablated = Executor::new(&net).without_trace().without_certificates();
                match shape.query {
                    "topk" => {
                        let score = LinearScore::uniform(shape.dims);
                        // Untimed warmup: store-side caches (block
                        // mirrors, skylines) must not bill their build to
                        // whichever executor happens to run first.
                        let _ = run_topk_certified(&ablated, init, score.clone(), shape.k, mode);
                        let t0 = Instant::now();
                        let (got, _, cov, cert) =
                            run_topk_certified(&certifying, init, score.clone(), shape.k, mode);
                        let on = t0.elapsed().as_nanos();
                        let t0 = Instant::now();
                        let _ = run_topk_certified(&ablated, init, score.clone(), shape.k, mode);
                        let off = t0.elapsed().as_nanos();
                        let cert = cert.expect("certificates on");
                        let t0 = Instant::now();
                        let ok = verify_topk(&cert, &got, &score, shape.k, epoch).is_ok()
                            && verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
                                .is_ok();
                        cell.record(on, off, t0.elapsed().as_nanos(), &cert, ok);
                    }
                    "skyline" | "skyline-constrained" => {
                        let constraint = (shape.query == "skyline-constrained")
                            .then(|| Rect::new(vec![0.2; shape.dims], vec![0.9; shape.dims]));
                        let q = match &constraint {
                            Some(c) => SkylineQuery::constrained(c.clone()),
                            None => SkylineQuery::new(),
                        };
                        let _ = run_skyline_certified(&ablated, init, q.clone(), mode);
                        let t0 = Instant::now();
                        let (sky, _, cov, cert) =
                            run_skyline_certified(&certifying, init, q.clone(), mode);
                        let on = t0.elapsed().as_nanos();
                        let t0 = Instant::now();
                        let _ = run_skyline_certified(&ablated, init, q, mode);
                        let off = t0.elapsed().as_nanos();
                        let cert = cert.expect("certificates on");
                        let t0 = Instant::now();
                        let ok = verify_skyline(&cert, &sky, constraint.as_ref(), epoch).is_ok()
                            && verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
                                .is_ok();
                        cell.record(on, off, t0.elapsed().as_nanos(), &cert, ok);
                    }
                    "diversify" => {
                        let q: Vec<f64> = (0..shape.dims).map(|_| rng.gen::<f64>()).collect();
                        let div = DiversityQuery::new(q.clone(), shape.lambda, Norm::L2);
                        let set = vec![Tuple::new(u64::MAX, q)];
                        let _ = run_single_tuple_certified(
                            &ablated,
                            init,
                            &div,
                            &set,
                            f64::INFINITY,
                            mode,
                        );
                        let t0 = Instant::now();
                        let (_, cands, _, cov, cert) = run_single_tuple_certified(
                            &certifying,
                            init,
                            &div,
                            &set,
                            f64::INFINITY,
                            mode,
                        );
                        let on = t0.elapsed().as_nanos();
                        let t0 = Instant::now();
                        let _ = run_single_tuple_certified(
                            &ablated,
                            init,
                            &div,
                            &set,
                            f64::INFINITY,
                            mode,
                        );
                        let off = t0.elapsed().as_nanos();
                        let cert = cert.expect("certificates on");
                        let t0 = Instant::now();
                        let ok = verify_diversify(&cert, &cands, &div, &set, f64::INFINITY, epoch)
                            .is_ok()
                            && verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
                                .is_ok();
                        cell.record(on, off, t0.elapsed().as_nanos(), &cert, ok);
                    }
                    other => unreachable!("unknown query family {other}"),
                }
            }
            total_on += cell.on_ns;
            total_off += cell.off_ns;
            total_unverified += cell.unverified;
            let overhead =
                (cell.on_ns as f64 - cell.off_ns as f64) / cell.off_ns.max(1) as f64 * 100.0;
            println!(
                "{:<6} {:<20} {:<8} query {:>9.1} us  ablated {:>9.1} us ({overhead:>+6.2} %)  \
                 cert {:>6.0} B / {:>5.1} tiles  verify {:>7.2} us  verified {}",
                shape.figure,
                shape.query,
                mname,
                cell.avg_us(cell.on_ns),
                cell.avg_us(cell.off_ns),
                cell.cert_bytes as f64 / f64::from(cell.n),
                cell.regions as f64 / f64::from(cell.n),
                cell.avg_us(cell.verify_ns),
                cell.unverified == 0,
            );
            let _ = writeln!(
                rows,
                "    {{ \"figure\": \"{}\", \"query\": \"{}\", \"mode\": \"{mname}\", \
                 \"peers\": {}, \"records\": {}, \"dims\": {}, \"k\": {}, \"lambda\": {}, \
                 \"queries\": {}, \"query_us\": {:.2}, \"ablated_us\": {:.2}, \
                 \"overhead_pct\": {overhead:.2}, \"cert_bytes\": {:.1}, \
                 \"cert_regions\": {:.1}, \"verify_us\": {:.2}, \"verified\": {} }},",
                shape.figure,
                shape.query,
                shape.peers,
                shape.records,
                shape.dims,
                shape.k,
                shape.lambda,
                cell.n,
                cell.avg_us(cell.on_ns),
                cell.avg_us(cell.off_ns),
                cell.cert_bytes as f64 / f64::from(cell.n),
                cell.regions as f64 / f64::from(cell.n),
                cell.avg_us(cell.verify_ns),
                cell.unverified == 0,
            );
        }
    }

    let overhead = (total_on as f64 - total_off as f64) / total_off.max(1) as f64;
    let rows = rows.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"certificates\",\n  {cpu},\n  \"config\": {{ \
         \"queries_per_cell\": {queries}, \"modes\": [\"fast\", \"slow\", \"ripple2\"], \
         \"ablation\": \"Executor::without_certificates\" }},\n  \
         \"acceptance\": {{ \"gate\": \"aggregate certificate overhead <= 5%\", \
         \"gated\": {gated}, \"overhead_pct\": {:.2}, \"verified\": {} }},\n  \
         \"cells\": [\n{rows}\n  ]\n}}\n",
        overhead * 100.0,
        total_unverified == 0,
        gated = !quick,
        cpu = cpu_header_json(),
    );
    // The quick grid is a CI smoke: it still verifies every certificate but
    // is too small to time honestly (8 queries/cell on a shared runner), so
    // it neither gates the overhead nor overwrites the committed full run.
    let path = if quick {
        "results/BENCH_PR7_certificates_quick.json"
    } else {
        "results/BENCH_PR7_certificates.json"
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(path, json).expect("write results");
    eprintln!("wrote {path}");
    assert_eq!(total_unverified, 0, "every certificate must verify");
    if quick {
        eprintln!(
            "quick: overhead {:.2}% reported, not gated (full run gates <= {:.0}%)",
            overhead * 100.0,
            OVERHEAD_GATE * 100.0
        );
        return;
    }
    assert!(
        overhead <= OVERHEAD_GATE,
        "acceptance: certificate overhead {:.2}% exceeds {:.0}%",
        overhead * 100.0,
        OVERHEAD_GATE * 100.0
    );
}
