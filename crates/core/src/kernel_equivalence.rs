//! Equivalence suite for the columnar block layer and its scan kernels.
//!
//! The block mirror is a *data layout*, not a semantics change: an executor
//! running the blocked kernel paths ([`Executor::new`]) and the scalar
//! reference ([`Executor::naive`], plain tuple slices, no index — built
//! fault-aware via [`Executor::without_index`]) must produce
//!
//! 1. **identical answer streams, element for element** — the blocked top-k
//!    τ-filter emits rows in ascending store order exactly like the scalar
//!    filter, and the blocked constrained-skyline fold reproduces the
//!    scalar skyline-then-thin set in canonical order;
//! 2. **bit-identical cost ledgers** — the kernels perform the same
//!    floating-point operations in the same order as their scalar
//!    references, and block pruning only skips blocks that provably cannot
//!    contribute (`QueryMetrics` equality excludes the data-plane scan
//!    counters, which are *expected* to differ: that is the optimisation);
//! 3. **identical coverage**, under fault planes and replica failover.
//!
//! The checks run linear and peak scores across every mode, fault plane,
//! and the parallel engine — and repeat under churn so generation bumps
//! invalidate and rebuild the mirror.
//!
//! The Chord-side twin lives in `ripple-chord`'s `tests/kernels.rs`.

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::FaultPlane;

const MODES: [Mode; 5] = [
    Mode::Fast,
    Mode::Broadcast,
    Mode::Ripple(1),
    Mode::Ripple(2),
    Mode::Slow,
];
const THREADS: [usize; 2] = [2, 4];

fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    for i in 0..tuples {
        let t = Tuple::new(i, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        net.insert_tuple(t);
    }
    (net, rng)
}

/// The fault settings the blocked paths must be invisible under: none, and
/// drops with retries (whose failover recovery paths call the query
/// functions over replica views).
fn planes() -> [FaultPlane; 2] {
    [FaultPlane::none(), FaultPlane::drops(0.15, 17)]
}

/// Runs `query` through the blocked executor and the naive scalar reference
/// under every
/// plane × mode (sequential and parallel) and asserts observational
/// equality.
fn assert_blocked_invisible<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for plane in planes() {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let blocked = Executor::with_faults(net, plane, 7);
            let scalar = Executor::with_faults(net, plane, 7).without_index();
            let b = blocked.run(initiator, query, mode);
            let s = scalar.run(initiator, query, mode);
            assert_eq!(
                b.metrics, s.metrics,
                "{label} [{mode:?}, drop_p={}]: blocked and scalar ledgers must be \
                 bit-identical (incl. the visit sequence)",
                plane.drop_probability
            );
            assert_eq!(
                b.answers, s.answers,
                "{label} [{mode:?}]: answer streams must be identical, element for element"
            );
            assert_eq!(b.coverage, s.coverage, "{label} [{mode:?}]: coverage");
            assert_eq!(
                b.certificate, s.certificate,
                "{label} [{mode:?}]: the data layout must not leak into the certificate"
            );
            for threads in THREADS {
                let bp = blocked.run_parallel(initiator, query, mode, threads);
                assert_eq!(
                    b.metrics, bp.metrics,
                    "{label} [{mode:?}, {threads} threads]: parallel blocked ledger"
                );
                assert_eq!(
                    b.answers, bp.answers,
                    "{label} [{mode:?}, {threads} threads]: parallel blocked answers"
                );
                assert_eq!(b.coverage, bp.coverage, "{label} [{mode:?}]: coverage");
                assert_eq!(
                    b.certificate, bp.certificate,
                    "{label} [{mode:?}, {threads} threads]: parallel blocked certificate"
                );
            }
        }
    }
}

/// The query battery: linear and peak top-k, with small and large `k` so
/// both the heap-pruning and the `m < k` top-up paths run, plus
/// unconstrained and constrained skyline (the latter is the blocked fold
/// path).
fn check_all_queries(net: &MidasNetwork, dims: usize, rng: &mut SmallRng) {
    for k in [1usize, 8, 64] {
        let q = TopKQuery::new(LinearScore::uniform(dims), k);
        assert_blocked_invisible(net, &q, rng, &format!("topk-linear k={k}"));
    }
    let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
    let q = TopKQuery::new(PeakScore::new(peak, Norm::L2), 8);
    assert_blocked_invisible(net, &q, rng, "topk-peak");
    assert_blocked_invisible(net, &SkylineQuery::new(), rng, "skyline");
    let c = Rect::new(vec![0.15; dims], vec![0.85; dims]);
    assert_blocked_invisible(
        net,
        &SkylineQuery::constrained(c),
        rng,
        "skyline-constrained",
    );
}

#[test]
fn blocked_equals_scalar_on_static_networks() {
    for (dims, peers, tuples, seed) in [(2, 40, 2200, 51u64), (4, 24, 1600, 52)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        check_all_queries(&net, dims, &mut rng);
    }
}

#[test]
fn blocked_equals_scalar_under_churn() {
    let dims = 3;
    let (mut net, mut rng) = loaded_net(dims, 20, 1200, 53);
    let mut next_id = 1200u64;
    for round in 0..3 {
        // Inserts bump store generations: stale mirrors must be rebuilt,
        // never consulted.
        for _ in 0..50 {
            let t = Tuple::new(
                next_id,
                (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>(),
            );
            next_id += 1;
            net.insert_tuple(t);
        }
        // Splits drain tuples across stores; departures re-insert them.
        let key = ripple_geom::Point::new((0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        net.join(&key);
        if round % 2 == 1 {
            let victim = net.random_peer(&mut rng);
            net.leave(victim);
        }
        net.check_invariants();
        let q = TopKQuery::new(LinearScore::uniform(dims), 8);
        assert_blocked_invisible(&net, &q, &mut rng, "churn topk");
        let c = Rect::new(vec![0.1; dims], vec![0.9; dims]);
        assert_blocked_invisible(
            &net,
            &SkylineQuery::constrained(c),
            &mut rng,
            "churn skyline-constrained",
        );
    }
}

/// Runs `query` under a forced-scalar and a forced-SIMD executor across
/// every plane × mode, sequential and parallel, and asserts the two
/// dispatch arms are observationally identical: same answers element for
/// element, bit-identical ledgers (the SIMD kernels are required to
/// reproduce the scalar reference's floating-point results exactly), same
/// coverage. On hosts without a vector unit `ForcedSimd` degrades to
/// scalar, so the test stays meaningful (trivially) everywhere; CI also
/// drives both arms through the `RIPPLE_KERNEL_DISPATCH` override.
fn assert_dispatch_invisible<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    use ripple_geom::KernelDispatch;
    for plane in planes() {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let scalar_exec =
                Executor::with_faults(net, plane, 7).with_dispatch(KernelDispatch::ForcedScalar);
            let simd_exec =
                Executor::with_faults(net, plane, 7).with_dispatch(KernelDispatch::ForcedSimd);
            let s = scalar_exec.run(initiator, query, mode);
            let v = simd_exec.run(initiator, query, mode);
            assert_eq!(
                s.metrics, v.metrics,
                "{label} [{mode:?}, drop_p={}]: forced-scalar and forced-simd ledgers \
                 must be bit-identical",
                plane.drop_probability
            );
            assert_eq!(
                s.answers, v.answers,
                "{label} [{mode:?}]: dispatch arms must emit identical answer streams"
            );
            assert_eq!(s.coverage, v.coverage, "{label} [{mode:?}]: coverage");
            assert_eq!(
                s.certificate, v.certificate,
                "{label} [{mode:?}]: dispatch arms must emit bit-identical certificates \
                 (the bound witnesses are control-plane folds, never SIMD-kernel output)"
            );
            for threads in THREADS {
                let vp = simd_exec.run_parallel(initiator, query, mode, threads);
                assert_eq!(
                    s.metrics, vp.metrics,
                    "{label} [{mode:?}, {threads} threads]: parallel simd ledger"
                );
                assert_eq!(
                    s.answers, vp.answers,
                    "{label} [{mode:?}, {threads} threads]: parallel simd answers"
                );
                assert_eq!(
                    s.certificate, vp.certificate,
                    "{label} [{mode:?}, {threads} threads]: parallel simd certificate"
                );
            }
        }
    }
}

#[test]
fn forced_simd_equals_forced_scalar_across_modes_and_planes() {
    // 4-d exercises full vector lanes plus a tail on AVX2; 3-d is all-tail.
    for (dims, peers, tuples, seed) in [(3, 28, 1800, 61u64), (4, 24, 1600, 62)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        for k in [1usize, 8, 64] {
            let q = TopKQuery::new(LinearScore::uniform(dims), k);
            assert_dispatch_invisible(&net, &q, &mut rng, &format!("topk-linear k={k}"));
        }
        let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
        let q = TopKQuery::new(PeakScore::new(peak, Norm::L2), 8);
        assert_dispatch_invisible(&net, &q, &mut rng, "topk-peak");
        assert_dispatch_invisible(&net, &SkylineQuery::new(), &mut rng, "skyline");
        let c = Rect::new(vec![0.15; dims], vec![0.85; dims]);
        assert_dispatch_invisible(
            &net,
            &SkylineQuery::constrained(c),
            &mut rng,
            "skyline-constrained",
        );
    }
}

#[test]
fn planner_runs_are_dispatch_invariant() {
    use crate::planner::{run_planned, PlanInputs, Planner, QueryHint};
    use ripple_geom::KernelDispatch;
    let (net, mut rng) = loaded_net(4, 24, 1600, 63);
    let exec_s = Executor::new(&net).with_dispatch(KernelDispatch::ForcedScalar);
    let exec_v = Executor::new(&net).with_dispatch(KernelDispatch::ForcedSimd);
    let query = TopKQuery::new(LinearScore::uniform(4), 8);
    let inputs = PlanInputs {
        peers: net.peer_count(),
        delta: net.delta(),
        hint: QueryHint::TopK { k: 8 },
    };
    // Separate planners, same deterministic probe order: both arms must
    // walk the same plan sequence (wall-clock feedback may differ, but the
    // message/latency EWMAs that dominate the choice are bit-identical).
    let mut planner_s = Planner::new(1);
    let mut planner_v = Planner::new(1);
    let initiator = net.random_peer(&mut rng);
    for round in 0..6 {
        let s = run_planned(&mut planner_s, &exec_s, initiator, &query, &inputs);
        let v = run_planned(&mut planner_v, &exec_v, initiator, &query, &inputs);
        let (ps, pv) = (
            s.metrics.plan.clone().expect("plan stamped"),
            v.metrics.plan.clone().expect("plan stamped"),
        );
        // Probe rounds are fully deterministic; afterwards the choice could
        // in principle diverge on wall-clock noise, so only pin the probes.
        if ps.source == ripple_net::PlanSource::Probe {
            assert_eq!(ps, pv, "round {round}: probe sequences must match");
            assert_eq!(s.answers, v.answers, "round {round}");
            assert_eq!(s.metrics, v.metrics, "round {round}: ledgers");
        }
        // Each arm's planned run must be bit-identical to a static run of
        // whatever mode its planner picked, on the *opposite* dispatch arm
        // (this is dispatch- and planner-invisibility at once).
        let s_static = exec_v.run(initiator, &query, ps.mode.into());
        assert_eq!(s.answers, s_static.answers, "round {round}: planned≡static");
        assert_eq!(
            s.metrics, s_static.metrics,
            "round {round}: planned≡static ledgers"
        );
        let v_static = exec_s.run(initiator, &query, pv.mode.into());
        assert_eq!(v.answers, v_static.answers, "round {round}: planned≡static");
        assert_eq!(
            v.metrics, v_static.metrics,
            "round {round}: planned≡static ledgers"
        );
    }
}

#[test]
fn scan_counters_report_blocked_work() {
    // The blocked executor against the naive scalar reference, which scans
    // plain slices and never touches a mirror.
    let (net, mut rng) = loaded_net(2, 32, 4000, 57);
    let q = TopKQuery::new(LinearScore::new(vec![0.9, 0.1]), 4);
    let initiator = net.random_peer(&mut rng);
    let b = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let s = Executor::naive(&net).run(initiator, &q, Mode::Fast);
    assert!(
        b.metrics.tuples_scanned > 0,
        "blocked run must report data-plane work"
    );
    assert!(
        s.metrics.blocks_pruned == 0,
        "the scalar path never prunes blocks"
    );
    assert!(
        b.metrics.blocks_pruned > 0,
        "a selective top-k over thousands of tuples must prune whole blocks"
    );
    assert!(
        b.metrics.tuples_scanned < s.metrics.tuples_scanned,
        "pruned blocks are rows the blocked scan never touched \
         (blocked {} vs scalar {})",
        b.metrics.tuples_scanned,
        s.metrics.tuples_scanned
    );
    // The optimisation changes the work accounting and nothing else.
    assert_eq!(b.metrics, s.metrics, "ledgers (excl. scan counters)");
    assert_eq!(b.answers, s.answers);
}

#[test]
fn tracing_off_reports_zero_scan_work() {
    let (net, mut rng) = loaded_net(2, 16, 800, 58);
    let q = TopKQuery::new(LinearScore::uniform(2), 4);
    let initiator = net.random_peer(&mut rng);
    let on = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let off = Executor::new(&net)
        .without_trace()
        .run(initiator, &q, Mode::Fast);
    assert!(on.metrics.tuples_scanned > 0);
    assert_eq!(off.metrics.tuples_scanned, 0, "no brackets, no accounting");
    assert_eq!(off.metrics.blocks_pruned, 0);
    assert_eq!(on.answers, off.answers);
}
