//! Equivalence suite for the LSM write path (DESIGN.md §15).
//!
//! The LSM-shaped `PeerStore` — memtable overlay, tombstone masks,
//! background compaction — is a *write-path layout*, not a semantics
//! change. The suite drives **twin networks built from the same seed**
//! through identical interleaved schedules of `insert_batch` → queries →
//! `compact_stores` → `delete_tuples` → queries:
//!
//! * one twin runs the incremental LSM path (the default), where mutations
//!   touch only the memtable and compaction folds tombstoned runs;
//! * the other runs the **legacy rebuild-per-insert layout**
//!   (`set_store_legacy(true)`), where every store stays a single flat
//!   memtable — the faithful "freshly rebuilt store" baseline, driven
//!   through the *same API calls* so epoch and generation counters (which
//!   certificates and the result cache embed) advance in lockstep.
//!
//! At every checkpoint the twins must produce **bit-identical answers,
//! ledgers (excluding the data-plane scan counters, which are the
//! observability payload of the optimisation), coverage, and
//! certificates** — across every mode, under omission-fault planes, under
//! an active corruption plane (where both twins must also quarantine the
//! same peers), and through the parallel engine. Compaction must be
//! *invisible*: the same query before and after `compact_stores` returns
//! the same everything.
//!
//! The Chord-side twin lives in `ripple-chord`'s `tests/ingest.rs`.

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{LinearScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{CorruptionPlane, FaultPlane};

const MODES: [Mode; 5] = [
    Mode::Fast,
    Mode::Broadcast,
    Mode::Ripple(1),
    Mode::Ripple(2),
    Mode::Slow,
];
const THREADS: [usize; 2] = [2, 4];

/// Twin overlays from the same seed: identical zones, links, and routing.
/// The second is switched to the legacy rebuild-per-insert store layout
/// before any tuple lands, so its stores never freeze a run.
fn twin_nets(dims: usize, peers: usize, seed: u64) -> (MidasNetwork, MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lsm = MidasNetwork::build(dims, peers, false, &mut rng);
    let mut rng2 = SmallRng::seed_from_u64(seed);
    let mut legacy = MidasNetwork::build(dims, peers, false, &mut rng2);
    legacy.set_store_legacy(true);
    (lsm, legacy, rng)
}

fn planes() -> [FaultPlane; 2] {
    [FaultPlane::none(), FaultPlane::drops(0.15, 17)]
}

/// Runs `query` on both twins under every plane × mode (sequential and
/// parallel) and asserts observational equality.
fn assert_twins_agree<Q>(
    lsm: &MidasNetwork,
    legacy: &MidasNetwork,
    query: &Q,
    rng: &mut SmallRng,
    label: &str,
) where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for plane in planes() {
        for mode in MODES {
            let initiator = lsm.random_peer(rng);
            let l = Executor::with_faults(lsm, plane, 7).run(initiator, query, mode);
            let r = Executor::with_faults(legacy, plane, 7).run(initiator, query, mode);
            assert_eq!(
                l.metrics, r.metrics,
                "{label} [{mode:?}, drop_p={}]: LSM and rebuilt ledgers must be \
                 bit-identical (excl. scan counters)",
                plane.drop_probability
            );
            assert_eq!(
                l.answers, r.answers,
                "{label} [{mode:?}]: answer streams must be identical, element for element"
            );
            assert_eq!(l.coverage, r.coverage, "{label} [{mode:?}]: coverage");
            assert_eq!(
                l.certificate, r.certificate,
                "{label} [{mode:?}]: the write path must not leak into the certificate"
            );
            for threads in THREADS {
                let lp = Executor::with_faults(lsm, plane, 7)
                    .run_parallel(initiator, query, mode, threads);
                assert_eq!(
                    r.metrics, lp.metrics,
                    "{label} [{mode:?}, {threads} threads]: parallel LSM ledger"
                );
                assert_eq!(
                    r.answers, lp.answers,
                    "{label} [{mode:?}, {threads} threads]: parallel LSM answers"
                );
                assert_eq!(
                    r.certificate, lp.certificate,
                    "{label} [{mode:?}, {threads} threads]: parallel LSM certificate"
                );
            }
        }
    }
}

/// The query battery: top-k (the blocked kernel scan over runs and
/// memtable) plus unconstrained and constrained skyline (the blocked fold
/// over masked runs).
fn check_battery(lsm: &MidasNetwork, legacy: &MidasNetwork, dims: usize, rng: &mut SmallRng) {
    let q = TopKQuery::new(LinearScore::uniform(dims), 8);
    assert_twins_agree(lsm, legacy, &q, rng, "topk-linear");
    assert_twins_agree(lsm, legacy, &SkylineQuery::new(), rng, "skyline");
    let c = Rect::new(vec![0.1; dims], vec![0.9; dims]);
    assert_twins_agree(
        lsm,
        legacy,
        &SkylineQuery::constrained(c),
        rng,
        "skyline-constrained",
    );
}

fn fresh_batch(
    dims: usize,
    n: usize,
    next_id: &mut u64,
    live: &mut Vec<u64>,
    rng: &mut SmallRng,
) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            let id = *next_id;
            *next_id += 1;
            live.push(id);
            Tuple::new(id, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
        })
        .collect()
}

/// Picks ~`frac` of the live ids (removing them from `live`), plus a few
/// ids that were never inserted, so `delete_tuples` also exercises the
/// absent-id fast path (which must not bump generations on either twin).
fn doomed_ids(live: &mut Vec<u64>, frac: f64, rng: &mut SmallRng) -> Vec<u64> {
    let mut doomed = Vec::new();
    let mut kept = Vec::with_capacity(live.len());
    for &id in live.iter() {
        if rng.gen::<f64>() < frac {
            doomed.push(id);
        } else {
            kept.push(id);
        }
    }
    *live = kept;
    doomed.push(u64::MAX);
    doomed.push(u64::MAX - 1);
    doomed
}

/// The tentpole contract: an interleaved insert → query → compact → delete
/// schedule leaves the LSM twin observationally identical to the
/// rebuild-per-insert twin at every checkpoint, and compaction is
/// invisible even mid-schedule.
#[test]
fn lsm_matches_rebuilt_twin_under_interleaved_schedule() {
    let dims = 2;
    let (mut lsm, mut legacy, mut rng) = twin_nets(dims, 8, 71);
    let (mut next_id, mut live) = (0u64, Vec::new());
    for round in 0..3 {
        let batch = fresh_batch(dims, 700, &mut next_id, &mut live, &mut rng);
        lsm.insert_batch(batch.clone());
        legacy.insert_batch(batch);
        check_battery(&lsm, &legacy, dims, &mut rng);

        // Compaction (LSM only — a no-op layout on the legacy twin) is a
        // physical reorganisation: the same query straddling it must return
        // the same everything, and the twins must still agree afterwards.
        let q = TopKQuery::new(LinearScore::uniform(dims), 8);
        let initiator = lsm.random_peer(&mut rng);
        let before = Executor::new(&lsm).run(initiator, &q, Mode::Fast);
        lsm.compact_stores();
        let after = Executor::new(&lsm).run(initiator, &q, Mode::Fast);
        assert_eq!(before.answers, after.answers, "compaction changed answers");
        assert_eq!(before.metrics, after.metrics, "compaction changed ledger");
        assert_eq!(
            before.certificate, after.certificate,
            "compaction changed the certificate"
        );

        let doomed = doomed_ids(&mut live, 0.2, &mut rng);
        let a = lsm.delete_tuples(&doomed);
        let b = legacy.delete_tuples(&doomed);
        assert_eq!(a, b, "round {round}: twins must remove the same rows");
        assert!(a > 0, "round {round}: the delete batch must hit something");
        lsm.check_invariants();
        legacy.check_invariants();
        check_battery(&lsm, &legacy, dims, &mut rng);
    }
}

/// Same schedule under an *active* corruption plane: the response auditing
/// and quarantine machinery sits above the store, so both twins must
/// corrupt, audit, and quarantine identically.
#[test]
fn lsm_matches_rebuilt_twin_under_corruption() {
    let dims = 2;
    let (mut lsm, mut legacy, mut rng) = twin_nets(dims, 8, 72);
    let (mut next_id, mut live) = (0u64, Vec::new());
    let plane = CorruptionPlane::flat(0.35, 19);
    for _round in 0..2 {
        let batch = fresh_batch(dims, 600, &mut next_id, &mut live, &mut rng);
        lsm.insert_batch(batch.clone());
        legacy.insert_batch(batch);
        let doomed = doomed_ids(&mut live, 0.15, &mut rng);
        assert_eq!(lsm.delete_tuples(&doomed), legacy.delete_tuples(&doomed));
        lsm.compact_stores();
        let q = TopKQuery::new(LinearScore::uniform(dims), 10);
        for mode in MODES {
            let initiator = lsm.random_peer(&mut rng);
            let l = Executor::new(&lsm)
                .with_corruption(plane)
                .run(initiator, &q, mode);
            let r = Executor::new(&legacy)
                .with_corruption(plane)
                .run(initiator, &q, mode);
            assert_eq!(l.answers, r.answers, "[{mode:?}] corrupted answers");
            assert_eq!(l.metrics, r.metrics, "[{mode:?}] corrupted ledger");
            assert_eq!(l.coverage, r.coverage, "[{mode:?}] corrupted coverage");
            assert_eq!(
                lsm.quarantine().quarantined(),
                legacy.quarantine().quarantined(),
                "[{mode:?}] both twins must quarantine the same peers"
            );
        }
    }
}

/// The observability contract: a store churned through the LSM path
/// reports memtable hits and masked tombstones in the query ledger, and
/// the interleaved schedule's compactions surface as `compactions_run` /
/// `write_amplification` — all *excluded* from ledger equality (checked
/// above), all non-zero here.
#[test]
fn ingest_counters_surface_in_the_ledger() {
    let dims = 2;
    let (mut lsm, _legacy, mut rng) = twin_nets(dims, 4, 73);
    let (mut next_id, mut live) = (0u64, Vec::new());
    // Small peer count so per-store row counts cross the freeze threshold;
    // a light delete fraction so the size-triggered compactor does not fold
    // the masks away before the query observes them.
    let batch = fresh_batch(dims, 2000, &mut next_id, &mut live, &mut rng);
    lsm.insert_batch(batch);
    let doomed = doomed_ids(&mut live, 0.1, &mut rng);
    assert!(lsm.delete_tuples(&doomed) > 0);
    // Top-k: every visited peer runs the blocked kernel scan over its
    // runs-plus-memtable snapshot (the cached-skyline path rebuilds scalar
    // unless a mirror is already warm, so it cannot pin counters).
    let q = TopKQuery::new(LinearScore::uniform(dims), 16);
    let initiator = lsm.random_peer(&mut rng);
    let r = Executor::new(&lsm).run(initiator, &q, Mode::Broadcast);
    assert!(
        r.metrics.memtable_hits > 0,
        "unfrozen tail rows must be counted as memtable hits"
    );
    assert!(
        r.metrics.tombstones_masked > 0,
        "deleted rows in frozen runs must be counted as masked tombstones"
    );
    // Compaction folds the masks away; the *mutation* is free but the next
    // query over the store sees clean runs.
    assert!(
        lsm.compact_stores() > 0,
        "tombstoned runs must be rewritten"
    );
    let r2 = Executor::new(&lsm).run(initiator, &q, Mode::Broadcast);
    assert_eq!(
        r2.metrics.tombstones_masked, 0,
        "after compaction no masked row survives"
    );
    assert_eq!(r.answers, r2.answers, "compaction must not change answers");
}
