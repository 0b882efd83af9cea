//! Chord-side ingest equivalence: the twin of `ripple-core`'s
//! `ingest_equivalence` suite. The LSM write path lives entirely below the
//! substrate boundary, so an interleaved insert → query → compact → delete
//! schedule must leave a ring backed by LSM stores observationally
//! identical to one backed by the legacy rebuild-per-insert layout,
//! driven through the same API calls (same epoch and generation history).

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::FaultPlane;

const MODES: [Mode; 4] = [Mode::Fast, Mode::Broadcast, Mode::Ripple(2), Mode::Slow];

fn twin_rings(peers: usize, seed: u64) -> (ChordNetwork, ChordNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lsm = ChordNetwork::build(peers, &mut rng);
    let mut rng2 = SmallRng::seed_from_u64(seed);
    let mut legacy = ChordNetwork::build(peers, &mut rng2);
    legacy.set_store_legacy(true);
    (lsm, legacy, rng)
}

#[test]
fn lsm_matches_rebuilt_twin_on_the_ring() {
    let (mut lsm, mut legacy, mut rng) = twin_rings(12, 81);
    let planes = [FaultPlane::none(), FaultPlane::drops(0.15, 23)];
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for round in 0..3 {
        let batch: Vec<Tuple> = (0..800)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                live.push(id);
                Tuple::new(id, vec![rng.gen::<f64>()])
            })
            .collect();
        lsm.insert_batch(batch.clone());
        legacy.insert_batch(batch);
        if round % 2 == 1 {
            // Compaction is a physical reorganisation on the LSM twin only;
            // it must stay invisible to every comparison below.
            lsm.compact_stores();
        }
        let mut doomed: Vec<u64> = Vec::new();
        let mut kept = Vec::with_capacity(live.len());
        for &id in &live {
            if rng.gen::<f64>() < 0.2 {
                doomed.push(id);
            } else {
                kept.push(id);
            }
        }
        live = kept;
        doomed.push(u64::MAX); // absent id: must not bump any generation
        assert_eq!(
            lsm.delete_tuples(&doomed),
            legacy.delete_tuples(&doomed),
            "round {round}: twins must remove the same rows"
        );
        lsm.check_invariants();
        legacy.check_invariants();
        for k in [1usize, 12] {
            let q = TopKQuery::new(LinearScore::uniform(1), k);
            for plane in planes {
                for mode in MODES {
                    let initiator = lsm.random_peer(&mut rng);
                    let l = Executor::with_faults(&lsm, plane, 9).run(initiator, &q, mode);
                    let r = Executor::with_faults(&legacy, plane, 9).run(initiator, &q, mode);
                    assert_eq!(
                        l.metrics, r.metrics,
                        "k={k} [{mode:?}, drop_p={}]: ledgers must be bit-identical",
                        plane.drop_probability
                    );
                    assert_eq!(l.answers, r.answers, "k={k} [{mode:?}]: answer streams");
                    assert_eq!(l.coverage, r.coverage, "k={k} [{mode:?}]: coverage");
                    assert_eq!(
                        l.certificate, r.certificate,
                        "k={k} [{mode:?}]: certificate"
                    );
                    let lp =
                        Executor::with_faults(&lsm, plane, 9).run_parallel(initiator, &q, mode, 4);
                    assert_eq!(r.metrics, lp.metrics, "k={k} [{mode:?}]: parallel ledger");
                    assert_eq!(r.answers, lp.answers, "k={k} [{mode:?}]: parallel answers");
                }
            }
        }
    }
}
