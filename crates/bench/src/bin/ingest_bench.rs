//! Incremental write path benchmark (PR acceptance run).
//!
//! Measures the LSM-shaped [`PeerStore`] write path against the legacy
//! rebuild-per-insert layout (`set_legacy(true)`), in four arms:
//!
//! * **equality** — twin MIDAS overlays from the same seed (one LSM, one
//!   legacy) driven through an identical interleaved insert → query →
//!   compact → delete schedule: every top-k answer (ids *and* score bits),
//!   skyline, ledger, and certificate must match bit for bit. A store-level
//!   lockstep pass additionally runs the blocked local top-k after every
//!   single insert/delete on twin stores and compares the answers' ids and
//!   `f64::to_bits` scores, stably sorted by score.
//! * **throughput** — the gated arm: one store preloaded with N rows, then
//!   a closed loop of `insert` + [`PeerStore::blocks`] refresh per op. The
//!   columnar snapshot is the cache every blocked query reads; the LSM
//!   layout reuses its frozen runs and lays out only the memtable tail,
//!   the legacy layout rebuilds the whole store per generation. The legacy
//!   arm runs proportionally fewer ops and both report normalized ops/sec.
//!   **Gate: LSM rate ≥ 100× legacy rate.**
//! * **read throughput** — ungated: the same loop with a blocked local
//!   top-1 read per op instead of the bare refresh, so the ratio includes
//!   the kernel scan both layouts share.
//! * **write amplification** — the LSM store's own ingest ledger after the
//!   run: rows ingested vs rows rewritten by freezes and compactions.
//!
//! Writes `results/BENCH_PR10_ingest.json` (`--quick` lands in `target/`
//! instead) and prints a summary table.
//!
//! [`PeerStore`]: ripple_net::PeerStore

use ripple_bench::output::cpu_header_json;
use ripple_core::framework::RankQuery;
use ripple_core::topk::{run_topk_certified, TopKQuery, TopKState};
use ripple_core::{Executor, Mode};
use ripple_geom::{KernelDispatch, LinearScore, Rect, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{LocalView, PeerStore};
use std::time::Instant;

const DIMS: usize = 2;
const K: usize = 8;

struct Config {
    preload: usize,
    lsm_ops: usize,
    legacy_ops: usize,
    eq_rounds: usize,
    eq_batch: usize,
    quick: bool,
}

fn parse_args() -> Config {
    let mut quick = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            other => panic!("unknown flag {other} (supported: --quick)"),
        }
    }
    if quick {
        Config {
            preload: 8_192,
            lsm_ops: 4_096,
            legacy_ops: 48,
            eq_rounds: 2,
            eq_batch: 400,
            quick,
        }
    } else {
        Config {
            preload: 32_768,
            lsm_ops: 16_384,
            legacy_ops: 192,
            eq_rounds: 3,
            eq_batch: 700,
            quick,
        }
    }
}

fn tuple(id: u64, rng: &mut SmallRng) -> Tuple {
    Tuple::new(id, (0..DIMS).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
}

/// The blocked local top-k of a store (Algorithms 4 and 6 over its
/// columnar snapshot), as `(id, score_bits)` pairs stably sorted best first
/// — the bit-exact observable the equality arms compare.
fn blocked_topk(store: &PeerStore, score: &LinearScore, k: usize) -> Vec<(u64, u64)> {
    let query = TopKQuery::new(score.clone(), k);
    let view = LocalView::Indexed(store, KernelDispatch::Auto);
    let state = RankQuery::<Rect>::compute_local_state(&query, &view, &TopKState::empty());
    let mut answer: Vec<(u64, f64)> =
        RankQuery::<Rect>::compute_local_answer(&query, &view, &state)
            .iter()
            .map(|t| (t.id, score.score(&t.point)))
            .collect();
    answer.sort_by(|a, b| b.1.total_cmp(&a.1));
    answer
        .into_iter()
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

/// Store-level lockstep: identical single-op schedules on an LSM store and
/// a legacy twin, with the blocked top-k compared bit for bit after every op.
fn store_lockstep(cfg: &Config) -> usize {
    let score = LinearScore::uniform(DIMS);
    let mut rng = SmallRng::seed_from_u64(0x1a5e);
    let mut lsm = PeerStore::new();
    let mut legacy = PeerStore::new();
    legacy.set_legacy(true);
    let seed_rows: Vec<Tuple> = (0..1_500u64).map(|i| tuple(i, &mut rng)).collect();
    lsm.insert_batch(seed_rows.clone());
    legacy.insert_batch(seed_rows);
    let mut next_id = 1_500u64;
    let ops = if cfg.quick { 120 } else { 400 };
    for op in 0..ops {
        match op % 5 {
            4 => {
                // Delete a stride of ids (some already gone: the absent-id
                // path must not bump either twin's generation).
                let doomed: Vec<u64> = (0..20)
                    .map(|j| (op as u64 * 13 + j * 7) % next_id)
                    .collect();
                let a = lsm.delete_batch(doomed.iter().copied());
                let b = legacy.delete_batch(doomed.iter().copied());
                assert_eq!(a, b, "op {op}: twins must delete the same rows");
            }
            2 => {
                // Compaction on the LSM twin only: a physical no-op.
                lsm.compact();
            }
            _ => {
                let t = tuple(next_id, &mut rng);
                next_id += 1;
                lsm.insert(t.clone());
                legacy.insert(t);
            }
        }
        assert_eq!(lsm.len(), legacy.len(), "op {op}: row counts");
        assert_eq!(
            lsm.generation(),
            legacy.generation(),
            "op {op}: generations"
        );
        assert_eq!(
            blocked_topk(&lsm, &score, 16),
            blocked_topk(&legacy, &score, 16),
            "op {op}: blocked top-k ids and score bits must be identical"
        );
    }
    ops
}

/// Network-level equality: twin overlays through an interleaved schedule,
/// certified top-k compared end to end. Returns queries compared.
fn network_equality(cfg: &Config) -> usize {
    let mut rng = SmallRng::seed_from_u64(0xbeef);
    let lsm_net = {
        let mut r = SmallRng::seed_from_u64(0x90d5);
        MidasNetwork::build(DIMS, 8, false, &mut r)
    };
    let legacy_net = {
        let mut r = SmallRng::seed_from_u64(0x90d5);
        let mut n = MidasNetwork::build(DIMS, 8, false, &mut r);
        n.set_store_legacy(true);
        n
    };
    let (mut lsm_net, mut legacy_net) = (lsm_net, legacy_net);
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut compared = 0usize;
    let score = LinearScore::uniform(DIMS);
    for round in 0..cfg.eq_rounds {
        let batch: Vec<Tuple> = (0..cfg.eq_batch)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                live.push(id);
                tuple(id, &mut rng)
            })
            .collect();
        lsm_net.insert_batch(batch.clone());
        legacy_net.insert_batch(batch);
        if round % 2 == 1 {
            lsm_net.compact_stores();
        }
        let mut doomed: Vec<u64> = live.iter().copied().filter(|id| id % 5 == 3).collect();
        live.retain(|id| id % 5 != 3);
        doomed.push(u64::MAX);
        assert_eq!(
            lsm_net.delete_tuples(&doomed),
            legacy_net.delete_tuples(&doomed),
            "round {round}: twins must remove the same rows"
        );
        for mode in [Mode::Fast, Mode::Broadcast, Mode::Ripple(2)] {
            let w = lsm_net.random_peer(&mut rng);
            let exec_l = Executor::new(&lsm_net);
            let exec_r = Executor::new(&legacy_net);
            let (al, ml, cl, certl) = run_topk_certified(&exec_l, w, score.clone(), K, mode);
            let (ar, mr, cr, certr) = run_topk_certified(&exec_r, w, score.clone(), K, mode);
            assert_eq!(al, ar, "round {round} [{mode:?}]: answers");
            let bits_l: Vec<(u64, u64)> = al
                .iter()
                .map(|t| (t.id, score.score(&t.point).to_bits()))
                .collect();
            let bits_r: Vec<(u64, u64)> = ar
                .iter()
                .map(|t| (t.id, score.score(&t.point).to_bits()))
                .collect();
            assert_eq!(bits_l, bits_r, "round {round} [{mode:?}]: score bits");
            assert_eq!(ml, mr, "round {round} [{mode:?}]: ledgers");
            assert_eq!(cl, cr, "round {round} [{mode:?}]: coverage");
            assert_eq!(certl, certr, "round {round} [{mode:?}]: certificates");
            let q = TopKQuery::new(score.clone(), K);
            let ls = exec_l.run(w, &q, mode);
            let lp = exec_l.run_parallel(w, &q, mode, 4);
            assert_eq!(
                ls.answers, lp.answers,
                "round {round} [{mode:?}]: parallel answers"
            );
            assert_eq!(
                ls.metrics, lp.metrics,
                "round {round} [{mode:?}]: parallel ledger"
            );
            compared += 2;
        }
        lsm_net.check_invariants();
        legacy_net.check_invariants();
    }
    compared
}

/// The closed loop of the throughput arms: every op inserts one tuple, then
/// either refreshes the columnar snapshot (`read == false`, the gated arm)
/// or runs a blocked local top-1 over it (`read == true`). Returns ops/sec.
fn throughput(
    store: &mut PeerStore,
    ops: usize,
    first_id: u64,
    rng: &mut SmallRng,
    read: bool,
) -> f64 {
    let score = LinearScore::uniform(DIMS);
    // Warm the snapshot outside the clock.
    store.blocks();
    let t0 = Instant::now();
    let mut sink = 0u64;
    for i in 0..ops {
        store.insert(tuple(first_id + i as u64, rng));
        sink ^= if read {
            blocked_topk(store, &score, 1)[0].0
        } else {
            store.blocks().rows() as u64
        };
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    ops as f64 / wall.max(1e-9)
}

/// Runs one throughput arm on a fresh LSM store and a fresh legacy store
/// preloaded with the same rows; returns both rates and the LSM store.
fn throughput_pair(cfg: &Config, preload: &[Tuple], read: bool) -> (f64, f64, PeerStore) {
    let label = if read {
        "insert+top-1"
    } else {
        "insert+refresh"
    };
    let mut rng = SmallRng::seed_from_u64(0xf00d);
    let mut lsm = PeerStore::new();
    lsm.insert_batch(preload.to_vec());
    eprintln!(
        "throughput: LSM arm, {} preloaded rows, {} {label} ops ...",
        cfg.preload, cfg.lsm_ops
    );
    let lsm_rate = throughput(&mut lsm, cfg.lsm_ops, cfg.preload as u64, &mut rng, read);
    println!(
        "throughput ({label}): LSM    {lsm_rate:>12.0} ops/s ({} ops)",
        cfg.lsm_ops
    );
    let mut legacy = PeerStore::new();
    legacy.set_legacy(true);
    legacy.insert_batch(preload.to_vec());
    eprintln!(
        "throughput: legacy arm, {} preloaded rows, {} {label} ops ...",
        cfg.preload, cfg.legacy_ops
    );
    let legacy_rate = throughput(
        &mut legacy,
        cfg.legacy_ops,
        cfg.preload as u64,
        &mut rng,
        read,
    );
    println!(
        "throughput ({label}): legacy {legacy_rate:>12.0} ops/s ({} ops)",
        cfg.legacy_ops
    );
    (lsm_rate, legacy_rate, lsm)
}

fn main() {
    let cfg = parse_args();

    // ---- equality arms --------------------------------------------------
    eprintln!("equality: store-level lockstep ...");
    let lockstep_ops = store_lockstep(&cfg);
    println!("equality: {lockstep_ops} lockstep ops, blocked top-k bit-identical");
    eprintln!("equality: network-level interleaved schedule ...");
    let eq_queries = network_equality(&cfg);
    println!(
        "equality: {eq_queries} certified queries bit-identical across {} rounds",
        cfg.eq_rounds
    );

    // ---- throughput arms -----------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    let preload: Vec<Tuple> = (0..cfg.preload as u64)
        .map(|i| tuple(i, &mut rng))
        .collect();
    let (read_lsm_rate, read_legacy_rate, _) = throughput_pair(&cfg, &preload, true);
    let read_ratio = read_lsm_rate / read_legacy_rate.max(1e-9);
    println!("throughput (insert+top-1): ratio {read_ratio:.1}x (not gated)");
    let (lsm_rate, legacy_rate, mut lsm) = throughput_pair(&cfg, &preload, false);
    let speedup = lsm_rate / legacy_rate.max(1e-9);
    // The 100x target is calibrated to the committed full-scale preload
    // (the rebuild baseline's per-op cost grows with store size, the LSM
    // arm's does not); the quick profile's smaller store gets an honest
    // smaller-preload floor so it stays a meaningful smoke gate.
    let (gate_name, gate_speedup) = if cfg.quick {
        (
            "lsm insert+refresh rate >= 25x rebuild-per-insert baseline at bit-equal \
          answers (quick profile: 8k-row preload floor)",
            25.0,
        )
    } else {
        (
            "lsm insert+refresh rate >= 100x rebuild-per-insert baseline at bit-equal \
          answers",
            100.0,
        )
    };
    println!("throughput (insert+refresh): speedup {speedup:.1}x (gate: >= {gate_speedup:.0}x)");

    // ---- write-amplification arm ---------------------------------------
    // Mix deletes in and force a compaction so the full rewrite ledger is
    // exercised, then read the store's own accounting.
    let doomed: Vec<u64> = (0..(cfg.preload as u64 + cfg.lsm_ops as u64))
        .filter(|id| id % 3 == 0)
        .collect();
    let removed = lsm.delete_batch(doomed.iter().copied());
    lsm.compact();
    let stats = lsm.ingest_stats();
    println!(
        "ingest ledger: {} ingested, {} deleted ({removed} in final wave), {} frozen, \
         {} compacted across {} compaction(s), write amplification {:.3}, \
         {} runs + {} memtable rows, {} live tombstones",
        stats.rows_ingested,
        stats.rows_deleted,
        stats.rows_frozen,
        stats.rows_compacted,
        stats.compactions_run,
        stats.write_amplification(),
        stats.runs,
        stats.memtable_rows,
        stats.tombstones,
    );
    assert!(
        stats.write_amplification() < 16.0,
        "an LSM ingest must not rewrite rows unboundedly (wa = {:.3})",
        stats.write_amplification()
    );

    let gate_ok = speedup >= gate_speedup;
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  {cpu},\n  \"config\": {{ \"dims\": {DIMS}, \"k\": {K}, \
         \"preload\": {}, \"lsm_ops\": {}, \"legacy_ops\": {}, \"quick\": {} }},\n  \
         \"equality\": {{ \"lockstep_ops\": {lockstep_ops}, \"network_queries\": {eq_queries}, \
         \"answers_bit_identical\": true }},\n  \
         \"throughput\": {{ \"op\": \"insert+refresh\", \"lsm_ops_per_sec\": {lsm_rate:.1}, \
         \"legacy_ops_per_sec\": {legacy_rate:.1}, \"speedup\": {speedup:.2} }},\n  \
         \"read_throughput\": {{ \"op\": \"insert+top-1\", \"gated\": false, \
         \"lsm_ops_per_sec\": {read_lsm_rate:.1}, \"legacy_ops_per_sec\": {read_legacy_rate:.1}, \
         \"ratio\": {read_ratio:.2} }},\n  \
         \"ingest_ledger\": {{ \"rows_ingested\": {}, \"rows_deleted\": {}, \
         \"rows_frozen\": {}, \"rows_compacted\": {}, \"compactions_run\": {}, \
         \"write_amplification\": {:.4}, \"runs\": {}, \"memtable_rows\": {}, \
         \"tombstones\": {} }},\n  \
         \"acceptance\": {{ \"gate\": \"{gate_name}\", \"speedup\": {speedup:.2}, \
         \"passed\": {gate_ok} }}\n}}\n",
        cfg.preload,
        cfg.lsm_ops,
        cfg.legacy_ops,
        cfg.quick,
        stats.rows_ingested,
        stats.rows_deleted,
        stats.rows_frozen,
        stats.rows_compacted,
        stats.compactions_run,
        stats.write_amplification(),
        stats.runs,
        stats.memtable_rows,
        stats.tombstones,
        cpu = cpu_header_json(),
    );
    // Quick runs land in target/ so repeated gate runs never clobber the
    // committed full-scale numbers.
    let path = if cfg.quick {
        std::fs::create_dir_all("target").expect("create target dir");
        "target/BENCH_PR10_ingest_quick.json"
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        "results/BENCH_PR10_ingest.json"
    };
    std::fs::write(path, json).expect("write results");
    eprintln!("wrote {path}");

    assert!(
        gate_ok,
        "acceptance: LSM rate {lsm_rate:.0} ops/s must be >= {gate_speedup:.0}x \
         legacy rate {legacy_rate:.0} ops/s (got {speedup:.1}x)"
    );
    println!("acceptance: {speedup:.1}x >= {gate_speedup:.0}x — ok");
}
