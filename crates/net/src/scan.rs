//! Thread-local accounting of local data-plane work (rows scanned, blocks
//! pruned, memtable reads, tombstones masked, compaction effort).
//!
//! The paper's metrics (hops, messages) deliberately ignore local scans,
//! but the columnar block layer and the LSM write path exist precisely to
//! shrink them — so the executor reports observability counters per query
//! (see [`ScanCounts`] and the matching `QueryMetrics` fields). The scan
//! sites live deep inside the store and the query kernels, far from any
//! ledger, so the counts flow through a thread-local accumulator: the
//! executor brackets every `computeLocalState` / `computeLocalAnswer` call
//! with [`begin`] / [`end`] and drains the delta into the branch ledger.
//! One peer-visit runs entirely on one thread (the parallel engine forks
//! per restriction-area subtree, never inside a visit), so the bracketing
//! is race-free and the totals are schedule-independent. Ingest paths
//! (freeze, compaction) report through the same brackets when a harness
//! opens one around a mutation batch — outside a bracket they cost nothing.
//!
//! Accounting is **off by default** — a disabled [`add_scanned`] is a
//! thread-local load and a branch, so the counters cost nothing when the
//! executor runs with tracing off (large sweeps) and nothing at all outside
//! query execution (e.g. baseline code calling `PeerStore::skyline`
//! directly).

use std::cell::Cell;

/// The data-plane work accumulated inside one [`begin`]/[`end`] bracket.
/// All counters are observability-only: they are excluded from
/// `QueryMetrics` equality, because they describe how much work an
/// execution *avoided*, which legitimately differs between executions that
/// are bit-identical in every paper metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Tuple rows examined (scored, dominance-tested or filtered).
    pub tuples_scanned: u64,
    /// Whole blocks skipped by a bound test without touching a row.
    pub blocks_pruned: u64,
    /// Rows read from the store's memtable overlay (the unfrozen tail)
    /// rather than from a frozen run.
    pub memtable_hits: u64,
    /// Tombstone-masked rows skipped during scans.
    pub tombstones_masked: u64,
    /// Compaction passes that rewrote at least one run.
    pub compactions_run: u64,
    /// Rows physically rewritten by the write path (memtable freezes and
    /// run compactions) — the numerator of write amplification.
    pub rows_rewritten: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<ScanCounts> = const { Cell::new(ScanCounts {
        tuples_scanned: 0,
        blocks_pruned: 0,
        memtable_hits: 0,
        tombstones_masked: 0,
        compactions_run: 0,
        rows_rewritten: 0,
    }) };
}

#[inline]
fn add(apply: impl FnOnce(&mut ScanCounts)) {
    ENABLED.with(|e| {
        if e.get() {
            COUNTS.with(|c| {
                let mut counts = c.get();
                apply(&mut counts);
                c.set(counts);
            });
        }
    });
}

/// Records `n` tuple rows examined by a local scan (scored, dominance-
/// tested or filtered). No-op unless a [`begin`]/[`end`] bracket is open on
/// this thread.
#[inline]
pub fn add_scanned(n: u64) {
    add(|c| c.tuples_scanned += n);
}

/// Records `n` whole blocks skipped by a bound test without touching a row.
/// No-op unless a [`begin`]/[`end`] bracket is open on this thread.
#[inline]
pub fn add_pruned(n: u64) {
    add(|c| c.blocks_pruned += n);
}

/// Records `n` rows read from the memtable overlay (the store's unfrozen
/// tail) by a scan. No-op outside a bracket.
#[inline]
pub fn add_memtable(n: u64) {
    add(|c| c.memtable_hits += n);
}

/// Records `n` tombstone-masked rows skipped by a scan. No-op outside a
/// bracket.
#[inline]
pub fn add_masked(n: u64) {
    add(|c| c.tombstones_masked += n);
}

/// Records `n` compaction passes that rewrote runs. No-op outside a
/// bracket.
#[inline]
pub fn add_compactions(n: u64) {
    add(|c| c.compactions_run += n);
}

/// Records `n` rows physically rewritten by a memtable freeze or a run
/// compaction. No-op outside a bracket.
#[inline]
pub fn add_rewritten(n: u64) {
    add(|c| c.rows_rewritten += n);
}

/// Opens an accounting bracket on this thread: zeroes the counters and
/// enables the `add_*` recorders.
pub fn begin() {
    ENABLED.with(|e| e.set(true));
    COUNTS.with(|c| c.set(ScanCounts::default()));
}

/// Closes the bracket: disables accounting and returns the counts
/// accumulated since [`begin`].
pub fn end() -> ScanCounts {
    ENABLED.with(|e| e.set(false));
    COUNTS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_outside_brackets() {
        add_scanned(5);
        add_pruned(2);
        add_memtable(3);
        add_masked(4);
        begin();
        assert_eq!(
            end(),
            ScanCounts::default(),
            "counts outside a bracket are dropped"
        );
    }

    #[test]
    fn bracket_accumulates_and_resets() {
        begin();
        add_scanned(10);
        add_scanned(7);
        add_pruned(3);
        add_memtable(2);
        add_masked(5);
        add_compactions(1);
        add_rewritten(256);
        assert_eq!(
            end(),
            ScanCounts {
                tuples_scanned: 17,
                blocks_pruned: 3,
                memtable_hits: 2,
                tombstones_masked: 5,
                compactions_run: 1,
                rows_rewritten: 256,
            }
        );
        add_scanned(100); // after end: dropped
        begin();
        assert_eq!(end(), ScanCounts::default(), "begin zeroes");
    }

    #[test]
    fn threads_are_independent() {
        begin();
        add_scanned(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                begin();
                add_scanned(40);
                let c = end();
                assert_eq!(c.tuples_scanned, 40);
                assert_eq!(c.blocks_pruned, 0);
            });
        });
        add_pruned(2);
        let c = end();
        assert_eq!(
            (c.tuples_scanned, c.blocks_pruned),
            (1, 2),
            "sibling thread's bracket is invisible"
        );
    }
}
