//! Columnar (structure-of-arrays) runs of a peer's tuples, with per-block
//! pruning bounds and tombstone masks — the frozen half of the store's
//! LSM-shaped write path.
//!
//! A [`crate::PeerStore`] keeps its `Vec<Tuple>` as the logical source of
//! truth. Physically the store is layered: a prefix of the vector mirrors a
//! sequence of immutable **runs** ([`RunData`] — at most [`BLOCK_ROWS`] rows
//! each, frozen out of the memtable or rewritten by a compaction), and the
//! suffix is the **memtable** (recent inserts not yet frozen). A [`BlockSet`]
//! is the generation-validated snapshot query paths scan: one block per
//! live run (sharing the run's allocation via `Arc` — assembling a snapshot
//! after a mutation costs O(runs + memtable·d), not O(store·d)) plus
//! freshly-built blocks for the memtable tail. Each block carries
//!
//! * its per-dimension minimum and maximum vectors (the block's bounding
//!   box corners — fed to `ScoreFn::upper_bound_corners` for the `f⁺` block
//!   bound and to the dominates-corner test of Algorithm 14),
//! * the minimum *coordinate sum* over its rows (an SFS-style bound: only
//!   skyline members whose sum is at or below it can dominate the block's
//!   min corner, so the corner test scans a canonical-order prefix), and
//! * an optional **tombstone mask** ([`BlockSet::block_dead`]): rows deleted
//!   since the run froze. Masked rows stay in the columns (the kernels scan
//!   them — that is what keeps whole-column SIMD passes possible) but are
//!   filtered out of every emission, and the scan sites report them through
//!   [`crate::scan::add_masked`].
//!
//! Bounds are computed over **all** rows of a run at freeze time and are
//! *not* tightened when rows die: they bound a superset of the live rows,
//! so every pruning test stays conservative — a masked run prunes less
//! often, never wrongly. Compaction rewrites tombstone-heavy runs and
//! restores tight bounds.

use ripple_geom::{KernelDispatch, Tuple};
use std::sync::Arc;

pub use ripple_geom::kernels::BLOCK_ROWS;

/// One immutable columnar run: at most [`BLOCK_ROWS`] tuples in store
/// order, with their coordinates laid out column-major and the block-level
/// pruning bounds precomputed. Built once (at memtable freeze or by a
/// compaction) and shared via `Arc` between the store and every in-flight
/// [`BlockSet`] snapshot; never mutated afterwards — deletions are masks
/// layered on top, not edits.
#[derive(Debug)]
pub struct RunData {
    /// The run's rows (tuple copies in store order; points share their
    /// coordinate storage, so a run costs O(rows) headers, not a deep copy).
    tuples: Vec<Tuple>,
    /// One allocation holding the block's bounding box and then its
    /// coordinates column-major: `dims` minima (the box's lower corner),
    /// `dims` maxima (the upper corner), then one column of `rows` values
    /// per dimension. A scan reaches bounds and columns through a single
    /// pointer.
    coords: Box<[f64]>,
    /// Minimum row coordinate sum (computed with the same left-fold the
    /// scalar code uses, so canonical-order comparisons are exact).
    min_sum: f64,
    /// Dimensionality (0 only for an empty run, which is never built).
    dims: usize,
}

impl RunData {
    /// Builds a run from `tuples` (store order), running its summarisation
    /// kernel on the given dispatch arm. The result is bit-identical on
    /// either arm (the kernel contract), so runs built during mutations —
    /// where no execution-chosen arm is in scope — are safely shared with
    /// forced-arm queries.
    pub fn build(tuples: Vec<Tuple>, dispatch: KernelDispatch) -> Self {
        let rows = tuples.len();
        debug_assert!(rows <= BLOCK_ROWS, "a run is at most one block");
        let dims = tuples.first().map_or(0, Tuple::dims);
        let mut coords = vec![0.0; dims * (2 + rows)].into_boxed_slice();
        let (bounds, cols) = coords.split_at_mut(2 * dims);
        for (i, t) in tuples.iter().enumerate() {
            debug_assert_eq!(t.dims(), dims, "mixed dimensionality in one store");
            for (d, c) in t.point.coords().iter().enumerate() {
                cols[d * rows + i] = *c;
            }
        }
        let (mins, maxs) = bounds.split_at_mut(dims);
        mins.fill(f64::INFINITY);
        maxs.fill(f64::NEG_INFINITY);
        for (d, col) in cols.chunks(rows.max(1)).enumerate() {
            for &v in col {
                mins[d] = mins[d].min(v);
                maxs[d] = maxs[d].max(v);
            }
        }
        let col_refs: Vec<&[f64]> = cols.chunks(rows.max(1)).collect();
        let mut sums = Vec::new();
        ripple_geom::kernels::coord_sums(dispatch, &col_refs, &mut sums);
        let min_sum = sums.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        Self {
            tuples,
            coords,
            min_sum,
            dims,
        }
    }

    /// Number of rows in this run (live and masked alike).
    pub fn rows(&self) -> usize {
        self.tuples.len()
    }

    /// The run's rows in store order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }
}

/// One block of a [`BlockSet`] snapshot: a shared run plus the tombstone
/// mask it carried when the snapshot was assembled.
#[derive(Clone, Debug)]
pub struct BlockEntry {
    data: Arc<RunData>,
    /// `Some` when rows of this run were deleted: `dead[i]` marks row `i`
    /// masked. Shared copy-on-write with the store (`Arc`), so a snapshot
    /// costs nothing and a later deletion clones the mask instead of
    /// mutating it under a reader.
    dead: Option<Arc<Vec<bool>>>,
    /// Number of unmasked rows (`rows - #dead`).
    live: usize,
    /// True when this block was cut from the memtable tail at snapshot
    /// time rather than referencing a frozen run (drives the
    /// `memtable_hits` observability counter at the scan sites).
    tail: bool,
}

impl BlockEntry {
    /// A block referencing a frozen run with its current mask.
    pub fn frozen(data: Arc<RunData>, dead: Option<Arc<Vec<bool>>>, live: usize) -> Self {
        Self {
            data,
            dead,
            live,
            tail: false,
        }
    }

    /// A block freshly cut from the memtable tail (no mask: memtable
    /// deletions remove rows physically).
    pub fn memtable(data: Arc<RunData>) -> Self {
        let live = data.rows();
        Self {
            data,
            dead: None,
            live,
            tail: true,
        }
    }
}

/// The columnar snapshot of one peer store at one generation: the store's
/// frozen runs (shared) followed by the memtable tail (built fresh), in
/// store order. Blocks whose rows are all masked are omitted.
#[derive(Clone, Debug)]
pub struct BlockSet {
    /// Store generation this snapshot reflects.
    built_at: u64,
    /// Dimensionality of the rows (0 when the store is empty).
    dims: usize,
    /// Number of **live** rows across all blocks (= the store's logical
    /// tuple count at `built_at`).
    rows: usize,
    entries: Vec<BlockEntry>,
}

impl BlockSet {
    /// Assembles a snapshot from prepared blocks (store order: frozen runs
    /// first, then memtable blocks).
    pub fn assemble(entries: Vec<BlockEntry>, built_at: u64) -> Self {
        let dims = entries.first().map_or(0, |e| e.data.dims);
        let rows = entries.iter().map(|e| e.live).sum();
        debug_assert!(entries.iter().all(|e| e.live > 0), "empty blocks omitted");
        Self {
            built_at,
            dims,
            rows,
            entries,
        }
    }

    /// Builds a mask-free snapshot of a flat tuple slice, cut into
    /// [`BLOCK_ROWS`]-row blocks — the shape a store whose rows were all
    /// bulk-loaded (no deletions yet) produces, and the direct constructor
    /// tests and standalone consumers (e.g. the planner's selectivity
    /// estimate) use.
    pub fn build(tuples: &[Tuple], built_at: u64, dispatch: KernelDispatch) -> Self {
        let entries = tuples
            .chunks(BLOCK_ROWS)
            .map(|chunk| {
                let data = Arc::new(RunData::build(chunk.to_vec(), dispatch));
                BlockEntry::frozen(data, None, chunk.len())
            })
            .collect();
        Self::assemble(entries, built_at)
    }

    /// The store generation this snapshot reflects.
    pub fn built_at(&self) -> u64 {
        self.built_at
    }

    /// Number of live rows across all blocks.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of the rows (0 for an empty snapshot).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Physical rows of block `b` (masked rows included — the row count the
    /// kernels scan).
    pub fn block_rows(&self, b: usize) -> usize {
        self.entries[b].data.rows()
    }

    /// Live (unmasked) rows of block `b`.
    pub fn block_live(&self, b: usize) -> usize {
        self.entries[b].live
    }

    /// The tuples of block `b`, in store order (masked rows included:
    /// emission sites must consult [`block_dead`](BlockSet::block_dead)).
    pub fn block_tuples(&self, b: usize) -> &[Tuple] {
        self.entries[b].data.tuples()
    }

    /// The tombstone mask of block `b`: `Some(mask)` with `mask[i] == true`
    /// for masked rows, or `None` when every row is live.
    pub fn block_dead(&self, b: usize) -> Option<&[bool]> {
        self.entries[b].dead.as_deref().map(Vec::as_slice)
    }

    /// True when block `b` was cut from the memtable tail.
    pub fn is_memtable(&self, b: usize) -> bool {
        self.entries[b].tail
    }

    /// Fills `buf` with one column slice per dimension for block `b` — the
    /// shape the kernels consume. The buffer is caller-owned so a
    /// multi-block scan does one allocation total.
    pub fn block_cols<'a>(&'a self, b: usize, buf: &mut Vec<&'a [f64]>) {
        let data = &self.entries[b].data;
        buf.clear();
        buf.extend(data.coords[2 * data.dims..].chunks(data.rows()));
    }

    /// Per-dimension minima of block `b` (the box's lower corner — the
    /// hardest point to dominate, per Algorithm 14). Computed over all rows
    /// at freeze time: a conservative superset bound once rows are masked.
    pub fn block_min(&self, b: usize) -> &[f64] {
        let data = &self.entries[b].data;
        &data.coords[..data.dims]
    }

    /// Per-dimension maxima of block `b` (the box's upper corner; superset
    /// bound, like [`block_min`](BlockSet::block_min)).
    pub fn block_max(&self, b: usize) -> &[f64] {
        let data = &self.entries[b].data;
        &data.coords[data.dims..2 * data.dims]
    }

    /// Minimum row coordinate sum of block `b` (over all rows — at or below
    /// every live row's sum, which is the direction the canonical-prefix
    /// pruning argument needs).
    pub fn block_min_sum(&self, b: usize) -> f64 {
        self.entries[b].data.min_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: usize, dims: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    i as u64,
                    (0..dims)
                        .map(|d| ((i * 31 + d * 17) % 97) as f64 / 97.0 - 0.25)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn empty_snapshot() {
        let b = BlockSet::build(&[], 3, KernelDispatch::Auto);
        assert_eq!(b.rows(), 0);
        assert_eq!(b.dims(), 0);
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.built_at(), 3);
    }

    #[test]
    fn columns_mirror_rows_exactly() {
        for n in [
            1,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            3 * BLOCK_ROWS + 7,
        ] {
            let data = tuples(n, 3);
            let set = BlockSet::build(&data, 0, KernelDispatch::Auto);
            assert_eq!(set.rows(), n);
            assert_eq!(set.num_blocks(), n.div_ceil(BLOCK_ROWS));
            let mut buf = Vec::new();
            let mut base = 0usize;
            for b in 0..set.num_blocks() {
                set.block_cols(b, &mut buf);
                assert_eq!(buf.len(), 3);
                assert_eq!(set.block_rows(b), set.block_tuples(b).len());
                assert!(set.block_dead(b).is_none());
                assert!(!set.is_memtable(b));
                for (d, col) in buf.iter().enumerate() {
                    assert_eq!(col.len(), set.block_rows(b));
                    for off in 0..set.block_rows(b) {
                        assert_eq!(
                            col[off].to_bits(),
                            data[base + off].point.coord(d).to_bits()
                        );
                        assert_eq!(set.block_tuples(b)[off], data[base + off]);
                    }
                }
                base += set.block_rows(b);
            }
            assert_eq!(base, n);
        }
    }

    #[test]
    fn block_bounds_contain_their_rows() {
        let data = tuples(2 * BLOCK_ROWS + 11, 4);
        let set = BlockSet::build(&data, 0, KernelDispatch::Auto);
        for b in 0..set.num_blocks() {
            let (lo, hi) = (set.block_min(b), set.block_max(b));
            let mut tight_lo = [false; 4];
            let mut tight_hi = [false; 4];
            for t in set.block_tuples(b) {
                for d in 0..4 {
                    let c = t.point.coord(d);
                    assert!(lo[d] <= c && c <= hi[d]);
                    tight_lo[d] |= c == lo[d];
                    tight_hi[d] |= c == hi[d];
                }
            }
            assert!(tight_lo.iter().all(|&t| t), "minima are attained");
            assert!(tight_hi.iter().all(|&t| t), "maxima are attained");
        }
    }

    #[test]
    fn min_sum_bounds_row_sums_and_is_attained() {
        let data = tuples(BLOCK_ROWS + 50, 3);
        let set = BlockSet::build(&data, 0, KernelDispatch::Auto);
        for b in 0..set.num_blocks() {
            let ms = set.block_min_sum(b);
            let mut attained = false;
            for t in set.block_tuples(b) {
                let s: f64 = t.point.coords().iter().sum();
                assert!(ms <= s);
                attained |= s == ms;
            }
            assert!(attained);
            // The min corner's sum never exceeds the min row sum (the
            // canonical-prefix pruning argument needs this direction).
            let corner_sum: f64 = set.block_min(b).iter().sum();
            assert!(corner_sum <= ms);
        }
    }

    /// Masked rows keep the run's bounds conservative: the box still
    /// contains every live row, and the min sum still bounds live sums
    /// from below — pruning stays sound, just weaker.
    #[test]
    fn masked_blocks_keep_superset_bounds() {
        let data = tuples(BLOCK_ROWS, 3);
        let run = Arc::new(RunData::build(data.clone(), KernelDispatch::Auto));
        let mut dead = vec![false; BLOCK_ROWS];
        for i in (0..BLOCK_ROWS).step_by(3) {
            dead[i] = true;
        }
        let live = dead.iter().filter(|d| !**d).count();
        let set = BlockSet::assemble(
            vec![BlockEntry::frozen(run, Some(Arc::new(dead.clone())), live)],
            7,
        );
        assert_eq!(set.rows(), live);
        assert_eq!(set.block_live(0), live);
        assert_eq!(set.block_rows(0), BLOCK_ROWS);
        let mask = set.block_dead(0).expect("mask present");
        for (off, t) in set.block_tuples(0).iter().enumerate() {
            if mask[off] {
                continue;
            }
            for d in 0..3 {
                let c = t.point.coord(d);
                assert!(set.block_min(0)[d] <= c && c <= set.block_max(0)[d]);
            }
            let s: f64 = t.point.coords().iter().sum();
            assert!(set.block_min_sum(0) <= s);
        }
    }

    #[test]
    fn memtable_blocks_are_flagged() {
        let data = tuples(40, 2);
        let frozen = Arc::new(RunData::build(data[..30].to_vec(), KernelDispatch::Auto));
        let tail = Arc::new(RunData::build(data[30..].to_vec(), KernelDispatch::Auto));
        let set = BlockSet::assemble(
            vec![
                BlockEntry::frozen(frozen, None, 30),
                BlockEntry::memtable(tail),
            ],
            1,
        );
        assert_eq!(set.rows(), 40);
        assert!(!set.is_memtable(0));
        assert!(set.is_memtable(1));
        assert_eq!(set.block_tuples(1), &data[30..]);
    }
}
