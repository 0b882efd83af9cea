//! Pareto dominance and centralized skyline computation.
//!
//! Section 5: a tuple `t` dominates `t'` (`t ≺ t'` with lower-is-better
//! convention, written `t ⪰ t'` in the paper) if `t` is no worse on every
//! dimension and strictly better on at least one. The skyline is the set of
//! non-dominated tuples.
//!
//! These operators run *inside* peers (local skylines, state merges) and at
//! the query initiator, so they are heavily exercised; `skyline` uses a
//! sort-by-sum sweep so that most dominance tests hit early-exit.

use std::ops::Deref;

use crate::kernels::{self, KernelDispatch};
use crate::point::{Point, Tuple};
use crate::rect::Rect;

/// True if `a` dominates `b`: `a` is ≤ on all dimensions and < on at least
/// one. Lower values are better (the paper's convention).
pub fn dominates(a: &Point, b: &Point) -> bool {
    debug_assert_eq!(a.dims(), b.dims());
    let mut strictly = false;
    for d in 0..a.dims() {
        let (x, y) = (a.coord(d), b.coord(d));
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// True if `s` dominates *every possible tuple* inside `region`
/// (Algorithm 14's pruning test). Since lower is better, the hardest point
/// to dominate is the region's lower corner.
pub fn dominates_rect(s: &Point, region: &Rect) -> bool {
    dominates(s, region.lo())
}

/// Computes the skyline (maximal set under Pareto dominance) of `tuples`,
/// in the canonical order of [`Skyline::of`].
pub fn skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    Skyline::of(tuples).into_vec()
}

/// Computes the *k-skyband*: every tuple dominated by fewer than `k`
/// others. The skyline is the 1-skyband.
///
/// Section 2.1 of the RIPPLE paper: "In SPEERTO each node computes its
/// k-skyband as a pre-processing step" — the k-skyband is exactly the set
/// of tuples that can appear in the top-k answer of *some* monotone scoring
/// function, so a peer that precomputes it can answer any incoming top-k
/// query from that subset alone.
pub fn skyband(tuples: &[Tuple], k: usize) -> Vec<Tuple> {
    assert!(k > 0, "the 0-skyband is empty by definition");
    let mut out = Vec::new();
    'outer: for t in tuples {
        let mut dominated_by = 0;
        for other in tuples {
            if dominates(&other.point, &t.point) {
                dominated_by += 1;
                if dominated_by >= k {
                    continue 'outer;
                }
            }
        }
        out.push(t.clone());
    }
    out
}

/// Computes the skyline of the tuples falling inside `constraint` — the
/// *constrained* skyline query DSL was designed for (Section 2.2: the
/// query anchors at "the region containing the lower-left corner of the
/// constraint").
pub fn constrained_skyline(tuples: &[Tuple], constraint: &Rect) -> Vec<Tuple> {
    let inside: Vec<Tuple> = tuples
        .iter()
        .filter(|t| constraint.contains(&t.point))
        .cloned()
        .collect();
    skyline(&inside)
}

/// Folds the tuples of `add` into the skyline `base` (which must already be
/// a skyline — no member dominating another); `add` may be any tuple set.
///
/// Equals `skyline(base ∪ add)` as a set: it thins `add` to its skyline
/// once, then runs the [`Skyline::union`] merge — the surviving `base`
/// members in `base` order, then the surviving additions in canonical
/// order.
pub fn skyline_insert(base: Vec<Tuple>, add: &[Tuple]) -> Vec<Tuple> {
    if add.is_empty() {
        return base;
    }
    let sums = base.iter().map(coord_sum).collect();
    let base = Skyline {
        members: base,
        sums,
    };
    base.union(&Skyline::of(add)).into_vec()
}

/// The left-fold coordinate sum: the SFS presort key.
fn coord_sum(t: &Tuple) -> f64 {
    t.point.coords().iter().sum()
}

/// A skyline state: member tuples, none dominating or equal to another,
/// each stored with its left-fold coordinate sum.
///
/// Only skyline-producing operations build one ([`of`](Skyline::of),
/// [`from_keyed`](Skyline::from_keyed), [`fold`](Skyline::fold),
/// [`thin`](Skyline::thin) and [`union`](Skyline::union)), so "is already
/// a skyline" is never re-checked at run time. It dereferences to its
/// members, in the order the producing operation defines.
///
/// The sums bound every dominance scan. If `a` dominates `b` then
/// `sum(a) ≤ sum(b)` — the presorting fact of SFS (Chomicki et al., ICDE
/// 2003), which holds for float left-fold sums too because rounding is
/// monotone — and equal points have equal sums. A search for a member that
/// dominates or equals `b` can stop at the first member, in ascending sum
/// order, whose sum exceeds `sum(b)`. Coordinates are assumed non-NaN.
#[derive(Clone, Debug, Default)]
pub struct Skyline {
    members: Vec<Tuple>,
    sums: Vec<f64>,
}

impl Deref for Skyline {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        &self.members
    }
}

impl Skyline {
    /// The skyline of `tuples` in canonical order: ascending
    /// `(coordinate sum, id)`, exact duplicates represented by their
    /// minimum id.
    pub fn of(tuples: &[Tuple]) -> Skyline {
        Self::from_keyed(tuples.iter().map(|t| (coord_sum(t), t)).collect())
    }

    /// [`of`](Skyline::of) over `(coordinate sum, tuple)` candidates whose
    /// sums the caller computed — e.g. from a block's columns. Each sum must
    /// be bit-identical to the left fold `coords().iter().sum()`.
    ///
    /// Sorting by sum first guarantees that a tuple can only be dominated by
    /// one that precedes it in the scan, so a single forward pass over a
    /// growing window suffices (the classic SFS algorithm).
    pub fn from_keyed(mut cand: Vec<(f64, &Tuple)>) -> Skyline {
        cand.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.id.cmp(&b.1.id)));
        let mut sky = Skyline::default();
        // The members' coordinates, flat, so the window scan stays in one
        // allocation.
        let mut window: Vec<f64> = Vec::new();
        for (sum, t) in cand {
            let p = t.point.coords();
            // Equal points: keep only the first representative.
            if !window
                .chunks_exact(p.len())
                .any(|m| kernels::dominates_raw(KernelDispatch::Auto, m, p) || m == p)
            {
                window.extend_from_slice(p);
                sky.push(sum, t.clone());
            }
        }
        sky
    }

    /// The members' coordinate sums, in member order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// The members, in order.
    pub fn into_vec(self) -> Vec<Tuple> {
        self.members
    }

    fn push(&mut self, sum: f64, t: Tuple) {
        self.sums.push(sum);
        self.members.push(t);
    }

    /// Folds one tuple (with its coordinate sum precomputed by the caller —
    /// e.g. a whole block at a time via [`crate::kernels::coord_sums`]) into
    /// the skyline. On a skyline in canonical order this preserves exactly
    /// the set, order and duplicate representatives [`of`](Skyline::of)
    /// would produce, so folding any tuple sequence from an empty skyline
    /// *is* that recompute; incremental maintainers (the peer store) and
    /// blocked scans share this one implementation. On any other order the
    /// result is still a skyline.
    pub fn fold(&mut self, t: &Tuple, sum: f64) {
        // Only members with a sum at or below `t`'s can dominate or equal it.
        let hit = (0..self.len()).find(|&i| {
            let m = &self.members[i].point;
            self.sums[i] <= sum && (dominates(m, &t.point) || *m == t.point)
        });
        if let Some(i) = hit {
            if self.members[i].point == t.point && t.id < self.members[i].id {
                // `of` keeps the min-id representative of an exact
                // duplicate; replace and reposition within the equal-sum
                // block.
                self.members.remove(i);
                self.sums.remove(i);
                self.insert_canonical(sum, t.clone());
            }
            return;
        }
        // `t` enters the skyline: evict the members it dominates (all have
        // a larger sum) and insert at the canonical spot.
        self.retain(|m, s| s <= sum || !dominates(&t.point, &m.point));
        self.insert_canonical(sum, t.clone());
    }

    /// Inserts at the canonical `(sum, id)` position of a canonical-order
    /// skyline.
    fn insert_canonical(&mut self, sum: f64, t: Tuple) {
        let lo = self.sums.partition_point(|s| s.total_cmp(&sum).is_lt());
        let pos = lo
            + (lo..self.len())
                .take_while(|&i| self.sums[i].total_cmp(&sum).is_eq() && self.members[i].id < t.id)
                .count();
        self.sums.insert(pos, sum);
        self.members.insert(pos, t);
    }

    /// Keeps the members `keep(member, sum)` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&Tuple, f64) -> bool) {
        let kept: Vec<bool> = (0..self.len())
            .map(|i| keep(&self.members[i], self.sums[i]))
            .collect();
        let mut k = kept.iter();
        self.members
            .retain(|_| *k.next().expect("one verdict per member"));
        let mut k = kept.iter();
        self.sums
            .retain(|_| *k.next().expect("one verdict per member"));
    }

    /// The members no member of `by` dominates — Algorithm 10's thinning by
    /// the global state. A subset of a skyline is a skyline; the order is
    /// kept.
    pub fn thin(mut self, by: &Skyline) -> Skyline {
        if !by.is_empty() {
            let by = SumOrdered::new(by, &by.canonical_order());
            self.retain(|m, s| !by.covers(m.point.coords(), s, false));
        }
        self
    }

    /// The skyline of `self ∪ other` — the merge of Algorithms 11 and 13.
    ///
    /// Member for member the two-filter definition: the members of `self`
    /// that no member of `other` dominates, in `self`'s order, then the
    /// members of `other` in canonical `(sum, id)` order that no surviving
    /// member of `self` dominates or equals (so an exact duplicate keeps its
    /// `self` representative). Neither side is re-thinned — both are
    /// skylines already — and each member is tested only against the other
    /// side's members whose sums are at or below its own.
    pub fn union(&self, other: &Skyline) -> Skyline {
        if other.is_empty() {
            return self.clone();
        }
        let add_order = other.canonical_order();
        let add = SumOrdered::new(other, &add_order);
        let mut out = Skyline::default();
        for (m, &s) in self.members.iter().zip(&self.sums) {
            if !add.covers(m.point.coords(), s, false) {
                out.push(s, m.clone());
            }
        }
        let base = SumOrdered::new(&out, &out.canonical_order());
        for i in add_order {
            let (m, s) = (&other.members[i], other.sums[i]);
            if !base.covers(m.point.coords(), s, true) {
                out.push(s, m.clone());
            }
        }
        out
    }

    /// Member indices in canonical `(sum, id)` order. The sort is stable,
    /// so it matches [`of`](Skyline::of)'s tie handling, and an
    /// already-canonical skyline costs one pass.
    fn canonical_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            self.sums[a]
                .total_cmp(&self.sums[b])
                .then_with(|| self.members[a].id.cmp(&self.members[b].id))
        });
        order
    }
}

/// One side of a merge, flattened in ascending sum order: contiguous sums
/// and coordinates, so a scan touches no shared point storage and stops at
/// the first member whose sum exceeds the probe's.
struct SumOrdered {
    sums: Vec<f64>,
    coords: Vec<f64>,
    dims: usize,
}

impl SumOrdered {
    fn new(sky: &Skyline, order: &[usize]) -> Self {
        let dims = sky.first().map_or(1, |t| t.point.dims());
        let mut coords = Vec::with_capacity(order.len() * dims);
        for &i in order {
            coords.extend_from_slice(sky.members[i].point.coords());
        }
        Self {
            sums: order.iter().map(|&i| sky.sums[i]).collect(),
            coords,
            dims,
        }
    }

    /// True if a member dominates `p` (whose coordinate sum is `sum`) or,
    /// with `or_equal`, equals it.
    fn covers(&self, p: &[f64], sum: f64, or_equal: bool) -> bool {
        self.coords
            .chunks_exact(self.dims)
            .zip(&self.sums)
            .take_while(|&(_, &s)| s <= sum)
            .any(|(m, _)| {
                kernels::dominates_raw(KernelDispatch::Auto, m, p) || (or_equal && m == p)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    #[test]
    fn dominance_basics() {
        let a = Point::new(vec![0.1, 0.1]);
        let b = Point::new(vec![0.2, 0.2]);
        let c = Point::new(vec![0.05, 0.3]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &c) && !dominates(&c, &a), "incomparable");
        assert!(!dominates(&a, &a), "no self-domination");
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = Point::new(vec![0.5, 0.5]);
        let b = Point::new(vec![0.5, 0.5]);
        assert!(!dominates(&a, &b));
        let c = Point::new(vec![0.5, 0.4]);
        assert!(dominates(&c, &a));
    }

    #[test]
    fn rect_domination_uses_best_corner() {
        let s = Point::new(vec![0.1, 0.1]);
        let dominated = Rect::new(vec![0.2, 0.2], vec![0.9, 0.9]);
        let safe = Rect::new(vec![0.0, 0.2], vec![0.9, 0.9]);
        assert!(dominates_rect(&s, &dominated));
        assert!(!dominates_rect(&s, &safe));
    }

    #[test]
    fn skyline_simple() {
        let data = vec![
            t(1, &[0.1, 0.9]),
            t(2, &[0.9, 0.1]),
            t(3, &[0.5, 0.5]),
            t(4, &[0.6, 0.6]),  // dominated by 3
            t(5, &[0.1, 0.95]), // dominated by 1
        ];
        let sky = skyline(&data);
        let mut ids: Vec<u64> = sky.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn skyline_no_dominated_members_and_complete() {
        // brute-force cross-check on a fixed grid of points
        let mut data = Vec::new();
        let mut id = 0;
        for i in 0..6 {
            for j in 0..6 {
                data.push(t(id, &[i as f64 / 5.0, ((j * 7) % 6) as f64 / 5.0]));
                id += 1;
            }
        }
        let sky = skyline(&data);
        // no member dominated by any data point
        for s in &sky {
            for d in &data {
                assert!(!dominates(&d.point, &s.point));
            }
        }
        // every non-member is dominated or a duplicate of a member
        for d in &data {
            if sky.iter().any(|s| s.id == d.id) {
                continue;
            }
            assert!(
                sky.iter()
                    .any(|s| dominates(&s.point, &d.point) || s.point == d.point),
                "{d:?} unaccounted for"
            );
        }
    }

    #[test]
    fn skyline_dedups_equal_points() {
        let data = vec![t(1, &[0.3, 0.3]), t(2, &[0.3, 0.3])];
        assert_eq!(skyline(&data).len(), 1);
    }

    #[test]
    fn union_equals_skyline_of_union() {
        let a = vec![t(1, &[0.1, 0.9]), t(2, &[0.8, 0.8])];
        let b = vec![t(3, &[0.2, 0.2]), t(4, &[0.9, 0.05])];
        let merged = Skyline::of(&a).union(&Skyline::of(&b));
        let mut union = a;
        union.extend(b);
        let direct = skyline(&union);
        let mut m: Vec<u64> = merged.iter().map(|t| t.id).collect();
        let mut d: Vec<u64> = direct.iter().map(|t| t.id).collect();
        m.sort_unstable();
        d.sort_unstable();
        assert_eq!(m, d);
        assert_eq!(m, vec![1, 3, 4]);
    }

    #[test]
    fn skyline_of_empty_is_empty() {
        assert!(skyline(&[]).is_empty());
    }

    /// Regression for the precomputed-key sort: the output order must equal
    /// the historical implementation that recomputed coordinate sums inside
    /// the comparator, including sum ties broken by id and duplicate points.
    #[test]
    fn skyline_order_matches_comparator_recompute_reference() {
        fn reference(tuples: &[Tuple]) -> Vec<Tuple> {
            let mut order: Vec<&Tuple> = tuples.iter().collect();
            order.sort_by(|a, b| {
                let sa: f64 = a.point.coords().iter().sum();
                let sb: f64 = b.point.coords().iter().sum();
                sa.total_cmp(&sb).then_with(|| a.id.cmp(&b.id))
            });
            let mut sky: Vec<Tuple> = Vec::new();
            'outer: for t in order {
                for s in &sky {
                    if dominates(&s.point, &t.point) || s.point == t.point {
                        continue 'outer;
                    }
                }
                sky.push(t.clone());
            }
            sky
        }
        let mut state: u64 = 0x5DEECE66D;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 16) as f64 / 16.0 // coarse grid: many ties
        };
        let mut data: Vec<Tuple> = (0..300)
            .map(|i| Tuple::new(i, vec![next(), next(), next()]))
            .collect();
        // exact duplicates and sum-ties across distinct points
        data.push(Tuple::new(900, data[0].point.coords().to_vec()));
        data.push(Tuple::new(901, vec![0.0, 0.5, 0.25]));
        data.push(Tuple::new(902, vec![0.5, 0.0, 0.25]));
        let fast = skyline(&data);
        let slow = reference(&data);
        assert_eq!(fast, slow, "same members, same order, same representatives");
    }

    /// Folding every tuple of a sequence into an empty canonical skyline is
    /// the recompute — same members, order and duplicate representatives —
    /// regardless of the fold order of the input (store order here).
    #[test]
    fn fold_from_empty_equals_recompute() {
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 12) as f64 / 12.0 // coarse grid: ties + dups
        };
        let mut data: Vec<Tuple> = (0..250)
            .map(|i| Tuple::new(i, vec![next(), next(), next()]))
            .collect();
        data.push(Tuple::new(990, data[3].point.coords().to_vec()));
        data.insert(0, Tuple::new(991, data[7].point.coords().to_vec()));
        let mut folded = Skyline::default();
        for t in &data {
            folded.fold(t, coord_sum(t));
        }
        assert_eq!(folded.into_vec(), skyline(&data));
    }

    #[test]
    fn skyband_generalizes_skyline() {
        let data = vec![
            t(1, &[0.1, 0.9]),
            t(2, &[0.9, 0.1]),
            t(3, &[0.5, 0.5]),
            t(4, &[0.6, 0.6]),   // dominated only by 3
            t(5, &[0.65, 0.65]), // dominated by 3 and 4
        ];
        let sky = skyline(&data);
        let band1 = skyband(&data, 1);
        let mut a: Vec<u64> = sky.iter().map(|t| t.id).collect();
        let mut b: Vec<u64> = band1.iter().map(|t| t.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "1-skyband is the skyline");

        let band2: Vec<u64> = {
            let mut v: Vec<u64> = skyband(&data, 2).iter().map(|t| t.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(band2, vec![1, 2, 3, 4]);
        let band3: Vec<u64> = {
            let mut v: Vec<u64> = skyband(&data, 3).iter().map(|t| t.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(band3, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn skyband_contains_all_monotone_topk_answers() {
        // SPEERTO's premise: the k-skyband suffices to answer any monotone
        // top-k query. Check against a few weighted sums (lower = better).
        let data: Vec<Tuple> = (0..40)
            .map(|i| {
                t(
                    i,
                    &[((i * 17) % 40) as f64 / 40.0, ((i * 29) % 40) as f64 / 40.0],
                )
            })
            .collect();
        let k = 3;
        let band = skyband(&data, k);
        for w in [[1.0, 1.0], [2.0, 0.5], [0.1, 3.0]] {
            let mut scored: Vec<&Tuple> = data.iter().collect();
            scored.sort_by(|a, b| {
                let sa = w[0] * a.point.coord(0) + w[1] * a.point.coord(1);
                let sb = w[0] * b.point.coord(0) + w[1] * b.point.coord(1);
                sa.total_cmp(&sb)
            });
            for best in scored.iter().take(k) {
                assert!(
                    band.iter().any(|m| m.id == best.id),
                    "top-{k} member {} missing from the {k}-skyband",
                    best.id
                );
            }
        }
    }

    #[test]
    fn constrained_skyline_restricts_first() {
        let data = vec![
            t(1, &[0.1, 0.1]), // global skyline, outside constraint
            t(2, &[0.5, 0.5]),
            t(3, &[0.6, 0.7]), // dominated by 2 inside the constraint
        ];
        let c = Rect::new(vec![0.4, 0.4], vec![1.0, 1.0]);
        let sky = constrained_skyline(&data, &c);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].id, 2);
        // empty constraint region
        let empty = constrained_skyline(&data, &Rect::new(vec![0.2, 0.2], vec![0.3, 0.3]));
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "0-skyband")]
    fn zero_skyband_rejected() {
        let _ = skyband(&[], 0);
    }

    #[test]
    fn union_matches_owned_insert() {
        let base = skyline(&[t(1, &[0.1, 0.9]), t(2, &[0.9, 0.1]), t(3, &[0.5, 0.5])]);
        for add in [
            vec![],
            vec![t(10, &[0.05, 0.05])],
            vec![t(12, &[0.3, 0.6]), t(13, &[0.6, 0.3])],
        ] {
            assert_eq!(
                Skyline::of(&base).union(&Skyline::of(&add)).into_vec(),
                skyline_insert(base.clone(), &add)
            );
        }
    }

    #[test]
    fn insert_equals_full_recompute() {
        let base_data = vec![t(1, &[0.1, 0.9]), t(2, &[0.9, 0.1]), t(3, &[0.5, 0.5])];
        let base = skyline(&base_data);
        for add in [
            vec![],
            vec![t(10, &[0.05, 0.05])], // dominates everything
            vec![t(11, &[0.6, 0.6])],   // dominated
            vec![t(12, &[0.3, 0.6]), t(13, &[0.6, 0.3])], // mixed
            vec![t(14, &[0.5, 0.5])],   // duplicate point
        ] {
            let merged = skyline_insert(base.clone(), &add);
            let mut union = base_data.clone();
            union.extend(add.clone());
            let direct = skyline(&union);
            let mut a: Vec<u64> = merged.iter().map(|t| t.id).collect();
            let mut b: Vec<u64> = direct.iter().map(|t| t.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            // ids may differ on exact duplicates; compare point sets instead
            assert_eq!(merged.len(), direct.len(), "add = {add:?}");
            for m in &merged {
                assert!(direct.iter().any(|d| d.point == m.point));
            }
        }
    }
}
