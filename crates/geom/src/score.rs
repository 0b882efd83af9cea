//! Top-k scoring functions and their region upper bounds.
//!
//! Section 4 of the paper defines a top-k query by a *unimodal* scoring
//! function `f` (unique local maximum; monotone functions are a special
//! case). Algorithms 8–9 additionally require `f⁺(region)`, an upper bound on
//! the score of any tuple inside a region — that is what lets a peer decide
//! whether a link may contribute and how to prioritise links.
//!
//! Higher scores are better throughout.

use crate::kernels;
use crate::kernels::KernelDispatch;
use crate::norm::Norm;
use crate::point::Point;
use crate::rect::Rect;
use std::hash::{Hash, Hasher};

/// Computes a stable cache key from a type tag and the parameter bits of a
/// scoring function. Two score functions with equal tags and equal parameter
/// bit patterns rank every tuple set identically, so they may share a cached
/// query result.
fn score_cache_key(type_tag: u64, params: impl IntoIterator<Item = u64>) -> u64 {
    // SipHash with fixed keys: deterministic within a process, which is all
    // a per-process result cache needs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    type_tag.hash(&mut h);
    for p in params {
        p.hash(&mut h);
    }
    h.finish()
}

/// A scoring function for top-k queries, with a region upper bound `f⁺`.
///
/// Implementations must guarantee `upper_bound(r) >= score(t)` for every
/// point `t ∈ r` — the RIPPLE pruning logic is only correct under that
/// contract (it is property-tested in this crate).
pub trait ScoreFn: Send + Sync {
    /// Score of a single point. Higher is better.
    fn score(&self, p: &Point) -> f64;

    /// Upper bound `f⁺` on the score of any point inside `r`.
    fn upper_bound(&self, r: &Rect) -> f64;

    /// The location of the function's unique maximum, when known.
    ///
    /// Unimodal functions have one; distributed top-k processing uses it to
    /// route the query to the most promising peer before rippling outward,
    /// which is what keeps the search frontier small.
    fn peak_point(&self) -> Option<Point> {
        None
    }

    /// A stable identity key for the serving layer's result cache, when
    /// available.
    ///
    /// Two score functions returning the same `Some(key)` must induce the
    /// same ranking on every tuple (in practice: identical parameters). A
    /// `None` (the default) opts out of caching — the query still runs, its
    /// answer is just never reused.
    fn cache_key(&self) -> Option<u64> {
        None
    }

    /// Batch score over a columnar block: `out[i] = score(row i)` where the
    /// coordinate of row `i` in dimension `d` is `cols[d][i]`.
    ///
    /// Must be **bit-identical** to calling [`score`](ScoreFn::score) on
    /// each gathered row — the blocked scan paths rely on that to reproduce
    /// the scalar results exactly, *on either arm of `dispatch`* (the kernel
    /// vector arms vectorize across rows while keeping each row's operation
    /// order, see [`crate::kernels`]). The default does the gather and calls
    /// `score`, ignoring `dispatch`; implementations override it with a
    /// vectorization-friendly kernel from [`crate::kernels`].
    fn score_block(&self, cols: &[&[f64]], out: &mut Vec<f64>, dispatch: KernelDispatch) {
        let _ = dispatch;
        let rows = cols.first().map_or(0, |c| c.len());
        out.clear();
        out.reserve(rows);
        let mut row = vec![0.0; cols.len()];
        for i in 0..rows {
            for (d, col) in cols.iter().enumerate() {
                row[d] = col[i];
            }
            out.push(self.score(&Point::new(row.clone())));
        }
    }

    /// Upper bound `f⁺` over the box `[lo, hi]` given as raw corner slices
    /// (a block's per-dimension min/max vectors).
    ///
    /// Must satisfy `upper_bound_corners(lo, hi) >= score(t)` for every `t`
    /// in the box **as an exact `f64` comparison** — block pruning skips
    /// blocks whose bound falls below a threshold, and only an exact bound
    /// makes that behaviour-preserving. The default materialises a [`Rect`]
    /// and delegates to [`upper_bound`](ScoreFn::upper_bound);
    /// implementations override it allocation-free, accumulating over the
    /// corner in the same operation order as `score` (which yields exactness
    /// by the monotonicity of IEEE-754 rounding; see [`crate::kernels`]).
    fn upper_bound_corners(&self, lo: &[f64], hi: &[f64]) -> f64 {
        self.upper_bound(&Rect::new(lo.to_vec(), hi.to_vec()))
    }
}

/// Monotone weighted-sum scoring: `f(t) = Σ w_d · t_d`.
///
/// This is the classic top-k aggregation (e.g. the paper's "best all-around
/// NBA players" query). With non-negative weights it is monotone, hence
/// unimodal over a box, and `f⁺` is attained at the upper corner.
#[derive(Clone, Debug)]
pub struct LinearScore {
    weights: Box<[f64]>,
}

impl LinearScore {
    /// Creates a weighted-sum score.
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is negative or non-finite.
    pub fn new(weights: impl Into<Vec<f64>>) -> Self {
        let weights: Vec<f64> = weights.into();
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        Self {
            weights: weights.into_boxed_slice(),
        }
    }

    /// Equal weights summing over `dims` attributes.
    pub fn uniform(dims: usize) -> Self {
        Self::new(vec![1.0; dims])
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl ScoreFn for LinearScore {
    fn score(&self, p: &Point) -> f64 {
        debug_assert_eq!(p.dims(), self.weights.len());
        (0..p.dims()).map(|d| self.weights[d] * p.coord(d)).sum()
    }

    fn upper_bound(&self, r: &Rect) -> f64 {
        // Monotone increasing: the best point of a box is its upper corner.
        self.score(r.hi())
    }

    fn peak_point(&self) -> Option<Point> {
        // Monotone increasing over the unit cube: maximal at the top corner.
        Some(Point::splat(self.weights.len(), 1.0))
    }

    fn cache_key(&self) -> Option<u64> {
        Some(score_cache_key(
            0x4c_49_4e, // "LIN"
            self.weights.iter().map(|w| w.to_bits()),
        ))
    }

    fn score_block(&self, cols: &[&[f64]], out: &mut Vec<f64>, dispatch: KernelDispatch) {
        kernels::score_linear(dispatch, &self.weights, cols, out);
    }

    fn upper_bound_corners(&self, _lo: &[f64], hi: &[f64]) -> f64 {
        // Same accumulation order as `score` over the upper corner, so the
        // bound dominates every in-box score exactly (monotone weights,
        // monotone fp rounding) and equals `upper_bound(&rect)` bit-for-bit.
        debug_assert_eq!(hi.len(), self.weights.len());
        self.weights.iter().zip(hi).map(|(w, x)| w * x).sum()
    }
}

/// Unimodal "peak" scoring: `f(t) = -dist(t, peak)` under a norm.
///
/// Scores are ≤ 0 with the unique maximum 0 at the peak; this exercises the
/// general unimodal case of Section 4 (nearest-neighbour-flavoured top-k).
#[derive(Clone, Debug)]
pub struct PeakScore {
    peak: Point,
    norm: Norm,
}

impl PeakScore {
    /// Creates a peak score centred at `peak`.
    pub fn new(peak: impl Into<Point>, norm: Norm) -> Self {
        Self {
            peak: peak.into(),
            norm,
        }
    }

    /// The location of the unique maximum.
    pub fn peak(&self) -> &Point {
        &self.peak
    }
}

impl ScoreFn for PeakScore {
    fn score(&self, p: &Point) -> f64 {
        -self.norm.dist(p, &self.peak)
    }

    fn upper_bound(&self, r: &Rect) -> f64 {
        -self.norm.min_dist(r, &self.peak)
    }

    fn peak_point(&self) -> Option<Point> {
        Some(self.peak.clone())
    }

    fn cache_key(&self) -> Option<u64> {
        let norm_tag = match self.norm {
            Norm::L1 => 1u64,
            Norm::L2 => 2,
            Norm::Linf => 3,
        };
        Some(score_cache_key(
            0x50_45_41_4b, // "PEAK"
            std::iter::once(norm_tag).chain(self.peak.coords().iter().map(|c| c.to_bits())),
        ))
    }

    fn score_block(&self, cols: &[&[f64]], out: &mut Vec<f64>, dispatch: KernelDispatch) {
        kernels::score_peak(dispatch, self.norm, self.peak.coords(), cols, out);
    }

    fn upper_bound_corners(&self, lo: &[f64], hi: &[f64]) -> f64 {
        // The nearest box point to the peak is the coordinate-wise clamp
        // (exactly `Rect::nearest_point`); accumulate its distance in the
        // same order as `Norm::dist`, so the bound matches
        // `upper_bound(&rect)` bit-for-bit and dominates every in-box score
        // exactly (|clamp(p) − p| ≤ |x − p| per dimension, and every fp step
        // afterwards is monotone).
        let peak = self.peak.coords();
        debug_assert!(lo.len() == peak.len() && hi.len() == peak.len());
        let diffs = (0..peak.len()).map(|d| peak[d].clamp(lo[d], hi[d]) - peak[d]);
        -match self.norm {
            Norm::L1 => diffs.map(f64::abs).sum(),
            Norm::L2 => diffs.map(|x| x.powi(2)).sum::<f64>().sqrt(),
            Norm::Linf => diffs.map(f64::abs).fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_score_and_bound() {
        let f = LinearScore::new(vec![1.0, 2.0]);
        let p = Point::new(vec![0.5, 0.25]);
        assert!((f.score(&p) - 1.0).abs() < 1e-12);
        let r = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        assert!((f.upper_bound(&r) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn linear_bound_dominates_scores() {
        let f = LinearScore::new(vec![0.3, 0.7, 1.1]);
        let r = Rect::new(vec![0.1, 0.2, 0.3], vec![0.4, 0.6, 0.9]);
        for t in [
            Point::new(vec![0.1, 0.2, 0.3]),
            Point::new(vec![0.4, 0.6, 0.9]),
            Point::new(vec![0.2, 0.5, 0.5]),
        ] {
            assert!(f.upper_bound(&r) >= f.score(&t) - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = LinearScore::new(vec![1.0, -1.0]);
    }

    #[test]
    fn peak_score_max_at_peak() {
        let f = PeakScore::new(vec![0.5, 0.5], Norm::L2);
        assert_eq!(f.score(&Point::new(vec![0.5, 0.5])), 0.0);
        assert!(f.score(&Point::new(vec![0.0, 0.0])) < 0.0);
    }

    #[test]
    fn peak_bound_dominates_scores() {
        let f = PeakScore::new(vec![0.9, 0.1], Norm::L1);
        let r = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let ub = f.upper_bound(&r);
        for t in [
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![0.5, 0.1]),
            Point::new(vec![0.25, 0.5]),
        ] {
            assert!(ub >= f.score(&t) - 1e-12);
        }
        // peak inside region ⇒ bound is 0
        let r2 = Rect::new(vec![0.8, 0.0], vec![1.0, 0.2]);
        assert_eq!(f.upper_bound(&r2), 0.0);
    }

    #[test]
    fn cache_keys_identify_parameters() {
        let a = LinearScore::new(vec![1.0, 2.0]);
        let b = LinearScore::new(vec![1.0, 2.0]);
        let c = LinearScore::new(vec![2.0, 1.0]);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert!(a.cache_key().is_some());

        let p = PeakScore::new(vec![0.5, 0.5], Norm::L1);
        let q = PeakScore::new(vec![0.5, 0.5], Norm::L1);
        let r = PeakScore::new(vec![0.5, 0.5], Norm::L2);
        assert_eq!(p.cache_key(), q.cache_key());
        assert_ne!(p.cache_key(), r.cache_key());
        // Different families never collide on shared parameters.
        assert_ne!(a.cache_key(), p.cache_key());
    }

    #[test]
    fn uniform_weights() {
        let f = LinearScore::uniform(4);
        assert_eq!(f.weights(), &[1.0; 4]);
        assert!((f.score(&Point::splat(4, 0.5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn corner_bounds_match_rect_bounds_bitwise() {
        let lo = [0.1, 0.25, 0.0];
        let hi = [0.4, 0.8, 0.3];
        let r = Rect::new(lo.to_vec(), hi.to_vec());
        let lin = LinearScore::new(vec![0.3, 0.7, 1.1]);
        assert_eq!(
            lin.upper_bound_corners(&lo, &hi).to_bits(),
            lin.upper_bound(&r).to_bits()
        );
        for norm in [Norm::L1, Norm::L2, Norm::Linf] {
            let peak = PeakScore::new(vec![0.9, 0.1, 0.15], norm);
            assert_eq!(
                peak.upper_bound_corners(&lo, &hi).to_bits(),
                peak.upper_bound(&r).to_bits(),
                "{norm:?}"
            );
        }
    }

    #[test]
    fn default_score_block_gathers_and_matches_scalar() {
        /// A score family with no kernel override: exercises the default
        /// gather-based `score_block` and the default `upper_bound_corners`.
        struct Product;
        impl ScoreFn for Product {
            fn score(&self, p: &Point) -> f64 {
                p.coords().iter().product()
            }
            fn upper_bound(&self, r: &Rect) -> f64 {
                self.score(r.hi()).max(self.score(r.lo()))
            }
        }
        let cols: [&[f64]; 2] = [&[0.5, 0.25, 1.0], &[0.5, 2.0, 0.125]];
        let mut out = Vec::new();
        Product.score_block(&cols, &mut out, KernelDispatch::Auto);
        assert_eq!(out, vec![0.25, 0.5, 0.125]);
        let ub = Product.upper_bound_corners(&[0.25, 0.125], &[1.0, 2.0]);
        assert_eq!(ub, 2.0);
    }
}
