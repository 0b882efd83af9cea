//! Axis-aligned rectangles (boxes) over the unit cube.
//!
//! Rectangles serve three roles in RIPPLE (Section 3.1):
//! * a peer's **zone** — the sub-area of the domain whose tuples it stores;
//! * a link's **region** — the (much larger) area a peer delegates to that
//!   neighbor, which always contains the neighbor's zone;
//! * the **restriction area** `R` threaded through query propagation so that
//!   no peer receives the same request twice.
//!
//! A rectangle is the half-open-by-convention box `[lo, hi]`; we treat it as
//! closed for geometric predicates (distances, dominance) and rely on the
//! exact binary splits of the overlays to keep zones disjoint.

use crate::point::Point;

/// An axis-aligned box `[lo, hi]` in d dimensions.
#[derive(Clone, PartialEq, Debug)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners disagree on dimensionality or `lo > hi` on some
    /// dimension.
    pub fn new(lo: impl Into<Point>, hi: impl Into<Point>) -> Self {
        let (lo, hi) = (lo.into(), hi.into());
        assert_eq!(lo.dims(), hi.dims(), "corner dimensionality mismatch");
        for d in 0..lo.dims() {
            assert!(
                lo.coord(d) <= hi.coord(d),
                "lo must not exceed hi on dimension {d}"
            );
        }
        Self { lo, hi }
    }

    /// The whole `[0,1]^d` domain.
    pub fn unit(dims: usize) -> Self {
        Self::new(Point::origin(dims), Point::splat(dims, 1.0))
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.dims()
    }

    /// Lower corner (the "best" corner when lower values are better).
    #[inline]
    pub fn lo(&self) -> &Point {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &Point {
        &self.hi
    }

    /// Extent along dimension `d`.
    #[inline]
    pub fn side(&self, d: usize) -> f64 {
        self.hi.coord(d) - self.lo.coord(d)
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.side(d)).product()
    }

    /// True if `p` lies inside the box (closed on all faces).
    pub fn contains(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        (0..self.dims()).all(|d| self.lo.coord(d) <= p.coord(d) && p.coord(d) <= self.hi.coord(d))
    }

    /// True if `p` lies inside the box under half-open semantics
    /// (`lo <= p < hi`), except that the domain's upper boundary is included.
    ///
    /// This is the predicate used for key → zone responsibility so that
    /// sibling zones produced by binary splits never both claim a key.
    pub fn contains_key(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        (0..self.dims()).all(|d| {
            let (l, h, c) = (self.lo.coord(d), self.hi.coord(d), p.coord(d));
            l <= c && (c < h || (c <= h && h == 1.0))
        })
    }

    /// True if `other` is fully inside `self` (closed semantics).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(&other.lo) && self.contains(&other.hi)
    }

    /// True if the two boxes overlap in a set of positive measure on every
    /// dimension — touching at a face does not count. Used when deciding
    /// whether a link's region intersects a restriction area.
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        (0..self.dims())
            .all(|d| self.lo.coord(d) < other.hi.coord(d) && other.lo.coord(d) < self.hi.coord(d))
    }

    /// Intersection of the two boxes, or `None` if it has zero measure.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        // The nested case (every MIDAS link region inside its restriction
        // area) shares `self`'s coordinates instead of allocating new ones.
        if other.contains_rect(self) {
            return Some(self.clone());
        }
        let lo: Vec<f64> = (0..self.dims())
            .map(|d| self.lo.coord(d).max(other.lo.coord(d)))
            .collect();
        let hi: Vec<f64> = (0..self.dims())
            .map(|d| self.hi.coord(d).min(other.hi.coord(d)))
            .collect();
        Some(Rect::new(lo, hi))
    }

    /// Splits the box at the midpoint of dimension `dim`, returning the
    /// (lower, upper) halves. This is the split rule used by the MIDAS
    /// virtual k-d tree and by our CAN implementation.
    pub fn split_mid(&self, dim: usize) -> (Rect, Rect) {
        let mid = 0.5 * (self.lo.coord(dim) + self.hi.coord(dim));
        self.split_at(dim, mid)
    }

    /// Splits the box at `value` along dimension `dim`.
    ///
    /// # Panics
    /// Panics if `value` is outside the box's extent on `dim`.
    pub fn split_at(&self, dim: usize, value: f64) -> (Rect, Rect) {
        assert!(
            self.lo.coord(dim) <= value && value <= self.hi.coord(dim),
            "split value outside rect"
        );
        let mut left_hi = self.hi.coords().to_vec();
        left_hi[dim] = value;
        let mut right_lo = self.lo.coords().to_vec();
        right_lo[dim] = value;
        (
            Rect::new(self.lo.clone(), left_hi),
            Rect::new(right_lo, self.hi.clone()),
        )
    }

    /// True if the two boxes are *face-adjacent* in the CAN sense: their
    /// spans overlap with positive measure in `d − 1` dimensions and abut
    /// (touch without overlapping) in exactly one.
    pub fn abuts(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        let mut touching_dims = 0;
        for d in 0..self.dims() {
            let overlap_lo = self.lo.coord(d).max(other.lo.coord(d));
            let overlap_hi = self.hi.coord(d).min(other.hi.coord(d));
            if overlap_lo < overlap_hi {
                continue; // positive overlap on this dimension
            }
            if overlap_lo == overlap_hi {
                touching_dims += 1; // spans touch at a single value
            } else {
                return false; // separated on this dimension
            }
        }
        touching_dims == 1
    }

    /// The point of the box closest to `p` (coordinate-wise clamp).
    pub fn nearest_point(&self, p: &Point) -> Point {
        Point::new(
            (0..self.dims())
                .map(|d| p.coord(d).clamp(self.lo.coord(d), self.hi.coord(d)))
                .collect::<Vec<_>>(),
        )
    }

    /// The point of the box farthest from `p` (coordinate-wise farthest end).
    pub fn farthest_point(&self, p: &Point) -> Point {
        Point::new(
            (0..self.dims())
                .map(|d| {
                    let (l, h, c) = (self.lo.coord(d), self.hi.coord(d), p.coord(d));
                    if (c - l).abs() >= (c - h).abs() {
                        l
                    } else {
                        h
                    }
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Center of the box.
    pub fn center(&self) -> Point {
        Point::new(
            (0..self.dims())
                .map(|d| 0.5 * (self.lo.coord(d) + self.hi.coord(d)))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn unit_cube() {
        let u = Rect::unit(3);
        assert_eq!(u.volume(), 1.0);
        assert!(u.contains(&Point::splat(3, 0.5)));
        assert!(u.contains(&Point::origin(3)));
        assert!(u.contains(&Point::splat(3, 1.0)));
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn inverted_rect_rejected() {
        let _ = r(&[0.5], &[0.25]);
    }

    #[test]
    fn containment_and_keys() {
        let b = r(&[0.0, 0.0], &[0.5, 0.5]);
        assert!(b.contains(&Point::new(vec![0.5, 0.5])));
        // half-open: the shared face belongs to the upper sibling
        assert!(!b.contains_key(&Point::new(vec![0.5, 0.25])));
        assert!(b.contains_key(&Point::new(vec![0.25, 0.25])));
        // ...except on the domain boundary
        let top = r(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(top.contains_key(&Point::new(vec![1.0, 1.0])));
    }

    #[test]
    fn split_keys_partition() {
        let u = Rect::unit(2);
        let (a, b) = u.split_mid(0);
        for p in [
            Point::new(vec![0.5, 0.3]),
            Point::new(vec![0.49, 0.3]),
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
        ] {
            let ina = a.contains_key(&p);
            let inb = b.contains_key(&p);
            assert!(ina ^ inb, "{p:?} must be claimed by exactly one half");
        }
    }

    #[test]
    fn intersections() {
        let a = r(&[0.0, 0.0], &[0.5, 0.5]);
        let b = r(&[0.25, 0.25], &[1.0, 1.0]);
        let c = r(&[0.5, 0.0], &[1.0, 0.5]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c), "face contact is not an intersection");
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(&[0.25, 0.25], &[0.5, 0.5]));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn split_mid_halves() {
        let u = Rect::unit(2);
        let (l, h) = u.split_mid(1);
        assert_eq!(l, r(&[0.0, 0.0], &[1.0, 0.5]));
        assert_eq!(h, r(&[0.0, 0.5], &[1.0, 1.0]));
        assert!((l.volume() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn abutting_zones() {
        let a = r(&[0.0, 0.0], &[0.5, 0.5]);
        let right = r(&[0.5, 0.0], &[1.0, 0.5]);
        let above = r(&[0.0, 0.5], &[0.5, 1.0]);
        let corner = r(&[0.5, 0.5], &[1.0, 1.0]);
        let far = r(&[0.6, 0.0], &[1.0, 0.5]);
        assert!(a.abuts(&right));
        assert!(right.abuts(&a), "adjacency is symmetric");
        assert!(a.abuts(&above));
        assert!(!a.abuts(&corner), "corner contact is not adjacency");
        assert!(!a.abuts(&far));
        assert!(!a.abuts(&a), "a zone is not its own neighbor");
        // partial face overlap still counts
        let partial = r(&[0.5, 0.25], &[0.75, 0.75]);
        assert!(a.abuts(&partial));
    }

    #[test]
    fn nearest_farthest() {
        let b = r(&[0.2, 0.2], &[0.4, 0.4]);
        let q = Point::new(vec![0.0, 0.25]);
        assert_eq!(b.nearest_point(&q), Point::new(vec![0.2, 0.25]));
        assert_eq!(b.farthest_point(&q), Point::new(vec![0.4, 0.4]));
        // inside point is its own nearest
        let inside = Point::new(vec![0.3, 0.3]);
        assert_eq!(b.nearest_point(&inside), inside);
    }

    #[test]
    fn center_and_volume() {
        let b = r(&[0.0, 0.5], &[0.5, 1.0]);
        assert_eq!(b.center(), Point::new(vec![0.25, 0.75]));
        assert!((b.volume() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn contains_rect_checks_both_corners() {
        let outer = r(&[0.0, 0.0], &[1.0, 1.0]);
        let inner = r(&[0.2, 0.2], &[0.8, 0.8]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
    }
}
