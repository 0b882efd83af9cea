//! Property-based invariants of the geometric foundations.
//!
//! `ripple-geom` is dependency-free (it sits below `ripple-net`, home of the
//! workspace RNG), so these tests drive their case generation with a local
//! splitmix64 — 128 seeded cases per property, fully deterministic.

use ripple_geom::kdspace::BitPath;
use ripple_geom::zorder::ZCurve;
use ripple_geom::{dominance, Norm, Point, Rect, Skyline, Tuple};

/// Minimal deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Coordinate on the 1/1000 grid (matches the old proptest strategy).
    fn coord(&mut self) -> f64 {
        (self.next_u64() % 1001) as f64 / 1000.0
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn point(&mut self, dims: usize) -> Point {
        Point::new((0..dims).map(|_| self.coord()).collect::<Vec<_>>())
    }

    fn rect(&mut self, dims: usize) -> Rect {
        let a = self.point(dims);
        let b = self.point(dims);
        let lo: Vec<f64> = (0..dims).map(|d| a.coord(d).min(b.coord(d))).collect();
        let hi: Vec<f64> = (0..dims).map(|d| a.coord(d).max(b.coord(d))).collect();
        Rect::new(lo, hi)
    }

    fn bools(&mut self, max_len: usize) -> Vec<bool> {
        let len = (self.next_u64() as usize) % max_len.max(1);
        (0..len).map(|_| self.next_u64() & 1 == 1).collect()
    }
}

const CASES: u64 = 128;

/// All three norms satisfy the metric axioms on sampled triples.
#[test]
fn norms_are_metrics() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (a, b, c) = (g.point(4), g.point(4), g.point(4));
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            assert!(n.dist(&a, &b) >= 0.0);
            assert!((n.dist(&a, &b) - n.dist(&b, &a)).abs() < 1e-12);
            assert!(n.dist(&a, &a) < 1e-12);
            assert!(n.dist(&a, &c) <= n.dist(&a, &b) + n.dist(&b, &c) + 1e-9);
        }
    }
}

/// min_dist and max_dist bracket the distance to any point of the box.
#[test]
fn rect_distances_bracket() {
    for seed in 0..CASES {
        let mut g = Gen::new(1000 + seed);
        let r = g.rect(3);
        let q = g.point(3);
        let inside = r.nearest_point(&g.point(3));
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            let d = n.dist(&inside, &q);
            assert!(n.min_dist(&r, &q) <= d + 1e-9);
            assert!(n.max_dist(&r, &q) >= d - 1e-9);
        }
    }
}

/// Rect intersection is commutative and contained in both operands.
#[test]
fn rect_intersection_properties() {
    for seed in 0..CASES {
        let mut g = Gen::new(2000 + seed);
        let a = g.rect(3);
        let b = g.rect(3);
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                assert_eq!(x, y);
                assert!(a.contains_rect(&x));
                assert!(b.contains_rect(&x));
            }
            (None, None) => {}
            _ => panic!("intersection must be symmetric"),
        }
    }
}

/// Splitting and key-containment partition exactly.
#[test]
fn split_partitions_keys() {
    for seed in 0..CASES {
        let mut g = Gen::new(3000 + seed);
        let r = g.rect(2);
        if r.volume() == 0.0 {
            continue;
        }
        let t = g.coord();
        let dim = usize::from(t >= 0.5);
        let value = r.lo().coord(dim) + (r.hi().coord(dim) - r.lo().coord(dim)) * t;
        let (a, b) = r.split_at(dim, value);
        let keys: Vec<Point> = (0..g.usize_in(1, 20)).map(|_| g.point(2)).collect();
        for k in &keys {
            if r.contains_key(k) {
                assert!(a.contains_key(k) ^ b.contains_key(k));
            } else {
                assert!(!a.contains_key(k) && !b.contains_key(k));
            }
        }
    }
}

/// `skyline_insert` always equals a fresh skyline of the union.
#[test]
fn skyline_insert_equivalence() {
    for seed in 0..CASES {
        let mut g = Gen::new(4000 + seed);
        let base_tuples: Vec<Tuple> = (0..g.usize_in(0, 30))
            .map(|i| Tuple::new(i as u64, g.point(3)))
            .collect();
        let add_tuples: Vec<Tuple> = (0..g.usize_in(0, 10))
            .map(|i| Tuple::new(1000 + i as u64, g.point(3)))
            .collect();
        let base_sky = dominance::skyline(&base_tuples);
        let merged = dominance::skyline_insert(base_sky, &add_tuples);
        let mut union = base_tuples;
        union.extend(add_tuples);
        let direct = dominance::skyline(&union);
        assert_eq!(merged.len(), direct.len());
        for m in &merged {
            assert!(direct.iter().any(|d| d.point == m.point));
        }
    }
}

/// The two-filter, all-pairs skyline merge, written out as the reference
/// for [`Skyline::union`]: sort `add` by `(coordinate sum, id)` and thin it
/// by SFS, keep the `base` members no addition dominates (in `base` order),
/// then append each thinned addition that no kept member dominates or
/// equals.
fn union_reference(base: &[Tuple], add: &[Tuple]) -> Vec<Tuple> {
    if add.is_empty() {
        return base.to_vec();
    }
    let add_sky = sfs_reference(add);
    let mut out: Vec<Tuple> = base
        .iter()
        .filter(|b| {
            !add_sky
                .iter()
                .any(|a| dominance::dominates(&a.point, &b.point))
        })
        .cloned()
        .collect();
    for a in add_sky {
        if !out
            .iter()
            .any(|b| dominance::dominates(&b.point, &a.point) || b.point == a.point)
        {
            out.push(a);
        }
    }
    out
}

/// Sort-filter-skyline with the comparator recomputing both sums.
fn sfs_reference(tuples: &[Tuple]) -> Vec<Tuple> {
    let sum = |t: &Tuple| -> f64 { t.point.coords().iter().sum() };
    let mut order: Vec<&Tuple> = tuples.iter().collect();
    order.sort_by(|a, b| sum(a).total_cmp(&sum(b)).then_with(|| a.id.cmp(&b.id)));
    let mut sky: Vec<Tuple> = Vec::new();
    for t in order {
        if !sky
            .iter()
            .any(|s| dominance::dominates(&s.point, &t.point) || s.point == t.point)
        {
            sky.push(t.clone());
        }
    }
    sky
}

/// `Skyline::union` is member-for-member and in order the two-filter
/// reference, and `Skyline::of` is `dominance::skyline`. Coordinates sit on
/// coarse grids, so sum ties, exact duplicates (within and across sides)
/// and equal-sum distinct points all occur; both sides are also built by
/// unions, so they arrive in non-canonical order; dims 2–9 cover both sides
/// of the 8-dimension SIMD cutover in the dominance kernel.
#[test]
fn skyline_union_equals_reference() {
    for seed in 0..400 {
        let mut g = Gen::new(9000 + seed);
        let dims = g.usize_in(2, 10);
        let grid = [2, 4, 8][g.usize_in(0, 3)] as f64;
        let mut next_id = 0u64;
        let mut pool: Vec<Tuple> = Vec::new();
        let mut part = |g: &mut Gen| -> Vec<Tuple> {
            (0..g.usize_in(0, 25))
                .map(|_| {
                    next_id += 1;
                    if !pool.is_empty() && g.usize_in(0, 5) == 0 {
                        // An exact duplicate of an earlier tuple, new id.
                        let p = pool[g.usize_in(0, pool.len())].point.clone();
                        return Tuple::new(next_id, p);
                    }
                    let c: Vec<f64> = (0..dims)
                        .map(|_| (g.next_u64() % (grid as u64 + 1)) as f64 / grid)
                        .collect();
                    let t = Tuple::new(next_id, c);
                    pool.push(t.clone());
                    t
                })
                .collect()
        };
        let (b1, b2, a1, a2) = (part(&mut g), part(&mut g), part(&mut g), part(&mut g));
        for x in [&b1, &b2, &a1, &a2] {
            let sky = Skyline::of(x);
            assert_eq!(&sky[..], &dominance::skyline(x)[..], "seed {seed}");
            assert_eq!(&sky[..], &sfs_reference(x)[..], "seed {seed}");
        }
        let base = Skyline::of(&b1).union(&Skyline::of(&b2));
        let add = Skyline::of(&a1).union(&Skyline::of(&a2));
        assert_eq!(
            &base[..],
            &union_reference(&Skyline::of(&b1), &Skyline::of(&b2))[..],
            "seed {seed}"
        );
        for b in [&base, &Skyline::default()] {
            for a in [&add, &Skyline::of(&a1), &Skyline::default()] {
                assert_eq!(&b.union(a)[..], &union_reference(b, a)[..], "seed {seed}");
            }
        }
    }
}

/// Dominance is a strict partial order: irreflexive, asymmetric, transitive.
#[test]
fn dominance_is_strict_partial_order() {
    for seed in 0..CASES {
        let mut g = Gen::new(5000 + seed);
        let (a, b, c) = (g.point(3), g.point(3), g.point(3));
        assert!(!dominance::dominates(&a, &a));
        if dominance::dominates(&a, &b) {
            assert!(!dominance::dominates(&b, &a));
        }
        if dominance::dominates(&a, &b) && dominance::dominates(&b, &c) {
            assert!(dominance::dominates(&a, &c));
        }
    }
}

/// Z-encoding maps every point into the rect of any cell that covers its
/// z-value.
#[test]
fn zcurve_point_in_covering_cell() {
    for seed in 0..CASES {
        let mut g = Gen::new(6000 + seed);
        let p = g.point(2);
        let curve = ZCurve::new(2, 6);
        let z = curve.encode(&p);
        let cells = curve.interval_to_cells(z, z);
        assert_eq!(cells.len(), 1);
        assert!(curve.cell_rect(&cells[0]).contains_key(&p));
    }
}

/// BitPath: prefix ordering agrees with aligned-range containment.
#[test]
fn bitpath_prefix_vs_aligned() {
    for seed in 0..CASES {
        let mut g = Gen::new(7000 + seed);
        let a = BitPath::from_bits(&g.bools(16));
        let b = BitPath::from_bits(&g.bools(16));
        let range_contains = a.aligned() <= b.aligned()
            && b.aligned() <= a.aligned() | a.aligned_suffix_mask()
            && a.len() <= b.len();
        assert_eq!(a.is_prefix_of(&b), range_contains);
    }
}

/// Zone volumes halve with depth (midpoint splits).
#[test]
fn bitpath_volume_by_depth() {
    for seed in 0..CASES {
        let mut g = Gen::new(8000 + seed);
        let p = BitPath::from_bits(&g.bools(20));
        let vol = p.rect(4).volume();
        let expect = 0.5f64.powi(p.len() as i32);
        assert!((vol - expect).abs() < 1e-12);
    }
}
