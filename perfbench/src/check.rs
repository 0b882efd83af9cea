//! Output checks: the benchmark's own copy of the live dataset, the
//! centralized reference answers over it, and certificate verification.
//! Nothing here runs inside a timed span.

use crate::trace::Outcome;
use ripple_core::skyline::centralized_skyline;
use ripple_core::topk::centralized_topk;
use ripple_core::Coverage;
use ripple_geom::{PeakScore, Rect, ScoreFn, Tuple, TupleId};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::Rng;
use ripple_verify::{verify_coverage, verify_skyline, verify_topk, Certificate};
use std::collections::{HashMap, HashSet};

/// The live dataset as the benchmark believes it to be: every tuple loaded
/// or inserted and not yet deleted.
#[derive(Clone)]
pub struct LiveCopy {
    tuples: Vec<Tuple>,
    pos: HashMap<TupleId, usize>,
}

impl LiveCopy {
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let pos = tuples.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        Self { tuples, pos }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub fn insert(&mut self, batch: &[Tuple]) {
        for t in batch {
            let old = self.pos.insert(t.id, self.tuples.len());
            assert!(old.is_none(), "inserted id {} is already live", t.id);
            self.tuples.push(t.clone());
        }
    }

    /// Removes the listed ids; returns how many were live.
    pub fn delete(&mut self, ids: &[TupleId]) -> usize {
        let mut removed = 0;
        for id in ids {
            if let Some(i) = self.pos.remove(id) {
                self.tuples.swap_remove(i);
                if i < self.tuples.len() {
                    self.pos.insert(self.tuples[i].id, i);
                }
                removed += 1;
            }
        }
        removed
    }

    /// `n` distinct live ids drawn uniformly.
    pub fn random_ids(&self, n: usize, rng: &mut SmallRng) -> Vec<TupleId> {
        let n = n.min(self.tuples.len());
        let mut seen = HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = self.tuples[rng.gen_range(0..self.tuples.len())].id;
            if seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }
}

/// Centralized reference answers over one snapshot of the dataset. The
/// tuples are bucketed into a uniform grid over the unit cube, so a box
/// query reads only the cells it overlaps.
pub struct Oracle {
    tuples: Vec<Tuple>,
    dims: usize,
    /// Cells per dimension.
    side: usize,
    /// Tuple indices per cell, cell `c` holding coordinates whose cell
    /// coordinates spell `c` in base `side`.
    cells: Vec<Vec<u32>>,
}

/// Tuples per grid cell the oracle aims for.
const PER_CELL: usize = 4;

impl Oracle {
    pub fn new(tuples: &[Tuple]) -> Self {
        let dims = tuples.first().map_or(1, Tuple::dims);
        let target = (tuples.len() / PER_CELL).max(1) as f64;
        let side = (target.powf(1.0 / dims as f64).floor() as usize).max(1);
        let mut cells = vec![Vec::new(); side.pow(dims as u32)];
        for (i, t) in tuples.iter().enumerate() {
            let c = t
                .point
                .coords()
                .iter()
                .fold(0, |acc, &x| acc * side + Self::cell_of(x, side));
            cells[c].push(i as u32);
        }
        Self {
            tuples: tuples.to_vec(),
            dims,
            side,
            cells,
        }
    }

    fn cell_of(x: f64, side: usize) -> usize {
        ((x * side as f64).floor().max(0.0) as usize).min(side - 1)
    }

    /// The tuples in cells overlapping the box `[lo, hi]`.
    fn in_box(&self, lo: &[f64], hi: &[f64]) -> impl Iterator<Item = &Tuple> {
        let first: Vec<usize> = lo.iter().map(|&x| Self::cell_of(x, self.side)).collect();
        let last: Vec<usize> = hi.iter().map(|&x| Self::cell_of(x, self.side)).collect();
        let mut at = first.clone();
        let mut ids: Vec<u32> = Vec::new();
        loop {
            let c = at.iter().fold(0, |acc, &x| acc * self.side + x);
            ids.extend(&self.cells[c]);
            // Odometer over the cell ranges, last dimension fastest.
            let mut d = self.dims;
            loop {
                if d == 0 {
                    return ids.into_iter().map(move |i| &self.tuples[i as usize]);
                }
                d -= 1;
                if at[d] < last[d] {
                    at[d] += 1;
                    break;
                }
                at[d] = first[d];
            }
        }
    }

    /// `centralized_topk` over the whole snapshot. It is evaluated over the
    /// tuples scoring at least the claimed answer's `k`-th score, which
    /// holds the true top `k` whenever the claim could be right (a claim
    /// whose `k`-th score is too high leaves fewer than `k` candidates and
    /// so disagrees with the result).
    pub fn topk(&self, score: &PeakScore, k: usize, claimed: &[Tuple]) -> Vec<Tuple> {
        if claimed.len() < k {
            return centralized_topk(&self.tuples, score, k);
        }
        let tau = score.score(&claimed[k - 1].point);
        // score >= tau means distance <= -tau, and no coordinate gap
        // exceeds the distance under any norm; the margin absorbs rounding.
        let reach = -tau * (1.0 + 1e-9) + 1e-12;
        let p = score.peak().coords();
        let lo: Vec<f64> = p.iter().map(|x| x - reach).collect();
        let hi: Vec<f64> = p.iter().map(|x| x + reach).collect();
        let candidates: Vec<Tuple> = self
            .in_box(&lo, &hi)
            .filter(|t| score.score(&t.point) >= tau)
            .cloned()
            .collect();
        centralized_topk(&candidates, score, k)
    }

    /// `centralized_skyline` of the snapshot's tuples inside `constraint`.
    pub fn skyline(&self, constraint: &Rect) -> Vec<Tuple> {
        let inside: Vec<Tuple> = self
            .in_box(constraint.lo().coords(), constraint.hi().coords())
            .filter(|t| constraint.contains(&t.point))
            .cloned()
            .collect();
        centralized_skyline(&inside)
    }
}

/// The parts of an outcome the output checks read: answers, coverage and
/// certificate.
#[derive(Clone, Copy)]
pub struct Checked<'a>(
    pub &'a [Tuple],
    pub &'a Coverage,
    pub Option<&'a Certificate>,
);

impl<'a> Checked<'a> {
    pub fn of(out: &'a Outcome) -> Self {
        Self(&out.0, &out.2, out.3.as_ref())
    }
}

/// Checks a top-k outcome: certificate, coverage and the reference answer.
pub fn check_topk(
    out: Checked<'_>,
    score: &PeakScore,
    k: usize,
    generation: u64,
    oracle: &Oracle,
) -> Result<(), String> {
    let Checked(answers, coverage, cert) = out;
    let cert = cert.ok_or("top-k outcome without a certificate")?;
    verify_topk(cert, answers, score, k, generation)
        .map_err(|e| format!("top-k certificate rejected: {e:?}"))?;
    check_coverage(cert, coverage)?;
    if answers != oracle.topk(score, k, answers) {
        return Err(format!(
            "top-k answer at peak {:?} differs from centralized_topk",
            score.peak()
        ));
    }
    Ok(())
}

/// Checks a constrained skyline outcome the same way.
pub fn check_skyline(
    out: Checked<'_>,
    constraint: &Rect,
    generation: u64,
    oracle: &Oracle,
) -> Result<(), String> {
    let Checked(answers, coverage, cert) = out;
    let cert = cert.ok_or("skyline outcome without a certificate")?;
    verify_skyline(cert, answers, Some(constraint), generation)
        .map_err(|e| format!("skyline certificate rejected: {e:?}"))?;
    check_coverage(cert, coverage)?;
    if answers != oracle.skyline(constraint) {
        return Err(format!(
            "skyline answer in {constraint:?} differs from centralized_skyline"
        ));
    }
    Ok(())
}

fn check_coverage(cert: &Certificate, coverage: &Coverage) -> Result<(), String> {
    verify_coverage(cert, coverage.answered_fraction, &coverage.unreachable)
        .map_err(|e| format!("coverage rejected: {e:?}"))?;
    if !coverage.is_complete() {
        return Err(format!(
            "incomplete coverage: {}",
            coverage.answered_fraction
        ));
    }
    Ok(())
}

/// Checks that a traced outcome is identical to its untraced twin: answers,
/// ledger, coverage and certificate, plus the scan counters that ledger
/// equality leaves out.
pub fn check_twin(untraced: &Outcome, traced: &Outcome) -> Result<(), String> {
    let (ua, um, uc, ucert) = untraced;
    let (ta, tm, tc, tcert) = traced;
    if ua != ta {
        return Err("traced answers differ from untraced".into());
    }
    if um != tm {
        return Err("traced ledger differs from untraced".into());
    }
    if (um.tuples_scanned, um.blocks_pruned) != (tm.tuples_scanned, tm.blocks_pruned) {
        return Err("traced scan counters differ from untraced".into());
    }
    if uc != tc || ucert != tcert {
        return Err("traced coverage or certificate differs from untraced".into());
    }
    Ok(())
}
