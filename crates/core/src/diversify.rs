//! k-diversification over RIPPLE (Section 6) — the first distributed
//! solution to this problem.
//!
//! Two layers:
//!
//! * [`SingleTupleQuery`] — the *single tuple diversification query*
//!   (Algorithms 16–21): given the query point and a set `O`, find the tuple
//!   `t ∉ O` minimizing the insertion score `φ` (Eq. 3). The abstract state
//!   is the threshold `τ` (best `φ` seen so far); region pruning uses the
//!   lower bound `φ⁻`.
//! * [`diversify`] / [`div_improve`] — the greedy wrapper (Algorithms
//!   22–23): initialize a set of `k` tuples, then repeatedly try to swap one
//!   member for an outside tuple that improves the objective, until a fixed
//!   point (or `max_iters`).

use crate::exec::Executor;
use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{DiversityQuery, Rect, SetStats, Tuple};
use ripple_net::{LocalView, PeerId, QueryMetrics};
use ripple_verify::{Certificate, PruneWitness};

/// The single tuple diversification query (Eq. 2) as a RIPPLE rank query.
pub struct SingleTupleQuery<'a> {
    /// Distances, λ and the query point.
    pub div: &'a DiversityQuery,
    /// The current set `O`; the sought tuple must lie outside it.
    pub set: &'a [Tuple],
    /// Cached statistics of `O` (relevance radius, closest pair).
    stats: SetStats,
    /// Initial threshold; the greedy wrapper passes a finite τ to demand an
    /// actual improvement (Alg. 23 lines 5–9), a fresh search passes +∞.
    pub initial_tau: f64,
}

impl<'a> SingleTupleQuery<'a> {
    /// Creates the query with an explicit initial threshold.
    pub fn with_tau(div: &'a DiversityQuery, set: &'a [Tuple], initial_tau: f64) -> Self {
        let stats = div.stats(set);
        Self {
            div,
            set,
            stats,
            initial_tau,
        }
    }

    /// Creates the query with a neutral (+∞) threshold.
    pub fn new(div: &'a DiversityQuery, set: &'a [Tuple]) -> Self {
        Self::with_tau(div, set, f64::INFINITY)
    }

    /// `getMostDiverseLocalObject`: the local tuple outside `O` with the
    /// least insertion score, if any. Ties on φ break on id so the
    /// distributed answer is deterministic and matches the centralized
    /// oracle (exact ties happen, e.g. φ = 0 when relevance and diversity
    /// gains cancel).
    fn best_local<'t>(&self, tuples: &'t [Tuple]) -> Option<(&'t Tuple, f64)> {
        tuples
            .iter()
            .filter(|t| !self.set.iter().any(|o| o.id == t.id))
            .map(|t| (t, self.div.phi_with_stats(&t.point, self.set, self.stats)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)))
    }
}

impl RankQuery<Rect> for SingleTupleQuery<'_> {
    /// The threshold `τ`: the best insertion score seen.
    type Global = f64;
    type Local = f64;

    fn initial_global(&self) -> f64 {
        self.initial_tau
    }

    /// Algorithm 16: the local τ is the local best φ if it improves on τG.
    ///
    /// φ depends on the evolving set `O`, so no per-peer index applies —
    /// both view flavours scan (the per-tuple work is the φ evaluation).
    fn compute_local_state(&self, view: &LocalView<'_>, global: &f64) -> f64 {
        match self.best_local(view.tuples()) {
            Some((_, phi)) if phi < *global => phi,
            _ => *global,
        }
    }

    /// Algorithm 17: the global state at `w` is just the local state.
    fn compute_global_state(&self, _global: &f64, local: &f64) -> f64 {
        *local
    }

    /// Algorithm 19: the minimum of the received thresholds.
    fn update_local_state(&self, states: Vec<f64>) -> f64 {
        states.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Algorithm 18: the local best tuple, if it attains the threshold.
    fn compute_local_answer(&self, view: &LocalView<'_>, local: &f64) -> Vec<Tuple> {
        match self.best_local(view.tuples()) {
            Some((t, phi)) if phi <= *local => vec![t.clone()],
            _ => Vec::new(),
        }
    }

    /// Algorithm 20: a region is relevant while its φ lower bound can beat τ.
    fn is_link_relevant(&self, region: &Rect, global: &f64) -> bool {
        self.div.phi_lower(region, self.set, self.stats) < *global
    }

    /// Algorithm 21: regions with smaller φ lower bound first.
    fn priority(&self, region: &Rect) -> f64 {
        -self.div.phi_lower(region, self.set, self.stats)
    }

    /// The pruned region's `φ⁻`: the checker recomputes it from the region
    /// box and requires it at or above the final τ (Alg. 20 run in
    /// reverse — a region whose lower bound beats the answer would have
    /// been relevant).
    fn prune_witness(&self, region: &Rect, _global: &f64) -> PruneWitness {
        PruneWitness::PhiBound {
            bound: self.div.phi_lower(region, self.set, self.stats),
        }
    }
}

/// Runs a single tuple diversification query. Returns the best insertion
/// tuple (with its φ score) if one beats `initial_tau`, plus the ledger.
///
/// The query is first routed to the peer owning the query point `q` (an
/// ordinary DHT lookup, charged to the metrics): relevance pulls the best
/// candidates toward `q`, so starting there gives the very first local
/// state a tight threshold — the same rationale as peak routing for top-k
/// (DESIGN.md D2).
pub fn run_single_tuple<O>(
    net: &O,
    initiator: PeerId,
    div: &DiversityQuery,
    set: &[Tuple],
    initial_tau: f64,
    mode: Mode,
) -> (Option<(Tuple, f64)>, QueryMetrics)
where
    O: RippleOverlay<Region = Rect>,
{
    let (best, _, metrics, _, _) =
        run_single_tuple_certified(&Executor::new(net), initiator, div, set, initial_tau, mode);
    (best, metrics)
}

/// Everything [`run_single_tuple_certified`] returns: the winning
/// insertion (if any), the raw delivered candidate stream, the ledger,
/// the coverage report, and the answer certificate.
pub type CertifiedSingleTuple = (
    Option<(Tuple, f64)>,
    Vec<Tuple>,
    QueryMetrics,
    Coverage,
    Option<Certificate>,
);

/// [`run_single_tuple`] through a pre-configured executor, additionally
/// returning the raw delivered candidate stream, the coverage report and
/// the answer certificate. `ripple-verify`'s `verify_diversify` needs the
/// raw candidates (not just the winner) to re-derive the final threshold,
/// so this variant hands them back alongside the best pick.
pub fn run_single_tuple_certified<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    div: &DiversityQuery,
    set: &[Tuple],
    initial_tau: f64,
    mode: Mode,
) -> CertifiedSingleTuple
where
    O: RippleOverlay<Region = Rect>,
{
    let net = exec.network();
    let query = SingleTupleQuery::with_tau(div, set, initial_tau);
    let (start, route_hops) = match net.route_lookup(initiator, &div.q) {
        Some((owner, hops)) => (owner, hops),
        None => (initiator, 0),
    };
    let QueryOutcome {
        answers,
        mut metrics,
        coverage,
        certificate,
        ..
    } = exec.run(start, &query, mode);
    metrics.latency += route_hops as u64;
    metrics.query_messages += route_hops as u64;
    let stats = div.stats(set);
    let best = answers
        .iter()
        .filter(|t| !set.iter().any(|o| o.id == t.id))
        .map(|t| {
            let phi = div.phi_with_stats(&t.point, set, stats);
            (t.clone(), phi)
        })
        .filter(|(_, phi)| *phi < initial_tau)
        .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
    (best, answers, metrics, coverage, certificate)
}

/// How [`diversify`] obtains its initial k-set (Alg. 22 line 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Initialize {
    /// Solve the single tuple query `k` times, growing the set greedily.
    Greedy,
    /// Draw `k` distinct tuples from the initiator's neighbourhood — the
    /// "as simple as retrieving k random tuples" option; cheap but crude.
    Nearest,
}

/// Algorithm 23: one improvement pass. Tries to swap a single member of `o`
/// for an outside tuple so the objective of Eq. 1 strictly improves;
/// members are examined in descending φ order (worst members first).
/// Returns the improved set, or `None` at a fixed point. Costs accrue into
/// `metrics` as sequential phases.
pub fn div_improve<O>(
    net: &O,
    initiator: PeerId,
    div: &DiversityQuery,
    o: &[Tuple],
    mode: Mode,
    metrics: &mut QueryMetrics,
) -> Option<Vec<Tuple>>
where
    O: RippleOverlay<Region = Rect>,
{
    let mut t_in: Option<Tuple> = None;
    let mut t_out: Option<usize> = None;
    let mut best_objective = f64::INFINITY; // objective of the best swap so far

    // Sort members descending on φ(t_i, q, O ∖ {t_i}): dropping a
    // high-φ member leaves the set with the best objective, so good
    // replacements are likely found early and tighten later searches.
    let mut order: Vec<usize> = (0..o.len()).collect();
    let phi_without: Vec<f64> = (0..o.len())
        .map(|i| {
            let rest: Vec<Tuple> = o
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, t)| t.clone())
                .collect();
            div.phi(&o[i].point, &rest)
        })
        .collect();
    order.sort_by(|&a, &b| phi_without[b].total_cmp(&phi_without[a]));

    for i in order {
        let rest: Vec<Tuple> = o
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, t)| t.clone())
            .collect();
        let f_rest = div.objective(&rest);
        // Require the swapped set to beat the original set and any swap
        // found so far: φ(t, O∖{t_i}) < min(f(O), best) − f(O∖{t_i}).
        let target = div.objective(o).min(best_objective);
        let tau = target - f_rest;
        if tau <= 0.0 {
            // No insertion into this reduced set can reach the target.
            continue;
        }
        let (found, m) = run_single_tuple(net, initiator, div, &rest, tau, mode);
        metrics.absorb_sequential(&m);
        if let Some((t, phi)) = found {
            best_objective = f_rest + phi;
            t_in = Some(t);
            t_out = Some(i);
        }
    }

    match (t_in, t_out) {
        (Some(tin), Some(ti)) => {
            let mut improved: Vec<Tuple> = o
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != ti)
                .map(|(_, t)| t.clone())
                .collect();
            improved.push(tin);
            debug_assert!(
                div.objective(&improved) < div.objective(o) + 1e-12,
                "swap must not worsen the objective"
            );
            Some(improved)
        }
        _ => None,
    }
}

/// Algorithm 22: the full greedy k-diversification query.
///
/// Returns the final set and the total cost ledger (all phases sequential).
pub fn diversify<O>(
    net: &O,
    initiator: PeerId,
    div: &DiversityQuery,
    k: usize,
    mode: Mode,
    init: Initialize,
    max_iters: usize,
) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay<Region = Rect>,
{
    let mut metrics = QueryMetrics::new();
    let mut o: Vec<Tuple> = Vec::with_capacity(k);
    match init {
        Initialize::Greedy => {
            for _ in 0..k {
                let (found, m) = run_single_tuple(net, initiator, div, &o, f64::INFINITY, mode);
                metrics.absorb_sequential(&m);
                match found {
                    Some((t, _)) => o.push(t),
                    None => break, // fewer than k tuples in the network
                }
            }
        }
        Initialize::Nearest => {
            // Grab k tuples relevant to q with one fast top-k-style sweep:
            // repeatedly take the best φ over a pure-relevance query.
            let rel_only = DiversityQuery::new(div.q.clone(), 1.0, div.dr);
            for _ in 0..k {
                let (found, m) =
                    run_single_tuple(net, initiator, &rel_only, &o, f64::INFINITY, mode);
                metrics.absorb_sequential(&m);
                match found {
                    Some((t, _)) => o.push(t),
                    None => break,
                }
            }
        }
    }

    for _ in 0..max_iters {
        match div_improve(net, initiator, div, &o, mode, &mut metrics) {
            Some(better) => o = better,
            None => break,
        }
    }
    o.sort_by_key(|t| t.id);
    (o, metrics)
}

/// One single-tuple search of a greedy diversification run: the set it
/// searched against and the improvement threshold it demanded.
///
/// Section 7.1: "we force both heuristic diversification algorithms to
/// produce the same result at each step. Hence our metrics capture directly
/// the cost/performance of methods and are not affected by the quality of
/// the result." A [`greedy_trace`] materialises that methodology: the
/// greedy sequence is fixed once (centralized, deterministic id
/// tie-breaking), and every method replays the *same* searches while its
/// own costs are measured — see `ripple-bench`'s Figures 9–12.
#[derive(Clone, Debug)]
pub struct SearchStep {
    /// The set `O` (or `O ∖ {t_i}`) the search runs against.
    pub set: Vec<Tuple>,
    /// The threshold the inserted tuple must beat.
    pub tau: f64,
}

/// Records every single-tuple search the centralized greedy run performs
/// (initialization and improvement passes), in order.
pub fn greedy_trace(
    tuples: &[Tuple],
    div: &DiversityQuery,
    k: usize,
    max_iters: usize,
) -> Vec<SearchStep> {
    let mut steps = Vec::new();
    let mut o: Vec<Tuple> = Vec::with_capacity(k);
    for _ in 0..k {
        steps.push(SearchStep {
            set: o.clone(),
            tau: f64::INFINITY,
        });
        let stats = div.stats(&o);
        let best = tuples
            .iter()
            .filter(|t| !o.iter().any(|m| m.id == t.id))
            .map(|t| (t, div.phi_with_stats(&t.point, &o, stats)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
        match best {
            Some((t, _)) => o.push(t.clone()),
            None => break,
        }
    }
    for _ in 0..max_iters {
        let mut t_in: Option<Tuple> = None;
        let mut t_out: Option<usize> = None;
        let mut best_objective = f64::INFINITY;
        let mut order: Vec<usize> = (0..o.len()).collect();
        let phi_without: Vec<f64> = (0..o.len())
            .map(|i| {
                let rest: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, t)| t.clone())
                    .collect();
                div.phi(&o[i].point, &rest)
            })
            .collect();
        order.sort_by(|&a, &b| phi_without[b].total_cmp(&phi_without[a]));
        for i in order {
            let rest: Vec<Tuple> = o
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, t)| t.clone())
                .collect();
            let f_rest = div.objective(&rest);
            let target = div.objective(&o).min(best_objective);
            let tau = target - f_rest;
            if tau <= 0.0 {
                continue;
            }
            steps.push(SearchStep {
                set: rest.clone(),
                tau,
            });
            let stats = div.stats(&rest);
            let found = tuples
                .iter()
                .filter(|t| !rest.iter().any(|m| m.id == t.id))
                .map(|t| (t, div.phi_with_stats(&t.point, &rest, stats)))
                .filter(|(_, phi)| *phi < tau)
                .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
            if let Some((t, phi)) = found {
                best_objective = f_rest + phi;
                t_in = Some(t.clone());
                t_out = Some(i);
            }
        }
        match (t_in, t_out) {
            (Some(tin), Some(ti)) => {
                let mut improved: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ti)
                    .map(|(_, t)| t.clone())
                    .collect();
                improved.push(tin);
                o = improved;
            }
            _ => break,
        }
    }
    steps
}

/// Reference oracle: centralized greedy diversification with the same
/// initialization and improvement rules, for distributed-vs-centralized
/// equivalence tests.
pub fn centralized_diversify(
    tuples: &[Tuple],
    div: &DiversityQuery,
    k: usize,
    max_iters: usize,
) -> Vec<Tuple> {
    let mut o: Vec<Tuple> = Vec::with_capacity(k);
    for _ in 0..k {
        let stats = div.stats(&o);
        let best = tuples
            .iter()
            .filter(|t| !o.iter().any(|m| m.id == t.id))
            .map(|t| (t, div.phi_with_stats(&t.point, &o, stats)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
        match best {
            Some((t, _)) => o.push(t.clone()),
            None => break,
        }
    }
    for _ in 0..max_iters {
        let mut t_in: Option<Tuple> = None;
        let mut t_out: Option<usize> = None;
        let mut best_objective = f64::INFINITY;
        let mut order: Vec<usize> = (0..o.len()).collect();
        let phi_without: Vec<f64> = (0..o.len())
            .map(|i| {
                let rest: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, t)| t.clone())
                    .collect();
                div.phi(&o[i].point, &rest)
            })
            .collect();
        order.sort_by(|&a, &b| phi_without[b].total_cmp(&phi_without[a]));
        for i in order {
            let rest: Vec<Tuple> = o
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, t)| t.clone())
                .collect();
            let f_rest = div.objective(&rest);
            let target = div.objective(&o).min(best_objective);
            let tau = target - f_rest;
            if tau <= 0.0 {
                continue;
            }
            let stats = div.stats(&rest);
            let found = tuples
                .iter()
                .filter(|t| !rest.iter().any(|m| m.id == t.id))
                .map(|t| (t, div.phi_with_stats(&t.point, &rest, stats)))
                .filter(|(_, phi)| *phi < tau)
                .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
            if let Some((t, phi)) = found {
                best_objective = f_rest + phi;
                t_in = Some(t.clone());
                t_out = Some(i);
            }
        }
        match (t_in, t_out) {
            (Some(tin), Some(ti)) => {
                let mut improved: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ti)
                    .map(|(_, t)| t.clone())
                    .collect();
                improved.push(tin);
                o = improved;
            }
            _ => break,
        }
    }
    o.sort_by_key(|t| t.id);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_geom::Norm;

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    fn div() -> DiversityQuery {
        DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1)
    }

    #[test]
    fn local_state_takes_best_phi() {
        let d = div();
        let set = vec![t(1, &[0.5, 0.5])];
        let q = SingleTupleQuery::new(&d, &set);
        let tuples = vec![t(2, &[0.45, 0.5]), t(3, &[0.0, 0.0])];
        let tau = q.compute_local_state(&LocalView::Plain(&tuples), &f64::INFINITY);
        let best = tuples
            .iter()
            .map(|x| d.phi(&x.point, &set))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(tau, best);
    }

    #[test]
    fn set_members_are_excluded() {
        let d = div();
        let set = vec![t(1, &[0.5, 0.5])];
        let q = SingleTupleQuery::new(&d, &set);
        // the only local tuple is already in O
        let tuples = vec![t(1, &[0.5, 0.5])];
        assert_eq!(
            q.compute_local_state(&LocalView::Plain(&tuples), &f64::INFINITY),
            f64::INFINITY
        );
        assert!(q
            .compute_local_answer(&LocalView::Plain(&tuples), &0.0)
            .is_empty());
    }

    #[test]
    fn answer_only_when_threshold_attained() {
        let d = div();
        let set = vec![t(1, &[0.5, 0.5])];
        let q = SingleTupleQuery::new(&d, &set);
        let tuples = vec![t(2, &[0.3, 0.5])];
        let phi = d.phi(&tuples[0].point, &set);
        assert_eq!(
            q.compute_local_answer(&LocalView::Plain(&tuples), &phi)
                .len(),
            1
        );
        // a better remote threshold suppresses the local answer
        assert!(q
            .compute_local_answer(&LocalView::Plain(&tuples), &(phi - 0.1))
            .is_empty());
    }

    #[test]
    fn merge_takes_minimum() {
        let d = div();
        let set: Vec<Tuple> = Vec::new();
        let q = SingleTupleQuery::new(&d, &set);
        assert_eq!(q.update_local_state(vec![0.5, 0.2, 0.9]), 0.2);
        assert_eq!(q.update_local_state(vec![]), f64::INFINITY);
    }

    #[test]
    fn pruning_respects_lower_bound() {
        let d = div();
        let set = vec![t(1, &[0.5, 0.5]), t(2, &[0.52, 0.5])];
        let q = SingleTupleQuery::new(&d, &set);
        // a region far from q: φ⁻ > 0, so a tight τ prunes it
        let far = Rect::new(vec![0.95, 0.95], vec![1.0, 1.0]);
        assert!(!q.is_link_relevant(&far, &0.0));
        assert!(q.is_link_relevant(&far, &f64::INFINITY));
    }

    #[test]
    fn centralized_greedy_improves_objective() {
        let d = div();
        let data: Vec<Tuple> = (0..30)
            .map(|i| t(i, &[(i as f64 * 0.618) % 1.0, (i as f64 * 0.381) % 1.0]))
            .collect();
        let o1 = centralized_diversify(&data, &d, 5, 0);
        let o2 = centralized_diversify(&data, &d, 5, 8);
        assert_eq!(o1.len(), 5);
        assert_eq!(o2.len(), 5);
        assert!(d.objective(&o2) <= d.objective(&o1) + 1e-12);
    }
}
