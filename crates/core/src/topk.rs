//! Top-k over RIPPLE (Section 4, Algorithms 4–9).
//!
//! The query is `(f, k)` for a unimodal scoring function `f` (higher is
//! better). The abstract state is the pair `(m, τ)`: "`m` tuples with score
//! at or above `τ` have already been retrieved". Pruning uses the region
//! upper bound `f⁺`: a link is irrelevant once `k` tuples are known and its
//! region cannot beat the current threshold.

use crate::exec::Executor;
use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{kernels, KernelDispatch, Rect, ScoreFn, Tuple};
use ripple_net::{scan, LocalView, PeerId, PeerStore, QueryMetrics};
use ripple_verify::{Certificate, PruneWitness};

/// The `(m, τ)` state of top-k processing. Invariant: at least `m` tuples
/// with score `≥ τ` exist among the tuples examined so far.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKState {
    /// Number of qualifying tuples known.
    pub m: usize,
    /// Score threshold those tuples meet.
    pub tau: f64,
}

impl TopKState {
    /// The neutral state: zero tuples vacuously at threshold +∞. The
    /// threshold must start *high* because states merge by `min(τ_G, τ_L)`
    /// (Algorithm 5) — a low initial value would poison every later merge
    /// and disable pruning. While `m < k`, `isLinkRelevant` keeps all links
    /// alive regardless of the threshold.
    pub fn empty() -> Self {
        Self {
            m: 0,
            tau: f64::INFINITY,
        }
    }
}

/// A peer's top-k local state: the `(m, τ)` pair of Algorithm 4 plus, when
/// a blocked scan computed it, the rows that scan found at or above `τ` —
/// the peer's local answer (Algorithm 6), read back from the same view
/// without a second scan.
#[derive(Clone, Debug)]
pub struct TopKLocal {
    /// The `(m, τ)` state.
    pub state: TopKState,
    /// Every live row of the scanned snapshot scoring at or above
    /// `state.tau`, in store order. `None` for states computed from a
    /// plain view and for merged states.
    answer: Option<Vec<Pick>>,
}

impl From<TopKState> for TopKLocal {
    fn from(state: TopKState) -> Self {
        Self {
            state,
            answer: None,
        }
    }
}

/// One candidate row of a blocked top-k scan.
#[derive(Clone, Copy, Debug)]
struct Pick {
    score: f64,
    block: u32,
    offset: u32,
}

/// A top-k query over rectangle regions.
pub struct TopKQuery<F> {
    /// The scoring function (provides `f` and `f⁺`).
    pub score: F,
    /// Number of results requested.
    pub k: usize,
}

impl<F: ScoreFn> TopKQuery<F> {
    /// Creates a top-k query.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(score: F, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self { score, k }
    }

    /// Algorithm 4 on the best scores of a peer holding `total` tuples,
    /// sorted descending (at least the best `min(k, total)` of them): count
    /// the qualifying prefix, top up while the global count falls short of
    /// `k`. Only the best `k` scores are ever inspected (`above ≤ k` before
    /// and after the top-up). The scalar reference the blocked
    /// [`TopKQuery::state_of`] must match.
    fn state_from_ranked(
        &self,
        scores_desc: &[f64],
        total: usize,
        global: &TopKState,
    ) -> TopKState {
        let prefix = &scores_desc[..scores_desc.len().min(self.k)];
        let mut above: usize = prefix.iter().take_while(|s| **s >= global.tau).count();
        if global.m + above < self.k {
            let missing = self.k - global.m - above;
            above = (above + missing).min(total);
        }
        if above == 0 {
            // No local contribution: an infinitely high threshold over zero
            // tuples keeps `min(τ_G, τ_L)` and the local answer neutral.
            return TopKState {
                m: 0,
                tau: f64::INFINITY,
            };
        }
        TopKState {
            m: above,
            tau: prefix[above - 1],
        }
    }

    /// [`TopKQuery::state_from_ranked`] without the sort, on the candidate
    /// rows of a blocked scan of a peer holding `total` tuples. `picks`
    /// holds, in any order, every row that can enter the state: the best
    /// `min(k, total)` rows, or, once the global state holds `k`, the best
    /// `k` of those at or above `τ_G`. Take up to `k` candidates scoring at
    /// or above `τ_G`, top up to `k` while the global count falls short,
    /// and set `τ` to the `m`-th best candidate score by `total_cmp` (where
    /// a descending sort would put it). May reorder `picks`.
    fn state_of(&self, picks: &mut [Pick], total: usize, global: &TopKState) -> TopKState {
        let above = picks
            .iter()
            .filter(|p| p.score >= global.tau)
            .count()
            .min(self.k);
        let m = if global.m + above < self.k {
            (self.k - global.m).min(total)
        } else {
            above
        };
        if m == 0 {
            // No local contribution: an infinitely high threshold over zero
            // tuples keeps `min(τ_G, τ_L)` and the local answer neutral.
            return TopKState {
                m: 0,
                tau: f64::INFINITY,
            };
        }
        let tau = if m == picks.len() {
            picks
                .iter()
                .map(|p| p.score)
                .min_by(|a, b| a.total_cmp(b))
                .expect("m > 0 candidates")
        } else {
            let (_, nth, _) =
                picks.select_nth_unstable_by(m - 1, |a, b| b.score.total_cmp(&a.score));
            nth.score
        };
        TopKState { m, tau }
    }

    /// Algorithm 7: find the highest threshold guaranteeing `k` tuples.
    pub fn merge_states(&self, states: &mut [TopKState]) -> TopKState {
        states.sort_by(|a, b| b.tau.total_cmp(&a.tau));
        let mut m = 0;
        let mut tau = f64::INFINITY;
        for s in states.iter() {
            if s.m == 0 {
                continue;
            }
            m += s.m;
            tau = s.tau;
            if m >= self.k {
                break;
            }
        }
        if m == 0 {
            return TopKState {
                m: 0,
                tau: f64::INFINITY,
            };
        }
        TopKState { m, tau }
    }

    /// Algorithms 4 and 6 in one pass over the store's columnar mirror:
    /// score whole blocks through the [`ScoreFn::score_block`] kernel and
    /// keep every live row that can still reach the top `k` as a candidate,
    /// in store order.
    ///
    /// A row is a candidate while its score is at or above the bar. Once
    /// the global state holds `k` tuples Algorithm 4 does no top-up, so
    /// only scores at or above `τ_G` can enter the state: `τ_G` is the
    /// floor of the bar. Once `k` candidates are known, the bar rises to
    /// their `k`-th best score. A block whose region bound `f⁺` (over the
    /// block's bounding box) falls strictly below the bar is skipped whole.
    /// The bar only ever rises, so every dropped row scores strictly below
    /// the final `τ`: the candidates hold the best `k` scores (the state,
    /// bit-identical to the scalar sort's) and every row at or above `τ`
    /// (the local answer, the rows the scalar filter keeps).
    fn blocked_local(
        &self,
        store: &PeerStore,
        dispatch: KernelDispatch,
        global: &TopKState,
    ) -> TopKLocal {
        let floor = if global.m >= self.k {
            global.tau
        } else {
            f64::NEG_INFINITY
        };
        let mut bar = floor;
        let blocks = store.blocks_at(dispatch);
        let mut cols: Vec<&[f64]> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut picks: Vec<Pick> = Vec::new();
        let mut kth: Vec<f64> = Vec::new();
        for b in 0..blocks.num_blocks() {
            let ub = self
                .score
                .upper_bound_corners(blocks.block_min(b), blocks.block_max(b));
            if ub < bar {
                scan::add_pruned(1);
                continue;
            }
            blocks.block_cols(b, &mut cols);
            self.score.score_block(&cols, &mut scores, dispatch);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            // The kernel scores every physical row (whole-column SIMD);
            // tombstoned rows never become candidates, exactly like the
            // scalar path never sees them.
            let dead = blocks.block_dead(b);
            let block = b as u32;
            // Room for `k` candidates up front: the filter below cannot size
            // its output, and past `k` the bar starts cutting them back.
            picks.reserve(self.k.min(scores.len()));
            picks.extend(
                scores
                    .iter()
                    .enumerate()
                    .filter(|&(i, &s)| s >= bar && !dead.is_some_and(|d| d[i]))
                    .map(|(i, &score)| Pick {
                        score,
                        block,
                        offset: i as u32,
                    }),
            );
            if picks.len() >= self.k {
                // Raise the bar to the `k`-th best candidate (selected on a
                // copy, so the candidates keep store order); rows tied with
                // it stay, they belong to the answer.
                kth.clear();
                kth.extend(picks.iter().map(|p| p.score));
                let (_, &mut nth, _) =
                    kth.select_nth_unstable_by(self.k - 1, |a, b| b.total_cmp(a));
                bar = bar.max(nth);
                picks.retain(|p| p.score >= bar);
            }
        }
        let state = self.state_of(&mut picks, store.len(), global);
        picks.retain(|p| p.score >= state.tau);
        // `state_of` may have reordered the candidates; already sorted
        // input (the common case) costs one linear pass.
        picks.sort_unstable_by_key(|p| (p.block, p.offset));
        TopKLocal {
            state,
            answer: Some(picks),
        }
    }

    /// Algorithm 6 over the columnar mirror, for states that carry no
    /// answer rows (merged states on an indexed view): a per-block
    /// threshold filter via [`kernels::filter_at_least`], skipping blocks
    /// whose upper bound falls strictly below `τ` — every row there scores
    /// `≤ f⁺ < τ` and would fail the scalar filter too. Rows are emitted in ascending
    /// store order, so the answer matches the scalar scan element for
    /// element.
    fn blocked_answer(
        &self,
        store: &PeerStore,
        dispatch: KernelDispatch,
        local: &TopKState,
    ) -> Vec<Tuple> {
        let blocks = store.blocks_at(dispatch);
        let mut cols: Vec<&[f64]> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut answer = Vec::new();
        for b in 0..blocks.num_blocks() {
            let ub = self
                .score
                .upper_bound_corners(blocks.block_min(b), blocks.block_max(b));
            if ub < local.tau {
                scan::add_pruned(1);
                continue;
            }
            blocks.block_cols(b, &mut cols);
            self.score.score_block(&cols, &mut scores, dispatch);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            idx.clear();
            idx.reserve(scores.len());
            kernels::filter_at_least(dispatch, &scores, local.tau, &mut idx);
            let rows = blocks.block_tuples(b);
            let dead = blocks.block_dead(b);
            answer.reserve(idx.len());
            answer.extend(
                idx.iter()
                    .filter(|&&i| !dead.is_some_and(|d| d[i as usize]))
                    .map(|&i| rows[i as usize].clone()),
            );
        }
        answer
    }
}

impl<F: ScoreFn> RankQuery<Rect> for TopKQuery<F> {
    type Global = TopKState;
    type Local = TopKLocal;

    fn initial_global(&self) -> TopKState {
        TopKState::empty()
    }

    /// Algorithm 4: take up to `k` local tuples at or above the global
    /// threshold; if the global count still falls short of `k`, top up with
    /// the best remaining local tuples.
    ///
    /// On an indexed view this is the blocked kernel scan over the store's
    /// columnar mirror, which also keeps the local answer; a plain view
    /// scans, scores and sorts.
    fn compute_local_state(&self, view: &LocalView<'_>, global: &TopKState) -> TopKLocal {
        if let Some((store, dispatch)) = view.store() {
            return self.blocked_local(store, dispatch, global);
        }
        let mut scores: Vec<f64> = view
            .tuples()
            .iter()
            .map(|t| self.score.score(&t.point))
            .collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        scan::add_scanned(scores.len() as u64);
        self.state_from_ranked(&scores, scores.len(), global).into()
    }

    /// Algorithm 5, strengthened with the Algorithm 7 merge.
    ///
    /// The paper prints `(m_G + m_L, min(τ_G, τ_L))`. The plain `min` keeps
    /// the invariant but makes the threshold *monotonically non-improving*
    /// along a forwarding path: a peer that locally finds `k` excellent
    /// tuples cannot raise `τ` above an ancestor's poor threshold, so
    /// `isLinkRelevant` (Alg. 8) never gains pruning power and `fast`
    /// degenerates to a broadcast. Merging the two states with the
    /// `updateLocalState` rule instead (sort by threshold, accumulate counts
    /// until `k` — Alg. 7) is sound for the same reason Alg. 7 is: the
    /// global and local states describe disjoint tuple sets, and "`m_1`
    /// tuples ≥ τ_1 plus `m_2` tuples ≥ τ_2 ≥ τ_1" supports the threshold
    /// `τ_1` with `m_1 + m_2` tuples. This is strictly tighter than the
    /// printed `min` and is what gives the paper's Figure 4–6 behaviour.
    fn compute_global_state(&self, global: &TopKState, local: &TopKLocal) -> TopKState {
        self.merge_states(&mut [*global, local.state])
    }

    /// Algorithm 7 ([`TopKQuery::merge_states`]). The merged state carries
    /// no answer rows: its threshold may admit rows no single scan kept.
    fn update_local_state(&self, states: Vec<TopKLocal>) -> TopKLocal {
        let mut states: Vec<TopKState> = states.into_iter().map(|l| l.state).collect();
        self.merge_states(&mut states).into()
    }

    /// Algorithm 6: every local tuple at or above the local threshold, in
    /// store order: on an indexed view the rows the blocked scan kept with
    /// the state (`local` must come from this view, as the executor
    /// guarantees) or, for a merged state, the blocked filter; on a plain
    /// view a scalar filter.
    fn compute_local_answer(&self, view: &LocalView<'_>, local: &TopKLocal) -> Vec<Tuple> {
        let state = &local.state;
        if state.m == 0 {
            return Vec::new();
        }
        if let Some((store, dispatch)) = view.store() {
            let Some(picks) = &local.answer else {
                return self.blocked_answer(store, dispatch, state);
            };
            let blocks = store.blocks_at(dispatch);
            return picks
                .iter()
                .map(|p| blocks.block_tuples(p.block as usize)[p.offset as usize].clone())
                .collect();
        }
        scan::add_scanned(view.tuples().len() as u64);
        view.tuples()
            .iter()
            .filter(|t| self.score.score(&t.point) >= state.tau)
            .cloned()
            .collect()
    }

    /// Algorithm 8: relevant while short of `k` or the region can beat `τ`.
    fn is_link_relevant(&self, region: &Rect, global: &TopKState) -> bool {
        global.m < self.k || self.score.upper_bound(region) >= global.tau
    }

    /// Algorithm 9: regions with higher `f⁺` first.
    fn priority(&self, region: &Rect) -> f64 {
        self.score.upper_bound(region)
    }

    /// The pruned region's `f⁺`: the certificate checker recomputes it from
    /// the region boxes and requires it below the final `τ` (Alg. 8 run in
    /// reverse).
    fn prune_witness(&self, region: &Rect, _global: &TopKState) -> PruneWitness {
        PruneWitness::ScoreBound {
            bound: self.score.upper_bound(region),
        }
    }
}

/// Top-k over *multi-segment* regions (e.g. ring arcs that wrap the origin,
/// represented as up to two disjoint intervals). A segmented region is
/// relevant if any of its segments is, and its priority is the best segment
/// bound — this is what lets the same [`TopKQuery`] run unchanged over
/// Chord, demonstrating the framework's substrate-genericity (Section 3.1).
impl<F: ScoreFn> RankQuery<Vec<Rect>> for TopKQuery<F> {
    type Global = TopKState;
    type Local = TopKLocal;

    fn initial_global(&self) -> TopKState {
        RankQuery::<Rect>::initial_global(self)
    }

    fn compute_local_state(&self, view: &LocalView<'_>, global: &TopKState) -> TopKLocal {
        RankQuery::<Rect>::compute_local_state(self, view, global)
    }

    fn compute_global_state(&self, global: &TopKState, local: &TopKLocal) -> TopKState {
        RankQuery::<Rect>::compute_global_state(self, global, local)
    }

    fn update_local_state(&self, states: Vec<TopKLocal>) -> TopKLocal {
        RankQuery::<Rect>::update_local_state(self, states)
    }

    fn compute_local_answer(&self, view: &LocalView<'_>, local: &TopKLocal) -> Vec<Tuple> {
        RankQuery::<Rect>::compute_local_answer(self, view, local)
    }

    fn is_link_relevant(&self, region: &Vec<Rect>, global: &TopKState) -> bool {
        region
            .iter()
            .any(|seg| RankQuery::<Rect>::is_link_relevant(self, seg, global))
    }

    fn priority(&self, region: &Vec<Rect>) -> f64 {
        region
            .iter()
            .map(|seg| self.score.upper_bound(seg))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The best `f⁺` over the segments — the same maximum the checker
    /// recomputes from the certificate's segment boxes.
    fn prune_witness(&self, region: &Vec<Rect>, _global: &TopKState) -> PruneWitness {
        PruneWitness::ScoreBound {
            bound: region
                .iter()
                .map(|seg| self.score.upper_bound(seg))
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Runs a top-k query and extracts the final answer at the initiator: the
/// `k` best received tuples, best first.
///
/// When the score is unimodal with a known peak and the substrate supports
/// point lookups, the query is first *routed to the peer owning the peak*
/// (an ordinary DHT lookup, charged to the metrics), and processing ripples
/// outward from there. Starting at the most promising peer is what lets the
/// very first local state carry a tight threshold — without it, the
/// initiator's arbitrary local tuples anchor the threshold and `fast`
/// degenerates toward a broadcast.
pub fn run_topk<O, F>(
    net: &O,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let (answers, metrics, _) = run_topk_with(&Executor::new(net), initiator, score, k, mode);
    (answers, metrics)
}

/// Runs a top-k query through a pre-configured executor — typically a
/// fault-aware one ([`Executor::with_faults`]) — additionally returning the
/// coverage report, so degraded answers are never mistaken for complete
/// ones. With a default executor this is exactly [`run_topk`].
pub fn run_topk_with<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics, Coverage)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let (answers, metrics, coverage, _) = run_topk_certified(exec, initiator, score, k, mode);
    (answers, metrics, coverage)
}

/// [`run_topk_with`], additionally returning the answer certificate (when
/// the executor emits them — see [`Executor::without_certificates`]), so the
/// caller can hand answer + certificate to `ripple-verify`'s `verify_topk`
/// as an independent second oracle.
pub fn run_topk_certified<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let query = TopKQuery::new(score, k);
    let (start, route_hops) = route_to_peak(exec.network(), initiator, &query.score, mode);
    let outcome = exec.run(start, &query, mode);
    finish_topk(&query, outcome, route_hops)
}

/// [`run_topk_certified`] on the parallel intra-query executor: identical
/// routing and initiator post-processing around [`Executor::run_parallel`],
/// so the outcome — answers, ledger, coverage, certificate — is
/// bit-identical to the sequential runner's for any thread count (the
/// serving layer's N drivers × M workers composition relies on this).
pub fn run_topk_certified_par<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
    threads: usize,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>)
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region> + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Global: Send + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Local: Send,
{
    let query = TopKQuery::new(score, k);
    let (start, route_hops) = route_to_peak(exec.network(), initiator, &query.score, mode);
    let outcome = exec.run_parallel(start, &query, mode, threads);
    finish_topk(&query, outcome, route_hops)
}

/// Resolves the processing start peer: for a unimodal score on a routable
/// substrate the query first travels to the peak owner (an ordinary DHT
/// lookup); broadcasts and peakless scores start at the initiator.
fn route_to_peak<O: RippleOverlay, F: ScoreFn>(
    net: &O,
    initiator: PeerId,
    score: &F,
    mode: Mode,
) -> (PeerId, u32) {
    match score
        .peak_point()
        .and_then(|p| net.route_lookup(initiator, &p))
    {
        Some((owner, hops)) if mode != Mode::Broadcast => (owner, hops),
        _ => (initiator, 0),
    }
}

/// Initiator-side post-processing shared by the sequential and parallel
/// runners: charge the routing transit, rank and dedup the answer stream,
/// truncate to `k`.
fn finish_topk<F: ScoreFn, L>(
    query: &TopKQuery<F>,
    outcome: QueryOutcome<L>,
    route_hops: u32,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>) {
    let QueryOutcome {
        mut answers,
        mut metrics,
        coverage,
        certificate,
        ..
    } = outcome;
    // Routing transit forwards the lookup but does not process the query:
    // hops count as messages and latency, not as peer visits.
    metrics.latency += route_hops as u64;
    metrics.query_messages += route_hops as u64;
    answers.sort_by(|a, b| {
        query
            .score
            .score(&b.point)
            .total_cmp(&query.score.score(&a.point))
            .then_with(|| a.id.cmp(&b.id))
    });
    answers.dedup_by_key(|t| t.id);
    answers.truncate(query.k);
    (answers, metrics, coverage, certificate)
}

/// Reference answer: centralized top-k over a full dataset (test oracle and
/// initiator-side post-processing building block).
pub fn centralized_topk<F: ScoreFn>(tuples: &[Tuple], score: &F, k: usize) -> Vec<Tuple> {
    let mut all: Vec<Tuple> = tuples.to_vec();
    all.sort_by(|a, b| {
        score
            .score(&b.point)
            .total_cmp(&score.score(&a.point))
            .then_with(|| a.id.cmp(&b.id))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_geom::{LinearScore, Norm, PeakScore};
    use ripple_net::BLOCK_ROWS;

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    fn q(k: usize) -> TopKQuery<LinearScore> {
        TopKQuery::new(LinearScore::uniform(2), k)
    }

    #[test]
    fn local_state_takes_top_k() {
        let query = q(2);
        let tuples = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1]), t(3, &[0.5, 0.5])];
        let s = RankQuery::<Rect>::compute_local_state(
            &query,
            &LocalView::Plain(&tuples),
            &TopKState::empty(),
        )
        .state;
        assert_eq!(s.m, 2);
        assert!(
            (s.tau - 1.0).abs() < 1e-12,
            "threshold is the 2nd best score"
        );
    }

    #[test]
    fn local_state_respects_global_threshold() {
        let query = q(2);
        let tuples = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1])];
        // two tuples already known globally at τ = 1.5
        let g = TopKState { m: 2, tau: 1.5 };
        let s =
            RankQuery::<Rect>::compute_local_state(&query, &LocalView::Plain(&tuples), &g).state;
        assert_eq!(s.m, 1, "only the 1.8-scoring tuple beats τ");
        assert!((s.tau - 1.8).abs() < 1e-12);
    }

    #[test]
    fn local_state_tops_up_when_global_short() {
        let query = q(3);
        let tuples = vec![t(1, &[0.4, 0.4]), t(2, &[0.2, 0.2])];
        let g = TopKState {
            m: 1,
            tau: 1.9, // one excellent tuple known, but we need 3
        };
        let s =
            RankQuery::<Rect>::compute_local_state(&query, &LocalView::Plain(&tuples), &g).state;
        assert_eq!(s.m, 2, "both local tuples are needed to reach k");
        assert!((s.tau - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_peer_is_neutral() {
        let query = q(2);
        let s = RankQuery::<Rect>::compute_local_state(
            &query,
            &LocalView::Plain(&[]),
            &TopKState::empty(),
        );
        assert_eq!(s.state.m, 0);
        let g = RankQuery::<Rect>::compute_global_state(&query, &TopKState { m: 2, tau: 0.7 }, &s);
        assert_eq!(g.m, 2);
        assert_eq!(g.tau, 0.7);
        assert!(
            RankQuery::<Rect>::compute_local_answer(&query, &LocalView::Plain(&[]), &s).is_empty()
        );
    }

    #[test]
    fn merge_finds_highest_threshold_with_k() {
        let query = q(7);
        let merged = query.merge_states(&mut [
            TopKState { m: 5, tau: 0.9 },
            TopKState { m: 3, tau: 0.85 },
            TopKState { m: 5, tau: 0.8 },
        ]);
        assert_eq!(merged.m, 8);
        assert!((merged.tau - 0.85).abs() < 1e-12);
    }

    #[test]
    fn merge_with_insufficient_total() {
        let query = q(10);
        let merged =
            query.merge_states(&mut [TopKState { m: 2, tau: 0.9 }, TopKState { m: 3, tau: 0.5 }]);
        assert_eq!(merged.m, 5);
        assert!((merged.tau - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relevance_pruning() {
        let query = q(1);
        let region = Rect::new(vec![0.0, 0.0], vec![0.3, 0.3]); // f⁺ = 0.6
        assert!(
            RankQuery::<Rect>::is_link_relevant(&query, &region, &TopKState { m: 0, tau: 1.5 }),
            "still short of k"
        );
        assert!(
            !RankQuery::<Rect>::is_link_relevant(&query, &region, &TopKState { m: 1, tau: 1.5 }),
            "k reached and the region cannot beat τ"
        );
        assert!(RankQuery::<Rect>::is_link_relevant(
            &query,
            &region,
            &TopKState { m: 1, tau: 0.5 }
        ));
    }

    #[test]
    fn priority_orders_by_upper_bound() {
        let query = q(1);
        let good = Rect::new(vec![0.5, 0.5], vec![1.0, 1.0]);
        let bad = Rect::new(vec![0.0, 0.0], vec![0.4, 0.4]);
        assert!(
            RankQuery::<Rect>::priority(&query, &good) > RankQuery::<Rect>::priority(&query, &bad)
        );
    }

    #[test]
    fn centralized_oracle() {
        let score = LinearScore::uniform(2);
        let data = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1]), t(3, &[0.5, 0.5])];
        let top = centralized_topk(&data, &score, 2);
        assert_eq!(top.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    /// A store of `n` live 3-d rows built as `n + 9` inserts followed by 9
    /// deletes of the oldest ids: once the store reaches a frozen run, the
    /// deletes leave tombstones in it and the tail stays in the memtable.
    fn churned_store(n: usize) -> PeerStore {
        let mut s = PeerStore::new();
        let mut state: u64 = 0x5DEE_CE66_D1CE_4E5B;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Coarse grid: plenty of exact score ties.
            ((state >> 33) % 16) as f64 / 16.0
        };
        s.insert_batch((0..n as u64 + 9).map(|i| Tuple::new(i, vec![next(), next(), next()])));
        assert_eq!(s.delete_batch(0..9), 9);
        assert_eq!(s.len(), n);
        s
    }

    /// Local state and local answer on an indexed view (the blocked kernel
    /// path, both forced dispatch arms) equal those of a plain view over the
    /// same tuples, at and around the block boundaries.
    fn assert_indexed_matches_plain<F: ScoreFn + Clone>(score: F, label: &str) {
        for n in [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 7] {
            let store = churned_store(n);
            if n + 9 >= BLOCK_ROWS {
                let stats = store.ingest_stats();
                assert_eq!(stats.tombstones, 9, "n={n}: tombstones in a frozen run");
                assert!(stats.memtable_rows > 0, "n={n}: non-empty memtable");
            }
            let plain = LocalView::Plain(store.tuples());
            for k in [1, 10, n + 5] {
                let query = TopKQuery::new(score.clone(), k);
                // Short of `k` (top-up) and holding `k` already (the
                // threshold floor), at a threshold tied with stored scores.
                let pivot = store
                    .tuples()
                    .get(n / 2)
                    .map_or(0.3, |t| score.score(&t.point));
                let globals = [
                    TopKState::empty(),
                    TopKState {
                        m: k / 2,
                        tau: pivot,
                    },
                    TopKState { m: k, tau: pivot },
                ];
                for global in globals {
                    let local = RankQuery::<Rect>::compute_local_state(&query, &plain, &global);
                    let answer = RankQuery::<Rect>::compute_local_answer(&query, &plain, &local);
                    // A merged state carries no answer rows: the indexed
                    // view then answers with the blocked filter.
                    let merged = RankQuery::<Rect>::update_local_state(
                        &query,
                        vec![local.clone(), global.into()],
                    );
                    let merged_answer =
                        RankQuery::<Rect>::compute_local_answer(&query, &plain, &merged);
                    let state = local.state;
                    for dispatch in [KernelDispatch::ForcedScalar, KernelDispatch::ForcedSimd] {
                        let indexed = LocalView::Indexed(&store, dispatch);
                        let s = RankQuery::<Rect>::compute_local_state(&query, &indexed, &global);
                        assert_eq!(s.state.m, state.m, "{label} n={n} k={k} {dispatch:?}: m");
                        assert_eq!(
                            s.state.tau.to_bits(),
                            state.tau.to_bits(),
                            "{label} n={n} k={k} {dispatch:?}: tau bits"
                        );
                        let a = RankQuery::<Rect>::compute_local_answer(&query, &indexed, &s);
                        assert_eq!(a, answer, "{label} n={n} k={k} {dispatch:?}: answer");
                        let a = RankQuery::<Rect>::compute_local_answer(&query, &indexed, &merged);
                        assert_eq!(a, merged_answer, "{label} n={n} k={k} {dispatch:?}: merged");
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_topk_equals_plain_at_block_boundaries() {
        assert_indexed_matches_plain(LinearScore::new(vec![0.5, 0.3, 0.2]), "linear");
        assert_indexed_matches_plain(PeakScore::new(vec![0.4, 0.6, 0.5], Norm::L2), "peak");
    }
}
