//! The traced run: delegating wrappers that time and count every call the
//! executor makes into the overlay (`midas`) and into the query callbacks
//! (`topk` / `skyline`), plus traced twins of the library's top-k and
//! skyline runners.
//!
//! Spans live in thread-local accumulators: every workload drives its
//! queries from one thread (`drivers: 0` for the service), so nothing is
//! shared. The wrappers never nest inside one another, so the executor's
//! self time is its wall time minus the spans recorded while it runs.

use ripple_core::service::{Servable, Served, ServiceQuery, ServiceScore};
use ripple_core::skyline::SkylineQuery;
use ripple_core::topk::TopKQuery;
use ripple_core::{Executor, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{dominance, LinearScore, PeakScore, Point, Rect, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::{LocalView, PeerId, Quarantine, QueryMetrics, ReplicaSet};
use ripple_verify::{Certificate, PruneWitness};
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One timed call site. The overlay spans come first, then the executor,
/// then the query callbacks of each query family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    FullRegion,
    RegionIntersect,
    PeerLinks,
    PeerCount,
    PeerTuples,
    PeerView,
    RouteLookup,
    RegionVolume,
    RegionRects,
    SnapshotGeneration,
    IsPeerLive,
    FailoverTarget,
    ReplicaTargets,
    Replicas,
    Quarantine,
    DeadZonesIn,
    PeerZonesIn,
    InsertBatch,
    DeleteTuples,
    /// `Executor::run`, wall time.
    ExecRun,
    /// `Executor::run` minus the overlay and query spans inside it.
    ExecSelf,
    /// A whole traced query: routing, execution and initiator-side
    /// post-processing.
    Query,
    /// First query-callback span; `Query(family, callback)` indexes from here.
    Callbacks,
}

/// The query family a [`TracedQuery`] charges its callbacks to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    TopK = 0,
    Skyline = 1,
}

/// The `RankQuery` callbacks, in `callback_span` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    InitialGlobal,
    LocalState,
    GlobalState,
    UpdateLocal,
    LocalAnswer,
    LinkRelevant,
    Priority,
    StatePayload,
    PruneWitness,
}

const CALLBACKS: usize = 9;
const SPANS: usize = Span::Callbacks as usize + 2 * CALLBACKS;

fn callback_index(family: Family, cb: Callback) -> usize {
    Span::Callbacks as usize + family as usize * CALLBACKS + cb as usize
}

/// Calls and nanoseconds accumulated at one span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

/// A snapshot of every span's accumulator.
#[derive(Clone, Debug)]
pub struct Spans([Acc; SPANS]);

impl Spans {
    pub fn get(&self, s: Span) -> Acc {
        self.0[s as usize]
    }

    pub fn callback(&self, family: Family, cb: Callback) -> Acc {
        self.0[callback_index(family, cb)]
    }
}

thread_local! {
    static ACC: RefCell<[Acc; SPANS]> = const { RefCell::new([Acc { calls: 0, ns: 0 }; SPANS]) };
    static IN_EXEC: Cell<bool> = const { Cell::new(false) };
    static EXEC_CHILDREN_NS: Cell<u64> = const { Cell::new(0) };
}

fn record(index: usize, ns: u64) {
    ACC.with(|a| {
        let acc = &mut a.borrow_mut()[index];
        acc.calls += 1;
        acc.ns += ns;
    });
    if IN_EXEC.with(Cell::get) {
        EXEC_CHILDREN_NS.with(|c| c.set(c.get() + ns));
    }
}

fn timed_at<T>(index: usize, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    record(index, t0.elapsed().as_nanos() as u64);
    out
}

/// Runs `f` as one call of span `s`.
pub fn timed<T>(s: Span, f: impl FnOnce() -> T) -> T {
    timed_at(s as usize, f)
}

/// Zeroes every accumulator on this thread.
pub fn reset() {
    ACC.with(|a| *a.borrow_mut() = [Acc::default(); SPANS]);
}

/// The accumulators on this thread.
pub fn snapshot() -> Spans {
    Spans(ACC.with(|a| *a.borrow()))
}

/// `Executor::run` with its wall time and self time recorded.
pub fn traced_run<O, Q>(
    exec: &Executor<'_, O>,
    start: PeerId,
    query: &Q,
    mode: Mode,
) -> QueryOutcome<Q::Local>
where
    O: RippleOverlay,
    Q: RankQuery<O::Region>,
{
    IN_EXEC.with(|f| f.set(true));
    EXEC_CHILDREN_NS.with(|c| c.set(0));
    let t0 = Instant::now();
    let outcome = exec.run(start, query, mode);
    let ns = t0.elapsed().as_nanos() as u64;
    IN_EXEC.with(|f| f.set(false));
    let children = EXEC_CHILDREN_NS.with(Cell::get);
    record(Span::ExecRun as usize, ns);
    record(Span::ExecSelf as usize, ns.saturating_sub(children));
    outcome
}

/// A MIDAS overlay whose every `RippleOverlay` method is timed and counted.
/// Holds the network by value (behind the service) or by reference.
pub struct TracedNet<N>(pub N);

impl<N: Borrow<MidasNetwork>> TracedNet<N> {
    fn net(&self) -> &MidasNetwork {
        self.0.borrow()
    }
}

impl<N: Borrow<MidasNetwork>> RippleOverlay for TracedNet<N> {
    type Region = Rect;

    fn full_region(&self) -> Rect {
        timed(Span::FullRegion, || self.net().full_region())
    }

    fn region_intersect(&self, region: &Rect, restriction: &Rect) -> Option<Rect> {
        timed(Span::RegionIntersect, || {
            self.net().region_intersect(region, restriction)
        })
    }

    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Rect)> {
        timed(Span::PeerLinks, || self.net().peer_links(peer))
    }

    fn peer_count(&self) -> usize {
        timed(Span::PeerCount, || {
            <MidasNetwork as RippleOverlay>::peer_count(self.net())
        })
    }

    fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
        timed(Span::PeerTuples, || self.net().peer_tuples(peer))
    }

    fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
        timed(Span::PeerView, || self.net().peer_view(peer))
    }

    fn route_lookup(&self, from: PeerId, key: &Point) -> Option<(PeerId, u32)> {
        timed(Span::RouteLookup, || self.net().route_lookup(from, key))
    }

    fn region_volume(&self, region: &Rect) -> f64 {
        timed(Span::RegionVolume, || self.net().region_volume(region))
    }

    fn region_rects(&self, region: &Rect) -> Vec<Rect> {
        timed(Span::RegionRects, || self.net().region_rects(region))
    }

    fn snapshot_generation(&self) -> u64 {
        timed(Span::SnapshotGeneration, || {
            self.net().snapshot_generation()
        })
    }

    fn is_peer_live(&self, peer: PeerId) -> bool {
        timed(Span::IsPeerLive, || self.net().is_peer_live(peer))
    }

    fn failover_target(&self, region: &Rect, tried: &[PeerId]) -> Option<(PeerId, Rect)> {
        timed(Span::FailoverTarget, || {
            self.net().failover_target(region, tried)
        })
    }

    fn replica_targets(&self, peer: PeerId, k: usize) -> Vec<PeerId> {
        timed(Span::ReplicaTargets, || {
            <MidasNetwork as RippleOverlay>::replica_targets(self.net(), peer, k)
        })
    }

    fn replicas(&self) -> Option<&ReplicaSet> {
        timed(Span::Replicas, || {
            <MidasNetwork as RippleOverlay>::replicas(self.net())
        })
    }

    fn quarantine(&self) -> Option<&Quarantine> {
        timed(Span::Quarantine, || {
            <MidasNetwork as RippleOverlay>::quarantine(self.net())
        })
    }

    fn dead_zones_in(&self, region: &Rect) -> Vec<(PeerId, f64)> {
        timed(Span::DeadZonesIn, || {
            <MidasNetwork as RippleOverlay>::dead_zones_in(self.net(), region)
        })
    }

    fn peer_zones_in(&self, peers: &[PeerId], region: &Rect) -> Vec<(PeerId, f64)> {
        timed(Span::PeerZonesIn, || {
            <MidasNetwork as RippleOverlay>::peer_zones_in(self.net(), peers, region)
        })
    }
}

/// A rank query whose every callback is timed and counted under `family`.
pub struct TracedQuery<Q> {
    pub inner: Q,
    pub family: Family,
}

impl<Q> TracedQuery<Q> {
    fn timed<T>(&self, cb: Callback, f: impl FnOnce() -> T) -> T {
        timed_at(callback_index(self.family, cb), f)
    }
}

impl<Q: RankQuery<Rect>> RankQuery<Rect> for TracedQuery<Q> {
    type Global = Q::Global;
    type Local = Q::Local;

    fn initial_global(&self) -> Q::Global {
        self.timed(Callback::InitialGlobal, || self.inner.initial_global())
    }

    fn compute_local_state(&self, view: &LocalView<'_>, global: &Q::Global) -> Q::Local {
        self.timed(Callback::LocalState, || {
            self.inner.compute_local_state(view, global)
        })
    }

    fn compute_global_state(&self, global: &Q::Global, local: &Q::Local) -> Q::Global {
        self.timed(Callback::GlobalState, || {
            self.inner.compute_global_state(global, local)
        })
    }

    fn update_local_state(&self, states: Vec<Q::Local>) -> Q::Local {
        self.timed(Callback::UpdateLocal, || {
            self.inner.update_local_state(states)
        })
    }

    fn compute_local_answer(&self, view: &LocalView<'_>, local: &Q::Local) -> Vec<Tuple> {
        self.timed(Callback::LocalAnswer, || {
            self.inner.compute_local_answer(view, local)
        })
    }

    fn is_link_relevant(&self, region: &Rect, global: &Q::Global) -> bool {
        self.timed(Callback::LinkRelevant, || {
            self.inner.is_link_relevant(region, global)
        })
    }

    fn priority(&self, region: &Rect) -> f64 {
        self.timed(Callback::Priority, || self.inner.priority(region))
    }

    fn state_payload(&self, local: &Q::Local) -> usize {
        self.timed(Callback::StatePayload, || self.inner.state_payload(local))
    }

    fn prune_witness(&self, region: &Rect, global: &Q::Global) -> PruneWitness {
        self.timed(Callback::PruneWitness, || {
            self.inner.prune_witness(region, global)
        })
    }
}

/// What a certified runner returns: answers, ledger, coverage, certificate.
pub type Outcome = (
    Vec<Tuple>,
    QueryMetrics,
    ripple_core::Coverage,
    Option<Certificate>,
);

/// The traced twin of `run_topk_certified`: the library routes to the
/// score's peak and post-processes privately, so this does both itself —
/// routing through `route_lookup`, then ranking by (score desc, id asc),
/// deduplicating by id and truncating to `k`.
pub fn traced_topk<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> Outcome
where
    O: RippleOverlay<Region = Rect>,
    F: ScoreFn,
{
    timed(Span::Query, || {
        let query = TracedQuery {
            inner: TopKQuery::new(score, k),
            family: Family::TopK,
        };
        let routed = query
            .inner
            .score
            .peak_point()
            .and_then(|p| exec.network().route_lookup(initiator, &p));
        let (start, hops) = match routed {
            Some((owner, hops)) if mode != Mode::Broadcast => (owner, hops),
            _ => (initiator, 0),
        };
        let QueryOutcome {
            mut answers,
            mut metrics,
            coverage,
            certificate,
            ..
        } = traced_run(exec, start, &query, mode);
        metrics.latency += hops as u64;
        metrics.query_messages += hops as u64;
        let score = &query.inner.score;
        answers.sort_by(|a, b| {
            score
                .score(&b.point)
                .total_cmp(&score.score(&a.point))
                .then_with(|| a.id.cmp(&b.id))
        });
        answers.dedup_by_key(|t| t.id);
        answers.truncate(k);
        (answers, metrics, coverage, certificate)
    })
}

/// The traced twin of `run_skyline_certified`.
pub fn traced_skyline<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: SkylineQuery,
    mode: Mode,
) -> Outcome
where
    O: RippleOverlay<Region = Rect>,
{
    timed(Span::Query, || {
        let query = TracedQuery {
            inner: query,
            family: Family::Skyline,
        };
        let QueryOutcome {
            answers,
            metrics,
            coverage,
            certificate,
            ..
        } = traced_run(exec, initiator, &query, mode);
        let mut sky = dominance::skyline(&answers);
        sky.sort_by_key(|t| t.id);
        (sky, metrics, coverage, certificate)
    })
}

/// The traced overlay behind a `QueryService`: every executed query runs
/// through the traced runners, sequentially (the service runs with
/// `intra_query_threads: 0`, where the library's parallel runner is the
/// sequential one).
impl Servable for TracedNet<MidasNetwork> {
    fn supports(query: &ServiceQuery) -> bool {
        <MidasNetwork as Servable>::supports(query)
    }

    fn serve(
        exec: &Executor<'_, Self>,
        initiator: PeerId,
        query: &ServiceQuery,
        mode: Mode,
        _threads: usize,
    ) -> Served {
        let (answers, metrics, coverage, certificate) = match query {
            ServiceQuery::TopK { score, k } => match score {
                ServiceScore::Linear(w) => {
                    traced_topk(exec, initiator, LinearScore::new(w.clone()), *k, mode)
                }
                ServiceScore::Peak(p, norm) => {
                    traced_topk(exec, initiator, PeakScore::new(p.clone(), *norm), *k, mode)
                }
            },
            ServiceQuery::Skyline { constraint } => {
                let q = match constraint {
                    Some(c) => SkylineQuery::constrained(c.clone()),
                    None => SkylineQuery::new(),
                };
                traced_skyline(exec, initiator, q, mode)
            }
        };
        Served {
            answers,
            metrics,
            coverage,
            certificate,
        }
    }
}
