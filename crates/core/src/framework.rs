//! The abstract interfaces of the RIPPLE framework (Section 3.1).
//!
//! RIPPLE's three propagation templates (`fast`, `slow`, `ripple`) are
//! *query-agnostic*: Algorithms 1–3 of the paper are written against six
//! abstract functions whose behaviour depends on the query type. The
//! [`RankQuery`] trait captures those six functions; the [`RippleOverlay`]
//! trait captures the little RIPPLE assumes about the substrate — each peer
//! exposes links annotated with **regions** that, together with the peer's
//! zone, partition the domain.

use ripple_geom::{neumaier, Rect, Tuple};
use ripple_net::{LocalView, PeerId, Quarantine, QueryMetrics, ReplicaSet};
use ripple_verify::{Certificate, PruneWitness};

/// What RIPPLE requires from a DHT substrate.
///
/// Implementations exist for MIDAS (regions are sibling-subtree boxes) and
/// Chord (regions are ring arcs). The framework never inspects a region
/// directly — it only intersects regions with restriction areas and hands
/// them to the query's bound functions.
pub trait RippleOverlay {
    /// The region/restriction-area representation of this substrate.
    type Region: Clone;

    /// The region covering the entire domain (the initial restriction area).
    fn full_region(&self) -> Self::Region;

    /// Intersection of a link region with a restriction area; `None` when
    /// empty. The returned area becomes the forwarded restriction, which is
    /// what guarantees every peer is reached at most once.
    fn region_intersect(
        &self,
        region: &Self::Region,
        restriction: &Self::Region,
    ) -> Option<Self::Region>;

    /// The links of `peer` with their regions, resolved to live targets.
    /// The regions of all links plus the peer's zone partition the domain.
    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Self::Region)>;

    /// Number of peers currently in the overlay. The executor uses it to
    /// pre-size the per-query visited set (one entry per peer in the worst
    /// case — broadcast visits everyone) and the parallel engine to shard
    /// it; an estimate is fine, correctness never depends on the value.
    fn peer_count(&self) -> usize;

    /// The tuples stored at `peer`.
    fn peer_tuples(&self, peer: PeerId) -> &[Tuple];

    /// The local view query processing sees at `peer`.
    ///
    /// Substrates whose peers keep their tuples in a [`PeerStore`] should
    /// override this to return [`LocalView::Indexed`], which lets query
    /// implementations use the store's local index layer (columnar block
    /// mirror, incremental skyline) instead of scanning slices. The default
    /// plain view is always correct — the index layer is a pure wall-clock
    /// optimisation and never changes results or hop/message metrics.
    ///
    /// [`PeerStore`]: ripple_net::PeerStore
    fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
        LocalView::Plain(self.peer_tuples(peer))
    }

    /// Routes a DHT lookup for `key` from `from`, returning the responsible
    /// peer and the hop count, when the substrate supports point lookups.
    ///
    /// Query drivers use this to move processing to the most promising peer
    /// (e.g. the owner of a unimodal score's peak) before rippling outward;
    /// the hops are charged to the query like any other messages.
    fn route_lookup(&self, _from: PeerId, _key: &ripple_geom::Point) -> Option<(PeerId, u32)> {
        None
    }

    /// The volume a region occupies in the domain, in the same units as
    /// `region_volume(&full_region())`. The fault-aware executor divides the
    /// two to report what fraction of the domain an abandoned restriction
    /// area represents; it is never used on the fault-free path.
    fn region_volume(&self, region: &Self::Region) -> f64;

    /// The region as a set of disjoint axis-aligned boxes, for the
    /// substrate-neutral certificate tiles handed to `ripple-verify`
    /// (MIDAS: the region *is* a box; Chord: the arc's key-space segments).
    /// Total box volume must equal `region_volume(region)`.
    fn region_rects(&self, region: &Self::Region) -> Vec<Rect>;

    /// A counter identifying the overlay snapshot (membership, stored
    /// tuples, replica ledger) the query ran against, bumped by every
    /// mutation. Certificates are stamped with it so a verifier rejects a
    /// certificate replayed against a different snapshot. Substrates
    /// without mutation tracking report a constant `0`.
    fn snapshot_generation(&self) -> u64 {
        0
    }

    /// Whether `peer` is currently able to process queries. Substrates
    /// without a failure model are always fully live (the default); crash-
    /// aware substrates report `false` for peers whose zones are orphaned,
    /// which is how the executor *detects* a failed forward — links
    /// deliberately keep resolving to their last known (possibly dead)
    /// target, exactly like a real routing table with stale entries.
    fn is_peer_live(&self, _peer: PeerId) -> bool {
        true
    }

    /// An alternate live peer able to adopt (part of) the restriction area
    /// `region` after its original target proved unreachable, excluding the
    /// already-`tried` targets. Returns the peer together with the
    /// sub-region it can *canonically* cover — i.e. propagation entered at
    /// that peer visits exactly the peers of the sub-region, each once, and
    /// never leaves it. Substrates whose regions are entry-order-free return
    /// `region` unchanged (MIDAS: any zone-in-box peer covers the box);
    /// order-sensitive substrates may trim (Chord: a mid-arc peer cannot
    /// reach the arc's prefix without leaving it, so the prefix — dead
    /// zones, or it would have been chosen — is cut off). The executor
    /// accounts whatever is trimmed as unreachable. The choice must be
    /// deterministic. `None` (the default, and the answer once candidates
    /// are exhausted) abandons the whole area.
    fn failover_target(
        &self,
        _region: &Self::Region,
        _tried: &[PeerId],
    ) -> Option<(PeerId, Self::Region)> {
        None
    }

    /// The peers that should hold the `k` replicas of `peer`'s tuples —
    /// the substrate's own link structure reused as the replica topology
    /// (Chord: the first `k` live ring successors; MIDAS: sibling/buddy-box
    /// peers, deepest link first). Must be deterministic; must not include
    /// `peer` itself. The default (no replication support) is empty.
    fn replica_targets(&self, _peer: PeerId, _k: usize) -> Vec<PeerId> {
        Vec::new()
    }

    /// The overlay's replica ledger, when replication is enabled
    /// ([`ReplicaSet`] with `k ≥ 1` captured copies). The executor reads it
    /// — never writes — when a failover target adopts a dead peer's
    /// sub-region: the region is answered from the replica instead of being
    /// abandoned. `None` (the default) means every recovery is skipped and
    /// the executor behaves bit-identically to the replication-free one.
    fn replicas(&self) -> Option<&ReplicaSet> {
        None
    }

    /// The overlay's quarantine registry for peers caught lying by the
    /// online response audit, when the substrate tracks one. The executor
    /// snapshots it before each query (quarantined peers are treated like
    /// dead peers: skipped straight to failover, excluded from failover
    /// candidacy) and flushes the query's merged audit verdicts through it
    /// afterwards. `None` (the default) disables quarantine entirely —
    /// audits still discard tainted contributions, but nothing is
    /// remembered across queries.
    fn quarantine(&self) -> Option<&Quarantine> {
        None
    }

    /// The dead peers whose (orphaned, unrepaired) zones intersect `region`,
    /// each with the volume of the intersection, in a deterministic overlay
    /// order. The executor calls this at abandonment time to decide which
    /// owners' replicas can stand in for the lost volume; keying recovery by
    /// the abandoned region (itself keyed by the failed edge) is what keeps
    /// `replica_hits` schedule-free under the parallel engine. The default
    /// (no failure model) is empty.
    fn dead_zones_in(&self, _region: &Self::Region) -> Vec<(PeerId, f64)> {
        Vec::new()
    }

    /// The zones of the listed *live* peers that intersect `region`, each
    /// with the volume of the intersection, in a deterministic overlay
    /// order — the quarantine twin of [`dead_zones_in`]: a quarantined peer
    /// is alive but untrusted, so its zone never shows up as an orphan, yet
    /// the executor must still re-answer it from a replica (or report it
    /// unreachable) when delivery routes around the peer. The peer list is
    /// always the query's immutable quarantine snapshot, never the live
    /// registry, so the result cannot change mid-walk. The default (no
    /// zone geometry) is empty.
    ///
    /// [`dead_zones_in`]: RippleOverlay::dead_zones_in
    fn peer_zones_in(&self, _peers: &[PeerId], _region: &Self::Region) -> Vec<(PeerId, f64)> {
        Vec::new()
    }
}

/// How much of the domain a query execution actually answered.
///
/// On the fault-free path this is always [`Coverage::full`]. Under injected
/// faults, every restriction area the executor had to abandon — all
/// retransmissions timed out and no failover candidate was left — is
/// recorded here instead of being silently dropped: a degraded answer is
/// acceptable, an unreported one is not.
#[derive(Clone, Debug, PartialEq)]
pub struct Coverage {
    /// Fraction of the domain volume whose responsible peers contributed
    /// their local answers (`1.0` = complete).
    pub answered_fraction: f64,
    /// Domain-volume fractions of the abandoned restriction areas, in
    /// abandonment order. Empty iff the execution was complete.
    pub unreachable: Vec<f64>,
}

impl Coverage {
    /// Complete coverage: the whole domain answered, nothing abandoned.
    pub fn full() -> Self {
        Self {
            answered_fraction: 1.0,
            unreachable: Vec::new(),
        }
    }

    /// True when no restriction area was abandoned.
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }

    /// Coverage from the per-abandonment domain fractions, with the
    /// answered fraction derived by compensated (Neumaier) summation —
    /// the single place the executor turns unreachable volume into a
    /// fraction, shared in spirit with `ripple-verify`'s tiling checker so
    /// both sides agree to the last bit on many-term sums.
    pub fn from_unreachable(unreachable: Vec<f64>) -> Self {
        let lost = neumaier(unreachable.iter().copied());
        Self {
            answered_fraction: (1.0 - lost).clamp(0.0, 1.0),
            unreachable,
        }
    }
}

/// The six abstract functions a rank query plugs into RIPPLE
/// (Section 3.1), named after the paper's pseudo-code.
pub trait RankQuery<R> {
    /// The global state `S^G`: the view of query progress forwarded along
    /// with the query.
    type Global: Clone;
    /// The local state `S^L`: information collected at one peer (and states
    /// it explicitly requested).
    type Local;

    /// The neutral global state the initiator starts from.
    fn initial_global(&self) -> Self::Global;

    /// `computeLocalState`: derive a local state from the peer's tuples and
    /// the received global state. The view exposes the peer's tuples — and,
    /// on indexed substrates, the per-peer index layer as a fast path.
    fn compute_local_state(&self, view: &LocalView<'_>, global: &Self::Global) -> Self::Local;

    /// `computeGlobalState`: combine the *received* global state with the
    /// current local state.
    fn compute_global_state(&self, global: &Self::Global, local: &Self::Local) -> Self::Global;

    /// `updateLocalState`: merge several local states into one.
    fn update_local_state(&self, states: Vec<Self::Local>) -> Self::Local;

    /// `computeLocalAnswer`: the peer's qualifying tuples under its final
    /// local state; these are sent to the initiator.
    fn compute_local_answer(&self, view: &LocalView<'_>, local: &Self::Local) -> Vec<Tuple>;

    /// `isLinkRelevant` (second check): may the given (already
    /// restriction-intersected) region contribute to the answer, given the
    /// global state? The first check — overlap with the restriction area —
    /// is performed by the framework via `region_intersect`.
    fn is_link_relevant(&self, region: &R, global: &Self::Global) -> bool;

    /// `comp`: the priority of a region; `slow`/`ripple` visit links in
    /// decreasing priority.
    fn priority(&self, region: &R) -> f64;

    /// Number of tuples carried by a local-state response message
    /// (communication-volume accounting; 0 for scalar states).
    fn state_payload(&self, _local: &Self::Local) -> usize {
        0
    }

    /// The evidence that pruning `region` under `global` was sound, recorded
    /// in the answer certificate whenever `is_link_relevant` returns false.
    /// Checkable query types return a concrete witness (a score bound, a
    /// dominating tuple, a φ lower bound, constraint disjointness); the
    /// default [`PruneWitness::Opaque`] marks the tile as tiling-only — the
    /// volume still participates in the partition check, but no bound is
    /// re-derivable.
    fn prune_witness(&self, _region: &R, _global: &Self::Global) -> PruneWitness {
        PruneWitness::Opaque
    }
}

/// Result of one distributed query execution.
pub struct QueryOutcome<L> {
    /// The local answers of every visited peer, as received by the
    /// initiator. Query-specific post-processing (take-top-k, final skyline,
    /// arg-min φ) turns these into the final answer.
    pub answers: Vec<Tuple>,
    /// The initiator's final local state.
    pub state: L,
    /// The cost ledger of the execution.
    pub metrics: QueryMetrics,
    /// How much of the domain the execution covered. [`Coverage::full`]
    /// unless faults forced the executor to abandon restriction areas.
    pub coverage: Coverage,
    /// The snapshot-scoped answer certificate: a tiling of the query domain
    /// into scanned / pruned / replica-served / unreachable tiles with
    /// per-tile witnesses, checkable by `ripple-verify` without trusting
    /// the executor. `None` when emission was disabled
    /// (`Executor::without_certificates`).
    pub certificate: Option<Certificate>,
}

/// Ablation wrapper: the wrapped query with link prioritisation disabled
/// (`comp` returns a constant, so `slow`/`ripple` visit links in arbitrary
/// order). Isolates how much of RIPPLE's practical performance comes from
/// the `sortLinks` guidance versus the state-based pruning alone.
pub struct Unprioritized<Q>(pub Q);

impl<R, Q: RankQuery<R>> RankQuery<R> for Unprioritized<Q> {
    type Global = Q::Global;
    type Local = Q::Local;

    fn initial_global(&self) -> Self::Global {
        self.0.initial_global()
    }

    fn compute_local_state(&self, view: &LocalView<'_>, global: &Self::Global) -> Self::Local {
        self.0.compute_local_state(view, global)
    }

    fn compute_global_state(&self, global: &Self::Global, local: &Self::Local) -> Self::Global {
        self.0.compute_global_state(global, local)
    }

    fn update_local_state(&self, states: Vec<Self::Local>) -> Self::Local {
        self.0.update_local_state(states)
    }

    fn compute_local_answer(&self, view: &LocalView<'_>, local: &Self::Local) -> Vec<Tuple> {
        self.0.compute_local_answer(view, local)
    }

    fn is_link_relevant(&self, region: &R, global: &Self::Global) -> bool {
        self.0.is_link_relevant(region, global)
    }

    fn priority(&self, _region: &R) -> f64 {
        0.0
    }

    fn state_payload(&self, local: &Self::Local) -> usize {
        self.0.state_payload(local)
    }

    fn prune_witness(&self, region: &R, global: &Self::Global) -> PruneWitness {
        self.0.prune_witness(region, global)
    }
}

/// The execution mode of Algorithm 3, determined by the ripple parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `r = 0`: Algorithm 1 — all relevant links contacted at once.
    Fast,
    /// `r ≥ Δ`: Algorithm 2 — links visited sequentially, state folded in
    /// after every visit.
    Slow,
    /// General Algorithm 3 with the given ripple parameter.
    Ripple(u32),
    /// Naive processing (Section 1): flood every peer regardless of state,
    /// collect every local answer. The lower bound on latency and the upper
    /// bound on communication.
    Broadcast,
}

impl Mode {
    /// The effective ripple parameter (`u32::MAX` stands in for "≥ Δ").
    pub fn r(&self) -> u32 {
        match self {
            Mode::Fast | Mode::Broadcast => 0,
            Mode::Slow => u32::MAX,
            Mode::Ripple(r) => *r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Coverage;

    #[test]
    fn coverage_fraction_is_exact_over_ten_thousand_tiny_regions() {
        // 10k losses of 2⁻⁵⁴ each on top of one 0.5 loss: a naive left-fold
        // absorbs every tiny term into the big one (0.5 + 2⁻⁵⁴ rounds to
        // even, back to 0.5) and reports half the domain answered; the
        // compensated sum keeps all 10k bits.
        let tiny = 2f64.powi(-54);
        let mut unreachable = vec![0.5];
        unreachable.extend(std::iter::repeat_n(tiny, 10_000));
        let naive: f64 = unreachable.iter().sum();
        assert_eq!(naive, 0.5, "the naive sum drops every tiny region");
        let cov = Coverage::from_unreachable(unreachable);
        let exact = 0.5 - 10_000.0 * tiny;
        assert_eq!(
            cov.answered_fraction, exact,
            "compensated summation must recover all 10k terms"
        );
        assert!(!cov.is_complete());
        assert_eq!(cov.unreachable.len(), 10_001);
    }

    #[test]
    fn coverage_from_unreachable_clamps_and_preserves_order() {
        let cov = Coverage::from_unreachable(vec![0.7, 0.6]);
        assert_eq!(cov.answered_fraction, 0.0, "over-reported loss clamps");
        assert_eq!(cov.unreachable, vec![0.7, 0.6], "abandonment order kept");
        assert_eq!(Coverage::from_unreachable(Vec::new()), Coverage::full());
    }
}
