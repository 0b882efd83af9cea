//! The three RIPPLE propagation templates (Algorithms 1–3).
//!
//! The executor walks the overlay *recursively in simulation*: a recursive
//! call stands for a query message, and the return stands for the response.
//! Latency is accounted exactly as the proofs of Lemmas 1–3 count hops:
//!
//! * `fast` (Alg. 1) forwards to all relevant links at once, so a peer's
//!   completion time is `1 + max(children)`;
//! * `slow` (Alg. 2) visits one link at a time and waits for its state
//!   response before the next, so completion is `Σ (1 + child)`;
//! * `ripple` (Alg. 3) runs `slow` while the hop budget `r` lasts and
//!   `fast` below it.
//!
//! Response messages (local states, local answers) are tallied in the
//! message counters but add no hops, mirroring the Lemma accounting.
//! Restriction areas are threaded through every forwarding step, so each
//! peer processes a query at most once; a second visit is counted as an
//! always-on anomaly ([`QueryMetrics::duplicate_visits`]) instead of being
//! audited only in debug builds.
//!
//! # Fault-aware delivery
//!
//! The executor is optionally driven by a [`FaultPlane`]: each query-forward
//! transmission then passes through [`Executor::deliver`], which simulates
//! message drops, per-hop timeouts with exponentially backed-off
//! retransmissions, slow-peer delivery penalties, and — when a target stays
//! unreachable — failover to an alternate live peer inside the same
//! restriction area. When no candidate is left the area is *abandoned* and
//! its domain volume is reported in [`QueryOutcome::coverage`]: execution
//! degrades gracefully, never panics, and never pretends a partial answer is
//! complete. With [`FaultPlane::none`] the delivery path short-circuits to
//! exactly one `forward()` and one hop, making the fault-aware executor
//! observationally identical to the historical fault-unaware one (enforced
//! bit-for-bit by the equivalence tests).
//!
//! # Intra-query parallel execution
//!
//! `fast` and `broadcast` are *defined* as contacting all relevant links in
//! parallel — the simulated latency is already `1 + max(children)` — yet a
//! recursive walk explores the fan-out tree on one core.
//! [`Executor::run_parallel`] executes the independent restriction-area
//! subtrees of the fast templates concurrently on a scoped work-stealing
//! pool ([`ripple_net::pool`]) while keeping the run **bit-identical** to
//! [`Executor::run`]:
//!
//! * fault decisions are *addressable*: [`FaultSession`] keys every drop
//!   verdict by `(query stream, sender, target, attempt)`, so a parallel
//!   walk draws exactly the decisions a sequential walk would — no global
//!   draw order exists for scheduling to perturb;
//! * every branch accumulates into its own [`BranchLedger`] and parents reduce
//!   children in **link order**, which restores the sequential executor's
//!   visit trace (pre-order), answer stream (post-order), abandonment order
//!   and counters exactly;
//! * duplicate-visit detection runs against a [`ShardedVisited`] set whose
//!   total anomaly count (`visits − distinct peers`) is schedule-free.
//!
//! Both engines run one set of templates — `fast`, `ripple` and
//! `broadcast`, each written once against a private fan-out trait. The
//! sequential fan walks a peer's relevant links inline; the parallel fan
//! forks one pool task per link once a peer has two or more. `slow` is
//! `ripple(∞)`: the same template with a hop budget no walk exhausts. Its
//! links wait for each other's state responses, so it never forks and runs
//! on the caller in both engines; `ripple(r)` forks only in its fast phase
//! below the budget.

use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{neumaier, KernelDispatch, Tuple};
use ripple_net::hash::{fx_set_with_capacity, FxHashSet};
use ripple_net::pool::{self, Pool};
use ripple_net::{
    scan, BranchLedger, CorruptionMode, CorruptionPlane, CorruptionSession, FaultPlane,
    FaultSession, LocalView, PeerId, QuarantineSnapshot, QueryMetrics, ReplicaSet, ShardedVisited,
};
use ripple_verify::{
    audit_response, audit_witness, CertRegion, Certificate, PruneWitness, ResponseEnvelope,
};
use std::cell::RefCell;
use std::sync::Arc;

/// The local answer a failover adopter computes *on behalf of* a dead peer
/// from a replica of its tuples: the same two query functions a live peer
/// would run, over a plain view of the copy, under the global state the
/// failed forward carried. Answering with a (possibly weaker) upstream
/// global state can only widen the answer — never drop a qualifying tuple —
/// so recovery is recall-safe for every query type.
fn replica_answer<R, Q: RankQuery<R>>(
    query: &Q,
    tuples: &[Tuple],
    global: &Q::Global,
) -> Vec<Tuple> {
    let view = LocalView::Plain(tuples);
    let local = query.compute_local_state(&view, global);
    query.compute_local_answer(&view, &local)
}

/// Runs `f` with the thread-local scan accounting of [`ripple_net::scan`]
/// bracketed around it, draining the tuples-scanned / blocks-pruned counts
/// into `metrics`. When `trace` is off the bracket is skipped entirely and
/// the `scan::add_*` calls inside the query functions stay no-ops — the
/// data-plane counters are strictly zero-cost for aggregate-only sweeps.
fn with_scan<T>(trace: bool, metrics: &mut QueryMetrics, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    scan::begin();
    let out = f();
    let c = scan::end();
    metrics.tuples_scanned += c.tuples_scanned;
    metrics.blocks_pruned += c.blocks_pruned;
    metrics.memtable_hits += c.memtable_hits;
    metrics.tombstones_masked += c.tombstones_masked;
    metrics.compactions_run += c.compactions_run;
    metrics.write_amplification += c.rows_rewritten;
    out
}

/// Everything one query execution needs to decide per-edge fault and
/// corruption outcomes and per-peer quarantine standing. Immutable for the
/// whole walk — both fault streams are keyed (not drawn in order) and the
/// quarantine snapshot is frozen before the first hop — so sequential and
/// parallel engines observe identical decisions.
struct QuerySession {
    /// Omission faults: drops, slow peers, timeouts.
    faults: FaultSession,
    /// Commission faults: the per-edge corrupted-response stream.
    corrupt: CorruptionSession,
    /// The peer the query started at; its own deposits are never audited
    /// (a peer cannot usefully lie to itself).
    initiator: PeerId,
    /// The quarantine registry frozen at query start.
    qsnap: QuarantineSnapshot,
}

/// Executes RIPPLE queries over an overlay.
pub struct Executor<'a, O> {
    net: &'a O,
    /// When set, peers are handed plain tuple slices even on indexed
    /// substrates — the scalar scan paths, with no index or block mirror.
    /// The reference arm of the index and kernel equivalence suites and
    /// benchmarks; results and metrics must not differ.
    naive: bool,
    /// The fault-injection policy ([`FaultPlane::none`] by default).
    plane: FaultPlane,
    /// The per-query decision stream opened on the plane by each `run`.
    stream: u64,
    /// Whether ledgers retain the visit trace (on by default; sweeps that
    /// only aggregate turn it off to keep ledgers O(1) in network size).
    trace: bool,
    /// Whether failover may answer an abandoned region from a replica when
    /// the overlay maintains a [`ripple_net::ReplicaSet`] (on by default;
    /// with no replica set configured this flag is inert, so the executor
    /// stays bit-identical to the replica-unaware one).
    use_replicas: bool,
    /// The kernel dispatch arm (scalar / SIMD / auto) every blocked view
    /// handed out by this executor runs its scans on. `Auto` by default;
    /// the equivalence suites pin both forced arms against each other.
    dispatch: KernelDispatch,
    /// Whether executions emit an answer [`Certificate`] (on by default).
    /// Emission is plan-invisible: answers, metrics and coverage are
    /// bit-identical with certificates on or off — the ablation suite
    /// enforces it against [`Executor::without_certificates`].
    certificates: bool,
    /// The commission-fault policy ([`CorruptionPlane::none`] by default):
    /// remote answer deposits and prune witnesses pass through a seeded,
    /// per-edge-keyed corruption stream before the initiator sees them.
    corruption: CorruptionPlane,
    /// Whether every remote contribution is audited against the responder's
    /// authoritative store before merging (on by default). Off is the
    /// ablation arm that demonstrates poisoning: corrupted responses land
    /// in the final answer unchallenged.
    audit: bool,
}

impl<'a, O: RippleOverlay> Executor<'a, O> {
    /// Creates an executor over `net`.
    pub fn new(net: &'a O) -> Self {
        Self {
            net,
            naive: false,
            plane: FaultPlane::none(),
            stream: 0,
            trace: true,
            use_replicas: true,
            dispatch: KernelDispatch::Auto,
            certificates: true,
            corruption: CorruptionPlane::none(),
            audit: true,
        }
    }

    /// Creates an executor that ignores per-peer indexes and scans, exactly
    /// like the pre-index code paths.
    pub fn naive(net: &'a O) -> Self {
        Self::new(net).without_index()
    }

    /// Creates a fault-aware executor. Each `run` opens the plane's decision
    /// stream `stream`, so a given (plane, stream, query) triple replays
    /// bit-identically; sweeps vary `stream` per query.
    pub fn with_faults(net: &'a O, plane: FaultPlane, stream: u64) -> Self {
        Self {
            plane,
            stream,
            ..Self::new(net)
        }
    }

    /// Disables visit-trace retention in the produced ledgers (counts are
    /// unaffected). For aggregate-only sweeps over large overlays.
    pub fn without_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Disables replica recovery even when the overlay maintains a replica
    /// set: abandoned regions are reported unreachable exactly as the
    /// replica-unaware executor reports them. Used by equivalence tests and
    /// ablation sweeps.
    pub fn without_replicas(mut self) -> Self {
        self.use_replicas = false;
        self
    }

    /// Hands every peer a plain tuple slice, as [`Executor::naive`] does,
    /// on an executor built any other way (e.g. fault-aware). The scalar
    /// reference arm of the kernel equivalence suites under fault planes.
    pub fn without_index(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Disables answer-certificate emission: [`QueryOutcome::certificate`]
    /// is `None` and no tile or witness is ever constructed. The ablation
    /// arm of the certificate suite — answers, metrics and coverage must be
    /// bit-identical to the certifying executor — and the baseline arm of
    /// the certificate-overhead benchmark.
    pub fn without_certificates(mut self) -> Self {
        self.certificates = false;
        self
    }

    /// Drives remote responses through a commission-fault plane: each
    /// non-initiator answer deposit and prune witness is corrupted with the
    /// plane's probability, keyed by `(responder, initiator)` on the
    /// executor's stream — replayable and schedule-free exactly like the
    /// omission-fault streams. With [`CorruptionPlane::none`] (the default)
    /// the corruption path short-circuits entirely.
    pub fn with_corruption(mut self, plane: CorruptionPlane) -> Self {
        self.corruption = plane;
        self
    }

    /// Disables the online response audit: remote contributions are merged
    /// as received, so an active corruption plane poisons the final answer.
    /// The ablation arm of the poisoning benchmark and mutation harness.
    pub fn without_audit(mut self) -> Self {
        self.audit = false;
        self
    }

    /// Pins the kernel dispatch arm of every blocked scan this executor's
    /// views perform (`Auto` by default). Results, answers and ledgers are
    /// bit-identical on every arm — the kernel contract — which the
    /// equivalence suites verify by running forced-scalar against
    /// forced-SIMD executors.
    pub fn with_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The overlay this executor runs over.
    pub fn network(&self) -> &'a O {
        self.net
    }

    /// Opens one query's walk from `initiator`, with its immutable
    /// fault/corruption/quarantine session on this executor's stream.
    fn walk<'s, Q>(&'s self, initiator: PeerId, query: &'s Q) -> Walk<'s, O, Q> {
        assert!(
            self.net.is_peer_live(initiator),
            "query initiated at a crashed peer {initiator}"
        );
        let sess = QuerySession {
            faults: self.plane.session(self.stream),
            corrupt: self.corruption.session(self.stream),
            initiator,
            qsnap: self
                .net
                .quarantine()
                .map(|q| q.snapshot())
                .unwrap_or_default(),
        };
        Walk {
            exec: self,
            query,
            sess,
        }
    }

    /// An empty ledger for the walk or one of its forked branches.
    fn ledger(&self) -> BranchLedger {
        BranchLedger::with_certificates(self.trace, self.certificates)
    }

    /// Closes a finished walk into its outcome. The merged audit verdicts
    /// are flushed into the overlay's quarantine registry (tainted-wins per
    /// peer, order-free), crediting newly quarantined peers to the ledger;
    /// the absolute abandoned volumes become the outcome's [`Coverage`]; and
    /// the tile stream is sealed into its [`Certificate`], stamped with the
    /// overlay's snapshot generation.
    fn finish<L>(&self, state: L, latency: u64, mut ledger: BranchLedger) -> QueryOutcome<L> {
        if let Some(q) = self.net.quarantine().filter(|_| !ledger.audits.is_empty()) {
            ledger.metrics.quarantined_peers += q.apply(&ledger.audits);
        }
        let mut metrics = ledger.metrics;
        metrics.latency = latency;
        let full_vol = self.net.region_volume(&self.net.full_region());
        let coverage = if ledger.unreachable.is_empty() {
            Coverage::full()
        } else {
            Coverage::from_unreachable(ledger.unreachable.iter().map(|v| v / full_vol).collect())
        };
        let certificate = ledger.cert.map(|regions| Certificate {
            generation: self.net.snapshot_generation(),
            domain_volume: full_vol,
            regions,
        });
        QueryOutcome {
            answers: ledger.answers,
            state,
            metrics,
            coverage,
            certificate,
        }
    }

    /// The view of `peer`'s tuples handed to the query functions. Indexed
    /// views are re-stamped with this executor's kernel dispatch arm.
    fn view_of(&self, peer: PeerId) -> LocalView<'_> {
        if self.naive {
            return LocalView::Plain(self.net.peer_tuples(peer));
        }
        match self.net.peer_view(peer) {
            LocalView::Indexed(store, _) => LocalView::Indexed(store, self.dispatch),
            view => view,
        }
    }

    /// Records the *zone* tile of a visited peer: the part of its
    /// restriction area covered by no intersected link. Links plus zone
    /// partition the whole domain, so within the restriction the zone's
    /// volume is exactly the restriction volume minus the link volumes
    /// (compensated sum — tile counts run into the thousands under
    /// broadcast). No-op when certificate emission is off.
    ///
    /// Returns the tile's index in the branch's certificate stream so a
    /// later failed deposit audit can rewrite the tile in place (the
    /// audited-out zone becomes replica-served or unreachable).
    fn certify_scan(
        &self,
        w: PeerId,
        restriction: &O::Region,
        links: &[(PeerId, O::Region)],
        ledger: &mut BranchLedger,
    ) -> Option<usize> {
        ledger.cert.as_ref()?;
        let covered = neumaier(links.iter().map(|(_, r)| self.net.region_volume(r)));
        let volume = self.net.region_volume(restriction) - covered;
        ledger.certify(|| CertRegion::Scanned {
            peer: w.index() as u64,
            volume,
        });
        ledger.cert.as_ref().map(|c| c.len() - 1)
    }

    /// Records a pruned-link tile with the query's evidence that skipping
    /// the region was sound. No-op when certificate emission is off.
    ///
    /// The commission-fault plane taps this path: a lying peer reports a
    /// corrupted numeric bound for the witness. When auditing is on the
    /// claimed bound is checked against the honestly recomputed one — a
    /// mismatch taints the peer and the *honest* witness is emitted (the
    /// pruned region itself needs no re-query: pruning soundness depends
    /// only on the recomputed bound). When auditing is off the corrupted
    /// witness lands in the certificate, where the offline verifier fails
    /// it with `WitnessMismatch`.
    fn certify_pruned<Q: RankQuery<O::Region>>(
        &self,
        query: &Q,
        w: PeerId,
        region: &O::Region,
        global: &Q::Global,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
    ) {
        if ledger.cert.is_none() {
            return;
        }
        let honest = query.prune_witness(region, global);
        let witness = if w != sess.initiator && sess.corrupt.lies_about_witness(w, sess.initiator) {
            corrupt_witness(&honest)
        } else {
            honest.clone()
        };
        let emitted = if self.audit && sess.corrupt.active() {
            ledger.metrics.audits_run += 1;
            if audit_witness(&witness, &honest).is_err() {
                ledger.metrics.audits_failed += 1;
                ledger.audits.push((w, true));
                honest
            } else {
                witness
            }
        } else {
            witness
        };
        let entry = CertRegion::Pruned {
            rects: self.net.region_rects(region),
            volume: self.net.region_volume(region),
            witness: emitted,
        };
        ledger.certify(|| entry);
    }

    /// Processes `query` from `initiator` in the given mode, returning the
    /// collected answers, the initiator's final state and the cost ledger.
    pub fn run<Q>(&self, initiator: PeerId, query: &Q, mode: Mode) -> QueryOutcome<Q::Local>
    where
        Q: RankQuery<O::Region>,
    {
        let seq = Seq {
            walk: self.walk(initiator, query),
            // Worst case every peer is visited (broadcast); pre-sizing from
            // the overlay keeps the hot set from rehashing mid-query.
            visited: RefCell::new(fx_set_with_capacity(self.net.peer_count())),
        };
        let mut ledger = self.ledger();
        let (state, latency) = seq.start(initiator, mode, &mut ledger);
        self.finish(state, latency, ledger)
    }

    /// Processes `query` like [`run`](Executor::run), but executes the
    /// independent restriction-area subtrees of the *fast* templates
    /// (`Fast`, `Broadcast`, and the fast phase of `Ripple(r)`) concurrently
    /// on a scoped work-stealing pool of `threads` participants.
    ///
    /// The outcome is **bit-identical** to the sequential one — same
    /// answers, same [`QueryMetrics`] including the visit trace, same
    /// [`Coverage`] — for every mode, fault plane and thread count; the
    /// equivalence suite enforces this. With `threads <= 1` this *is* the
    /// sequential engine; `Mode::Slow` (every link waits for the previous
    /// state response) never forks and runs on the caller.
    ///
    /// [`QueryMetrics`]: ripple_net::QueryMetrics
    pub fn run_parallel<Q>(
        &self,
        initiator: PeerId,
        query: &Q,
        mode: Mode,
        threads: usize,
    ) -> QueryOutcome<Q::Local>
    where
        O: Sync,
        O::Region: Send,
        Q: RankQuery<O::Region> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        if threads <= 1 {
            return self.run(initiator, query, mode);
        }
        let ctx = ParCtx {
            walk: self.walk(initiator, query),
            visited: ShardedVisited::new(self.net.peer_count(), threads * 4),
        };
        let (state, latency, ledger) = pool::scope(threads - 1, |pool| {
            let mut ledger = self.ledger();
            let (state, latency) = Par { ctx: &ctx, pool }.start(initiator, mode, &mut ledger);
            (state, latency, ledger)
        });
        self.finish(state, latency, ledger)
    }

    /// Simulates the retransmission loop of the edge `sender → target`:
    /// `1 + max_retries` send attempts, each lost to the network with the
    /// plane's drop probability (or unacknowledged outright when the target
    /// is dead), each loss costing the sender a timeout wait that backs off
    /// exponentially. Returns `(elapsed, delivered)` — the simulated hops
    /// that passed at the sender and whether the message was eventually
    /// processed (in which case `elapsed` includes the final transit hop and
    /// the target's slow-peer penalty).
    ///
    /// Each attempt's drop verdict comes from the fault session's stream
    /// keyed by `(sender, target, attempt)` — no draw-order state exists, so
    /// sequential and parallel walks of the same tree see the same losses.
    fn transmit(
        &self,
        sender: PeerId,
        target: PeerId,
        faults: &FaultSession,
        ledger: &mut BranchLedger,
    ) -> (u64, bool) {
        let alive = self.net.is_peer_live(target);
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        loop {
            ledger.metrics.forward();
            // `&&` short-circuits: sends to a dead peer are lost without
            // consulting the drop stream (the keyed verdict for that edge is
            // simply never asked for).
            if alive && !faults.drops_message(sender, target, attempt) {
                return (elapsed + 1 + faults.slow_penalty(target), true);
            }
            if alive {
                ledger.metrics.messages_dropped += 1;
            }
            ledger.metrics.timeouts += 1;
            elapsed += faults.timeout() << attempt.min(16);
            if attempt >= faults.max_retries() {
                return (elapsed, false);
            }
            attempt += 1;
            ledger.metrics.retries += 1;
        }
    }

    /// The overlay's replica set, when failover may answer from it: replica
    /// recovery is on and the set holds copies at a degree `k > 0`.
    fn replica_set(&self) -> Option<&'a ReplicaSet> {
        self.net
            .replicas()
            .filter(|set| self.use_replicas && set.k() > 0 && !set.is_empty())
    }

    /// Re-answers `owner`'s zone from its replica when a live holder has
    /// one: one forward message, the payload charged to `replica_bytes` (a
    /// stale read when the copy lags the owner's store), and the query's
    /// local functions run over the copy via `answer`, appended to the
    /// ledger where the owner's own answer would land. Returns `false`,
    /// charging nothing, when no live holder has a copy.
    fn read_replica<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        set: &ReplicaSet,
        owner: PeerId,
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> bool {
        let Some(rep) = set.get(owner) else {
            return false;
        };
        if !rep.holders().iter().any(|&h| self.net.is_peer_live(h)) {
            return false;
        }
        ledger.metrics.forward();
        ledger.metrics.replica_hits += 1;
        if set.is_stale(rep) {
            ledger.metrics.stale_reads += 1;
        }
        ledger.metrics.replica_bytes += rep.payload_bytes();
        let ans = with_scan(self.trace, &mut ledger.metrics, || answer(rep.tuples()));
        ledger.answer(ans);
        true
    }

    /// Answers the dead zones of an abandoned (part of a) restriction area
    /// from the overlay's replica set, if one is maintained: each dead zone
    /// inside `region` whose owner has a copy on a live holder is answered
    /// by [`Executor::read_replica`] and certified as a replica tile. `kept`
    /// is the part of the region failover *did* cover — dead zones falling
    /// inside it will be answered by the adopted subtree itself and are
    /// skipped here, so no tuple is recovered twice. Returns the total
    /// dead-zone volume recovered; the caller subtracts it from the
    /// would-be unreachable volume.
    ///
    /// Replica fetches add messages and bytes but no simulated hops: the
    /// adopter overlaps the fetch with the waits already charged by the
    /// failed retransmissions.
    fn recover_region<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        region: &O::Region,
        kept: Option<&O::Region>,
        excluded: &[PeerId],
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> f64 {
        let Some(set) = self.replica_set() else {
            return 0.0;
        };
        // Owners whose dead (or quarantined) zone survives in the kept
        // part: the adopted subtree recovers those itself (its own deliver
        // failures will land here again with the smaller region).
        let downstream: Vec<PeerId> = match kept {
            Some(kept) => self
                .net
                .dead_zones_in(kept)
                .into_iter()
                .chain(self.net.peer_zones_in(excluded, kept))
                .map(|(owner, _)| owner)
                .collect(),
            None => Vec::new(),
        };
        // Dead zones first, quarantined zones after — a fixed order on data
        // that cannot change mid-query (orphans under the epoch handshake,
        // `excluded` from the immutable session snapshot), so sequential
        // and parallel recoveries agree tile for tile.
        let candidates = self
            .net
            .dead_zones_in(region)
            .into_iter()
            .chain(self.net.peer_zones_in(excluded, region));
        let mut recovered = 0.0;
        for (owner, vol) in candidates {
            if downstream.contains(&owner) || !self.read_replica(set, owner, ledger, answer) {
                continue;
            }
            ledger.certify(|| CertRegion::Replica {
                owner: owner.index() as u64,
                volume: vol,
            });
            recovered += vol;
        }
        recovered
    }

    /// The coordinates of a fabricated tuple: the max corner of the first
    /// rectangle of the restriction area the lying peer was handed. The
    /// corner maximizes monotone scores, so an unaudited executor ranks the
    /// forgery at the top — the worst-case poisoning.
    fn fabricated_point(&self, restriction: &O::Region) -> Option<Vec<f64>> {
        self.net
            .region_rects(restriction)
            .first()
            .map(|r| r.hi().coords().to_vec())
    }

    /// Deposits a peer's local answer into the branch ledger, passing it
    /// through the commission-fault plane and the online audit on the way.
    ///
    /// The initiator's own deposit is merged directly, and with no active
    /// corruption plane and no probation peer to probe the whole path
    /// collapses to the historical `ledger.answer(...)` — the clean-path
    /// invisibility gate. Otherwise the deposit is wrapped in a response
    /// envelope, possibly corrupted by the session's keyed stream, and —
    /// when auditing is on — checked against the responder's authoritative
    /// store: a failed audit discards the payload, taints the peer, and
    /// re-answers its zone from a replica (or honestly reports it
    /// unreachable). `recompute` runs the query's local functions the way
    /// an honest responder would, under the global state the peer was
    /// handed.
    #[allow(clippy::too_many_arguments)]
    fn deposit_answer<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        w: PeerId,
        restriction: &O::Region,
        scan_tile: Option<usize>,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
        answer: Vec<Tuple>,
        recompute: &F,
    ) {
        if w == sess.initiator || (!sess.corrupt.active() && !sess.qsnap.has_probation()) {
            ledger.answer(answer);
            return;
        }
        let expected = self.net.snapshot_generation();
        let mut payload = answer;
        let mut declared = payload.len();
        let mut generation = expected;
        if let Some(mode) = sess.corrupt.corrupts(w, sess.initiator, 0) {
            corrupt_payload(
                mode,
                &mut payload,
                &mut declared,
                &mut generation,
                w,
                || self.fabricated_point(restriction),
            );
        }
        if !self.audit {
            // Ablation arm: the (possibly poisoned) payload is merged
            // unchallenged.
            ledger.answer(payload);
            return;
        }
        ledger.metrics.audits_run += 1;
        let env = ResponseEnvelope {
            payload: &payload,
            declared_len: declared,
            generation,
        };
        if audit_response(&env, self.net.peer_tuples(w), expected).is_ok() {
            if sess.qsnap.is_probation(w) {
                ledger.audits.push((w, false));
            }
            ledger.answer(payload);
        } else {
            ledger.metrics.audits_failed += 1;
            ledger.metrics.tainted_tuples_discarded += payload.len() as u64;
            ledger.audits.push((w, true));
            self.audit_recover(w, restriction, scan_tile, ledger, recompute);
        }
    }

    /// Re-answers the zone of an audited-out peer: its tainted contribution
    /// covered the part of `restriction` no intersected link claims — the
    /// same arithmetic as the peer's `Scanned` tile. A live replica of the
    /// peer's tuples answers the zone (charged like any failover replica
    /// read); with none, the zone is honestly unreachable. Either way the
    /// scanned tile is rewritten in place; the unreachable case also
    /// inserts the volume into the ledger's coverage stream at the tile's
    /// ordinal, keeping the 1:1 in-order pairing between `Unreachable`
    /// tiles and coverage entries that both engines and the coverage
    /// verifier rely on.
    fn audit_recover<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        w: PeerId,
        restriction: &O::Region,
        scan_tile: Option<usize>,
        ledger: &mut BranchLedger,
        recompute: &F,
    ) {
        let covered = neumaier(
            self.net
                .peer_links(w)
                .into_iter()
                .filter_map(|(_, region)| self.net.region_intersect(&region, restriction))
                .map(|rr| self.net.region_volume(&rr)),
        );
        let volume = self.net.region_volume(restriction) - covered;
        if let Some(set) = self.replica_set() {
            if self.read_replica(set, w, ledger, recompute) {
                if let (Some(idx), Some(cert)) = (scan_tile, ledger.cert.as_mut()) {
                    cert[idx] = CertRegion::Replica {
                        owner: w.index() as u64,
                        volume,
                    };
                }
                return;
            }
        }
        match (scan_tile, ledger.cert.as_mut()) {
            (Some(idx), Some(cert)) => {
                let ordinal = cert[..idx]
                    .iter()
                    .filter(|r| matches!(r, CertRegion::Unreachable { .. }))
                    .count();
                cert[idx] = CertRegion::Unreachable { volume };
                ledger.unreachable.insert(ordinal, volume);
            }
            _ => abandon(ledger, volume),
        }
    }

    /// Delivers a query-forward from `sender` into `restriction`, starting
    /// at the link target `first` and failing over across the overlay's
    /// alternate live candidates when retransmissions are exhausted. Returns
    /// the simulated hops spent at the sender and the peer that ended up
    /// processing the message together with the (possibly failover-trimmed)
    /// restriction it covers — or `None` when every candidate failed. Both
    /// the trimmed-off parts and fully abandoned areas are first offered to
    /// [`Executor::recover_region`] — when the overlay replicates, the dead
    /// zones inside them are answered from replicas — and only the volume
    /// that stays unanswered is recorded as unreachable (graceful
    /// degradation, honestly accounted).
    ///
    /// With an inactive fault session this is exactly one `forward()` and
    /// one hop — bit-identical to the historical fault-unaware executor.
    /// With no replica set (or `k = 0`) the recovery call returns zero and
    /// the unreachable accounting is bit-identical to the replica-unaware
    /// executor.
    fn deliver<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        sender: PeerId,
        first: PeerId,
        restriction: O::Region,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> (u64, Option<(PeerId, O::Region)>) {
        if !sess.faults.active() && sess.qsnap.no_exclusions() {
            ledger.metrics.forward();
            return (1, Some((first, restriction)));
        }
        let mut elapsed = 0u64;
        let mut tried: Vec<PeerId> = sess.qsnap.excluded().to_vec();
        let mut target = first;
        let mut restriction = restriction;
        loop {
            // A quarantined target is refused outright — no send, no
            // timeout wait: the sender treats it like a known-dead peer.
            let (spent, delivered) = if sess.qsnap.is_excluded(target) {
                (0, false)
            } else {
                self.transmit(sender, target, &sess.faults, ledger)
            };
            elapsed += spent;
            if delivered {
                return (elapsed, Some((target, restriction)));
            }
            if !tried.contains(&target) {
                tried.push(target);
            }
            // The filter guards against overlays whose `failover_target`
            // ignores the `tried` exclusion: re-selecting an already-tried
            // peer would loop forever once quarantine (or the overlay's own
            // candidate logic) shrinks the candidate set. A filtered-out
            // candidate means candidates are exhausted, not retryable.
            match self
                .net
                .failover_target(&restriction, &tried)
                .filter(|(next, _)| !tried.contains(next))
            {
                Some((next, sub)) => {
                    let lost = self.net.region_volume(&restriction) - self.net.region_volume(&sub);
                    if lost > 1e-12 {
                        let recovered = self.recover_region(
                            &restriction,
                            Some(&sub),
                            sess.qsnap.excluded(),
                            ledger,
                            answer,
                        );
                        if lost - recovered > 1e-12 {
                            abandon(ledger, lost - recovered);
                        }
                    }
                    restriction = sub;
                    target = next;
                }
                None => {
                    let vol = self.net.region_volume(&restriction);
                    let recovered = self.recover_region(
                        &restriction,
                        None,
                        sess.qsnap.excluded(),
                        ledger,
                        answer,
                    );
                    // With nothing recovered the whole region is reported,
                    // even if its volume is (numerically) zero — bit-identical
                    // to the replica-unaware executor.
                    if recovered == 0.0 || vol - recovered > 1e-12 {
                        abandon(ledger, vol - recovered);
                    }
                    return (elapsed, None);
                }
            }
        }
    }
}

/// Records an abandoned volume: its coverage entry and its `Unreachable`
/// tile, appended together so the two streams pair 1:1 in order.
fn abandon(ledger: &mut BranchLedger, volume: f64) {
    ledger.unreachable.push(volume);
    ledger.certify(|| CertRegion::Unreachable { volume });
}

/// Applies one commission-fault mode to an answer envelope in place.
/// `fabricate` supplies the coordinates of a forged tuple (`None` when the
/// restriction has no geometry to forge into).
fn corrupt_payload(
    mode: CorruptionMode,
    payload: &mut Vec<Tuple>,
    declared: &mut usize,
    generation: &mut u64,
    w: PeerId,
    fabricate: impl FnOnce() -> Option<Vec<f64>>,
) {
    match mode {
        CorruptionMode::ScoreFlip => {
            if let Some(t) = payload.first_mut() {
                let mut coords = t.point.coords().to_vec();
                coords[0] = -(coords[0].abs() + 1.0);
                *t = Tuple::new(t.id, coords);
            }
        }
        CorruptionMode::Truncate => {
            // The declared length stays honest while the payload loses its
            // last tuple (an empty answer has nothing to truncate).
            payload.pop();
        }
        CorruptionMode::StaleGeneration => *generation = generation.wrapping_sub(1),
        CorruptionMode::Fabricate => {
            if let Some(coords) = fabricate() {
                // A fresh id no store ever issued; length re-declared so
                // only store membership can catch the forgery.
                payload.push(Tuple::new(u64::MAX - w.index() as u64, coords));
                *declared = payload.len();
            }
        }
        CorruptionMode::LyingWitness => {
            unreachable!("witness lies are drawn on the witness stream, never on deposits")
        }
    }
}

/// A corrupted numeric prune witness: the claimed bound drifts off the
/// honestly recomputed one. Structural witnesses have no number to lie
/// about and pass through unchanged.
fn corrupt_witness(honest: &PruneWitness) -> PruneWitness {
    match honest {
        PruneWitness::ScoreBound { bound } => PruneWitness::ScoreBound { bound: bound + 1.0 },
        PruneWitness::PhiBound { bound } => PruneWitness::PhiBound { bound: bound - 1.0 },
        other => other.clone(),
    }
}

/// What one query's walk reads at every peer, in both engines: the
/// executor, the query and the immutable per-query session.
struct Walk<'a, O, Q> {
    exec: &'a Executor<'a, O>,
    query: &'a Q,
    sess: QuerySession,
}

/// The template a forwarded subtree runs.
#[derive(Clone, Copy)]
enum Step {
    /// Algorithm 1; with `report_states` each peer charges its state
    /// response to the last slow-phase ancestor (the fast phase of
    /// Algorithm 3).
    Fast { report_states: bool },
    /// Naive broadcast.
    Broadcast,
}

/// How a visit walks its relevant links. The templates — `fast`, `ripple`
/// and `broadcast`, with the prologue and epilogue they share — are this
/// trait's provided methods, written once; [`Seq`] and [`Par`] supply only
/// the visited set that catches duplicate visits and the fan-out, which
/// decides where a forwarded subtree runs.
trait Fan<O: RippleOverlay, Q: RankQuery<O::Region>> {
    fn walk(&self) -> &Walk<'_, O, Q>;

    /// Marks `peer` visited, returning `false` when it already was.
    fn first_visit(&self, peer: PeerId) -> bool;

    /// Forwards the query from `w` over each of `links` under `global`,
    /// runs `step` at every peer that adopts one, and folds each subtree's
    /// ledger into `ledger` in link order. Returns the completion latency
    /// (the slowest link) and the adopted subtrees' states in link order.
    fn fan_out(
        &self,
        w: PeerId,
        links: Vec<(PeerId, O::Region)>,
        global: &Arc<Q::Global>,
        step: Step,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>);

    /// Walks `links` one after another on the caller, into `ledger`.
    fn inline(
        &self,
        w: PeerId,
        links: Vec<(PeerId, O::Region)>,
        global: &Arc<Q::Global>,
        step: Step,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        gather(
            links
                .into_iter()
                .map(|link| self.follow(w, link, global, step, ledger)),
        )
    }

    /// Forwards the query from `w` over one relevant link under `global`
    /// and runs `step` at the peer that adopts it. Returns the delivery
    /// delay and, unless every delivery candidate failed, the subtree's
    /// final state and completion latency.
    fn follow(
        &self,
        w: PeerId,
        (target, restricted): (PeerId, O::Region),
        global: &Arc<Q::Global>,
        step: Step,
        ledger: &mut BranchLedger,
    ) -> (u64, Option<(Q::Local, u64)>) {
        let walk = self.walk();
        let answer = |t: &[Tuple]| replica_answer::<O::Region, Q>(walk.query, t, global);
        let (delay, adopted) = walk
            .exec
            .deliver(w, target, restricted, &walk.sess, ledger, &answer);
        let child = adopted.map(|(dest, restricted)| match step {
            Step::Fast { report_states } => {
                self.fast(dest, global, restricted, report_states, ledger)
            }
            Step::Broadcast => self.broadcast(dest, global, restricted, ledger),
        });
        (delay, child)
    }

    /// The prologue of every template at `w`: mark the visit, open the
    /// peer's view, compute its local state under the received `global`,
    /// intersect its links with the restriction area and record its
    /// scanned tile.
    fn arrive<'f>(
        &'f self,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        ledger: &mut BranchLedger,
    ) -> Visit<'f, O::Region, Q::Local>
    where
        O: 'f,
        Q: 'f,
    {
        let Walk { exec, query, .. } = *self.walk();
        // The restriction areas guarantee each peer processes a query at
        // most once; a second visit is a correctness anomaly, counted
        // rather than tolerated silently.
        if !self.first_visit(w) {
            ledger.metrics.duplicate_visits += 1;
        }
        ledger.metrics.visit(w);
        let view = exec.view_of(w);
        let local = with_scan(exec.trace, &mut ledger.metrics, || {
            query.compute_local_state(&view, global)
        });
        let links: Vec<(PeerId, O::Region)> = exec
            .net
            .peer_links(w)
            .into_iter()
            .filter_map(|(t, region)| {
                exec.net
                    .region_intersect(&region, &restriction)
                    .map(|rr| (t, rr))
            })
            .collect();
        let scan_tile = exec.certify_scan(w, &restriction, &links, ledger);
        Visit {
            w,
            restriction,
            view,
            local,
            links,
            scan_tile,
        }
    }

    /// The epilogue of every template: the local answer from the peer's
    /// final state, deposited through the audit. An honest responder
    /// answers its zone from the state it *received* — exactly what a
    /// replica re-query reproduces after a failed audit.
    fn leave(
        &self,
        visit: &Visit<'_, O::Region, Q::Local>,
        global: &Q::Global,
        ledger: &mut BranchLedger,
    ) {
        let walk = self.walk();
        let q = walk.query;
        let answer = with_scan(walk.exec.trace, &mut ledger.metrics, || {
            q.compute_local_answer(&visit.view, &visit.local)
        });
        let recompute = |t: &[Tuple]| replica_answer::<O::Region, Q>(q, t, global);
        walk.exec.deposit_answer(
            visit.w,
            &visit.restriction,
            visit.scan_tile,
            &walk.sess,
            ledger,
            answer,
            &recompute,
        );
    }

    /// Runs `mode`'s template from `initiator` over the whole domain,
    /// returning the initiator's final state and the completion latency.
    fn start(&self, initiator: PeerId, mode: Mode, ledger: &mut BranchLedger) -> (Q::Local, u64) {
        let walk = self.walk();
        let full = walk.exec.net.full_region();
        let global = walk.query.initial_global();
        match mode {
            Mode::Fast | Mode::Ripple(0) => self.fast(initiator, &global, full, false, ledger),
            Mode::Slow => self.ripple(initiator, &global, full, u32::MAX, ledger),
            Mode::Ripple(r) => self.ripple(initiator, &global, full, r, ledger),
            Mode::Broadcast => self.broadcast(initiator, &Arc::new(global), full, ledger),
        }
    }

    /// Algorithm 1 — and the `r = 0` loop of Algorithm 3 when
    /// `report_states` is set. Returns the peer's final local state and the
    /// completion latency of its restriction area.
    ///
    /// Under Algorithm 3 every fast-phase peer sends its local state
    /// directly to the last slow-phase ancestor `u` (Alg. 3 line 19, with
    /// `u` forwarded unchanged at line 15); the recursive return value
    /// models the union of those states, and `report_states` charges one
    /// state-response message per peer. Under pure Algorithm 1 no state
    /// responses exist and none are charged.
    fn fast(
        &self,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        report_states: bool,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        let walk = self.walk();
        let q = walk.query;
        let mut visit = self.arrive(w, global, restriction, ledger);
        let global_w = Arc::new(q.compute_global_state(global, &visit.local));
        // `fast` never refines `global_w` between links, so relevance — and
        // the pruned tiles — is decided before any subtree runs, in link
        // order.
        let intersected = std::mem::take(&mut visit.links);
        let mut links = Vec::with_capacity(intersected.len());
        for (target, restricted) in intersected {
            if q.is_link_relevant(&restricted, &global_w) {
                links.push((target, restricted));
            } else {
                walk.exec
                    .certify_pruned(q, w, &restricted, &global_w, &walk.sess, ledger);
            }
        }
        let (latency, mut states) =
            self.fan_out(w, links, &global_w, Step::Fast { report_states }, ledger);
        self.leave(&visit, global, ledger);
        if report_states {
            ledger.metrics.respond(q.state_payload(&visit.local));
        }
        let merged = if states.is_empty() {
            visit.local
        } else {
            states.push(visit.local);
            q.update_local_state(states)
        };
        (merged, latency)
    }

    /// Algorithm 3 with ripple parameter `r`, and Algorithm 2 as
    /// `r = u32::MAX`: `slow` is `ripple` with a hop budget no walk
    /// exhausts. Above the budget the links are visited in decreasing
    /// priority, and each waits for the previous subtree's state response,
    /// which refines the global state before relevance is decided — so
    /// this template never forks. Below the budget every peer runs `fast`,
    /// which fans out.
    fn ripple(
        &self,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        r: u32,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        if r == 0 {
            // Local states stream back to the last slow-phase ancestor,
            // which the recursive return value models.
            return self.fast(w, global, restriction, true, ledger);
        }
        let walk = self.walk();
        let q = walk.query;
        let mut visit = self.arrive(w, global, restriction, ledger);
        let mut global_w = q.compute_global_state(global, &visit.local);
        // sortLinks: decreasing priority of the restricted regions.
        let mut links = std::mem::take(&mut visit.links);
        links.sort_by(|a, b| q.priority(&b.1).total_cmp(&q.priority(&a.1)));

        let mut latency = 0u64;
        for (target, restricted) in links {
            if !q.is_link_relevant(&restricted, &global_w) {
                // Pruned under the *refined* state, certified mid-loop.
                walk.exec
                    .certify_pruned(q, w, &restricted, &global_w, &walk.sess, ledger);
                continue;
            }
            // Re-created each iteration: recovery answers under the
            // *current* refined global state, exactly what this forward
            // carried.
            let answer = |t: &[Tuple]| replica_answer::<O::Region, Q>(q, t, &global_w);
            let (delay, adopted) = walk
                .exec
                .deliver(w, target, restricted, &walk.sess, ledger, &answer);
            let Some((dest, restricted)) = adopted else {
                // unreachable: a sequential link pays the wait in full
                latency += delay;
                continue;
            };
            let (remote, child_latency) = self.ripple(dest, &global_w, restricted, r - 1, ledger);
            if r > 1 {
                // The slow-phase child's state response; fast-phase children
                // charge their own (they report directly to this peer).
                ledger.metrics.respond(q.state_payload(&remote));
            }
            latency += delay + child_latency;
            visit.local = q.update_local_state(vec![visit.local, remote]);
            global_w = q.compute_global_state(global, &visit.local);
        }
        self.leave(&visit, global, ledger);
        (visit.local, latency)
    }

    /// Naive broadcast (Section 1): reach *every* peer in the restriction
    /// area in parallel, ignoring states; every peer answers from purely
    /// local knowledge. The global state is never refined, so one `Arc` of
    /// the initiator's state is shared down the whole tree.
    fn broadcast(
        &self,
        w: PeerId,
        global: &Arc<Q::Global>,
        restriction: O::Region,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        let mut visit = self.arrive(w, global, restriction, ledger);
        let links = std::mem::take(&mut visit.links);
        let (latency, _) = self.fan_out(w, links, global, Step::Broadcast, ledger);
        self.leave(&visit, global, ledger);
        (visit.local, latency)
    }
}

/// Reduces per-link results in link order: the fan-out completes with its
/// slowest link — an unreachable subtree still costs the time spent waiting
/// on it — and the adopted subtrees' states are kept for the merge.
fn gather<L>(children: impl Iterator<Item = (u64, Option<(L, u64)>)>) -> (u64, Vec<L>) {
    let mut latency = 0u64;
    let mut states = Vec::new();
    for (delay, child) in children {
        match child {
            None => latency = latency.max(delay),
            Some((state, child_latency)) => {
                latency = latency.max(delay + child_latency);
                states.push(state);
            }
        }
    }
    (latency, states)
}

/// A peer between arrival and departure: what the prologue computed that
/// the epilogue needs.
struct Visit<'v, R, L> {
    w: PeerId,
    restriction: R,
    view: LocalView<'v>,
    local: L,
    /// The peer's links intersected with the restriction area, in link
    /// order; with the peer's zone they tile the area. The template takes
    /// them to walk.
    links: Vec<(PeerId, R)>,
    /// The peer's scanned tile, which a failed deposit audit rewrites.
    scan_tile: Option<usize>,
}

/// The sequential fan: every subtree runs inline on the caller, straight
/// into the caller's ledger.
struct Seq<'a, O, Q> {
    walk: Walk<'a, O, Q>,
    visited: RefCell<FxHashSet<PeerId>>,
}

impl<O: RippleOverlay, Q: RankQuery<O::Region>> Fan<O, Q> for Seq<'_, O, Q> {
    fn walk(&self) -> &Walk<'_, O, Q> {
        &self.walk
    }

    fn first_visit(&self, peer: PeerId) -> bool {
        self.visited.borrow_mut().insert(peer)
    }

    fn fan_out(
        &self,
        w: PeerId,
        links: Vec<(PeerId, O::Region)>,
        global: &Arc<Q::Global>,
        step: Step,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        self.inline(w, links, global, step, ledger)
    }
}

/// Everything a parallel execution shares across worker threads. Built
/// before the pool scope opens so tasks can borrow it for the scope's
/// lifetime; holds no per-branch mutable state (branches own their
/// [`BranchLedger`]s, and [`FaultSession`] decisions are keyed, not drawn).
struct ParCtx<'a, O, Q> {
    walk: Walk<'a, O, Q>,
    /// Sharded so the *total* duplicate count is schedule-independent.
    visited: ShardedVisited,
}

/// The parallel fan: with two or more links every subtree runs as its own
/// pool task on its own [`BranchLedger`], and the parent merges the
/// branches back in link order — which restores the sequential ledger
/// bit-for-bit (pre-order visits, post-order answers, link-order
/// abandonment; counters are order-free sums).
struct Par<'p, 'env, O, Q> {
    ctx: &'env ParCtx<'env, O, Q>,
    pool: &'p Pool<'env>,
}

impl<'env, O, Q> Fan<O, Q> for Par<'_, 'env, O, Q>
where
    O: RippleOverlay + Sync,
    O::Region: Send + 'env,
    Q: RankQuery<O::Region> + Sync,
    Q::Global: Send + Sync + 'env,
    Q::Local: Send + 'env,
{
    fn walk(&self) -> &Walk<'_, O, Q> {
        &self.ctx.walk
    }

    fn first_visit(&self, peer: PeerId) -> bool {
        self.ctx.visited.insert(peer)
    }

    fn fan_out(
        &self,
        w: PeerId,
        links: Vec<(PeerId, O::Region)>,
        global: &Arc<Q::Global>,
        step: Step,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        if links.len() < 2 {
            // A chain: forking buys nothing.
            return self.inline(w, links, global, step, ledger);
        }
        let ctx = self.ctx;
        let tasks = links
            .into_iter()
            .map(|link| {
                let global = Arc::clone(global);
                move |pool: &Pool<'env>| {
                    let mut branch = ctx.walk.exec.ledger();
                    let child = Par { ctx, pool }.follow(w, link, &global, step, &mut branch);
                    (child, branch)
                }
            })
            .collect();
        gather(
            self.pool
                .join_all(tasks)
                .into_iter()
                .map(|(child, branch)| {
                    ledger.merge_child(branch);
                    child
                }),
        )
    }
}
