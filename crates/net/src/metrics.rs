//! Query cost accounting, matching the paper's metrics (Section 7.1).
//!
//! **Latency** is the number of hops on the critical path of query
//! processing. The distributed algorithms compute it recursively exactly as
//! the proofs of Lemmas 1–3 count it: forwarding a query to a link costs one
//! hop; children contacted in parallel (`fast`) contribute the *maximum* of
//! their subtree latencies, children contacted sequentially (`slow`)
//! contribute the *sum*. State/answer responses are tallied as messages but
//! add no hops, mirroring the Lemma accounting.
//!
//! **Congestion** is "the average number of queries processed at any peer
//! when `n` uniform queries are issued" (`n` = network size): each query
//! records how many peer-visits it caused, and the aggregator averages
//! visits per query, which — with `n` queries over `n` peers — equals the
//! expected per-peer load.

use crate::hash::{fx_set_with_capacity, FxHashMap, FxHashSet};
use crate::peer::PeerId;
use crate::rng::mix64;
use crate::stats::{Distribution, Plan};
use ripple_geom::Tuple;
use ripple_verify::CertRegion;
use std::sync::Mutex;

/// The cost ledger of a single distributed query execution.
///
/// Equality (`PartialEq`) deliberately **excludes** the two data-plane
/// observability counters [`tuples_scanned`](QueryMetrics::tuples_scanned)
/// and [`blocks_pruned`](QueryMetrics::blocks_pruned): they describe how
/// much local work an execution *avoided* (blocked vs scalar vs naive scan
/// paths, cold vs warm caches), which legitimately differs between
/// executions that are bit-identical in every paper metric, answer stream
/// and visit sequence. The equivalence gates compare ledgers with `==`,
/// so the exclusion is what lets "same outcome, less work" hold.
#[derive(Clone, Debug, Default)]
pub struct QueryMetrics {
    /// Hops on the critical path (the paper's latency metric).
    pub latency: u64,
    /// Query-forward messages sent between peers.
    pub query_messages: u64,
    /// Response messages (remote local states, local answers).
    pub response_messages: u64,
    /// Number of peer-visits (processing events); drives congestion.
    pub peers_visited: u64,
    /// Tuples shipped over the wire in responses (communication volume).
    pub tuples_transferred: u64,
    /// Retransmissions performed after presumed-lost messages.
    pub retries: u64,
    /// Sender-side timeouts that fired (each contributes its wait to
    /// latency, per the fault model in `ripple-core`'s executor).
    pub timeouts: u64,
    /// Query-forward messages lost in transit (fault injection).
    pub messages_dropped: u64,
    /// Maintenance messages spent repairing crash damage that this query's
    /// processing triggered or observed (overlay repair protocols).
    pub repair_messages: u64,
    /// Dead-owner regions answered from a replica instead of being
    /// abandoned. Keyed by the failed edge (not by thread schedule), so the
    /// count is deterministic under the parallel executor.
    pub replica_hits: u64,
    /// Replica reads whose copy was captured before the owner's latest
    /// store generation (the answer may miss recent inserts). Always
    /// `<= replica_hits`.
    pub stale_reads: u64,
    /// Simulated bytes of replica payload fetched by this query's failover
    /// reads (8 bytes of id + 8 per coordinate, per tuple).
    pub replica_bytes: u64,
    /// Replica capture/promotion transfers charged to this query (drained
    /// from the network's [`ReplicaSet`](crate::replica::ReplicaSet) by the
    /// harness, like `repair_messages`).
    pub repair_transfers: u64,
    /// Processing events at a peer that had already processed this query —
    /// an always-on anomaly counter (restriction areas guarantee this is 0;
    /// a nonzero value flags restriction-area breakage even in release
    /// builds, where the old `debug_assert!` would have been compiled out).
    pub duplicate_visits: u64,
    /// Tuple rows examined by local scans while answering this query
    /// (scored, dominance-tested or filtered — the local data-plane work
    /// the paper's hop/message metrics ignore). Excluded from `PartialEq`;
    /// 0 when the executor runs with tracing off.
    pub tuples_scanned: u64,
    /// Whole columnar blocks skipped by a block-level bound test (`f⁺`
    /// below the selection threshold, min-corner dominated, or disjoint
    /// from the constraint) without touching a row. Excluded from
    /// `PartialEq`; 0 when the executor runs with tracing off.
    pub blocks_pruned: u64,
    /// Online response audits performed on remote contributions (answer
    /// envelopes and pruned-link bound witnesses). Excluded from
    /// `PartialEq`: auditing is an observation of the run, never an input
    /// to it — an audited and an unaudited execution that merged the same
    /// contributions must compare equal.
    pub audits_run: u64,
    /// Audits that caught a corrupted contribution (tainted answer
    /// discarded, lying witness replaced). Always `<= audits_run`.
    /// Excluded from `PartialEq` like [`audits_run`](QueryMetrics::audits_run).
    pub audits_failed: u64,
    /// Peers newly quarantined when this query's merged audit verdicts
    /// were flushed into the overlay's [`Quarantine`](crate::quarantine::Quarantine)
    /// registry. Excluded from `PartialEq`.
    pub quarantined_peers: u64,
    /// Tuples discarded from tainted answer payloads before they could
    /// reach the answer stream. Excluded from `PartialEq`.
    pub tainted_tuples_discarded: u64,
    /// Rows this query read from store memtable overlays (unfrozen tails)
    /// rather than frozen columnar runs. Excluded from `PartialEq` like
    /// [`tuples_scanned`](QueryMetrics::tuples_scanned): where a row was
    /// read is write-path provenance, never an outcome.
    pub memtable_hits: u64,
    /// Tombstone-masked rows skipped by this query's scans. Excluded from
    /// `PartialEq`.
    pub tombstones_masked: u64,
    /// Store compaction passes that ran inside this query's scan brackets
    /// (mutating harnesses can bracket ingest batches; pure queries report
    /// 0). Excluded from `PartialEq`.
    pub compactions_run: u64,
    /// Rows physically rewritten by the store write path (memtable freezes
    /// and run compactions) inside this query's scan brackets — the
    /// numerator of write amplification. Excluded from `PartialEq`.
    pub write_amplification: u64,
    /// When `true`, [`visit`](QueryMetrics::visit) does *not* append to
    /// [`visited`](QueryMetrics::visited): counters stay exact but the
    /// O(visits) trace is not retained. Inverted so that
    /// `QueryMetrics::default()` keeps today's tracing-on behaviour (and
    /// every existing struct literal still means "trace on"). Large bench
    /// sweeps construct ledgers with [`with_trace(false)`]
    /// (QueryMetrics::with_trace) to keep memory O(1) per query — at the
    /// cost of the per-peer congestion histogram, which needs the trace.
    pub trace_off: bool,
    /// The ordered sequence of peers that processed this query (one entry
    /// per processing event, so `visited.len() == peers_visited` while
    /// tracing is on). Feeds the per-peer congestion histogram in
    /// [`MetricsAggregator`] and — because it participates in `PartialEq` —
    /// lets equivalence tests assert that two execution paths touched the
    /// same peers in the same order.
    pub visited: Vec<PeerId>,
    /// The adaptive planner's decision for this query, when one ran
    /// (`None` for statically-configured executions). Stamped *after* the
    /// run completes and excluded from `PartialEq`, so a planner-chosen
    /// execution's ledger compares equal to the identical static execution —
    /// the plan is provenance, not cost.
    pub plan: Option<Plan>,
    /// Wall-clock nanoseconds this query waited in the serving frontier
    /// between admission and dispatch (0 for queries run directly through
    /// an executor). Stamped by the `QueryService`; excluded from
    /// `PartialEq` so a served ledger compares equal to the identical
    /// standalone execution — scheduling delay is provenance, not cost.
    pub queue_wait_ns: u64,
    /// `true` when this outcome was answered from the service's shared
    /// result cache instead of a fresh execution. Excluded from `PartialEq`
    /// for the same reason as [`queue_wait_ns`](QueryMetrics::queue_wait_ns).
    pub cache_hit: bool,
    /// The overlay generation (`snapshot_generation`) this query was pinned
    /// to by the service's epoch handshake, or `None` for direct executor
    /// runs. Excluded from `PartialEq`: it restates the certificate's
    /// generation stamp as provenance on the ledger.
    pub served_generation: Option<u64>,
}

impl PartialEq for QueryMetrics {
    fn eq(&self, other: &Self) -> bool {
        // Destructure so adding a field is a compile error here: every new
        // counter must explicitly choose a side of the equality contract.
        let Self {
            latency,
            query_messages,
            response_messages,
            peers_visited,
            tuples_transferred,
            retries,
            timeouts,
            messages_dropped,
            repair_messages,
            replica_hits,
            stale_reads,
            replica_bytes,
            repair_transfers,
            duplicate_visits,
            tuples_scanned: _,
            blocks_pruned: _,
            audits_run: _,
            audits_failed: _,
            quarantined_peers: _,
            tainted_tuples_discarded: _,
            memtable_hits: _,
            tombstones_masked: _,
            compactions_run: _,
            write_amplification: _,
            trace_off,
            visited,
            plan: _,
            queue_wait_ns: _,
            cache_hit: _,
            served_generation: _,
        } = self;
        *latency == other.latency
            && *query_messages == other.query_messages
            && *response_messages == other.response_messages
            && *peers_visited == other.peers_visited
            && *tuples_transferred == other.tuples_transferred
            && *retries == other.retries
            && *timeouts == other.timeouts
            && *messages_dropped == other.messages_dropped
            && *repair_messages == other.repair_messages
            && *replica_hits == other.replica_hits
            && *stale_reads == other.stale_reads
            && *replica_bytes == other.replica_bytes
            && *repair_transfers == other.repair_transfers
            && *duplicate_visits == other.duplicate_visits
            && *trace_off == other.trace_off
            && *visited == other.visited
    }
}

impl QueryMetrics {
    /// A fresh, all-zero ledger (visit tracing on).
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh ledger with visit tracing switched on (`true`, the default)
    /// or off (`false`, for memory-bounded sweeps at large `n`·queries).
    pub fn with_trace(trace: bool) -> Self {
        Self {
            trace_off: !trace,
            ..Self::default()
        }
    }

    /// Records that `peer` processed one query message.
    #[inline]
    pub fn visit(&mut self, peer: PeerId) {
        self.peers_visited += 1;
        if !self.trace_off {
            self.visited.push(peer);
        }
    }

    /// Records a query-forward message.
    #[inline]
    pub fn forward(&mut self) {
        self.query_messages += 1;
    }

    /// Records a response message carrying `tuples` tuples.
    #[inline]
    pub fn respond(&mut self, tuples: usize) {
        self.response_messages += 1;
        self.tuples_transferred += tuples as u64;
    }

    /// Total messages of any kind.
    pub fn total_messages(&self) -> u64 {
        self.query_messages + self.response_messages
    }

    /// Folds the ledger of one completed execution *branch* into this one:
    /// all counters add and the visit trace concatenates, exactly like
    /// [`absorb_sequential`](QueryMetrics::absorb_sequential) — except that
    /// branch ledgers carry no latency (the propagation templates compute
    /// latency through their recursion, not through the ledger), which this
    /// method asserts in debug builds.
    ///
    /// Together with the branch-local vectors in [`BranchLedger`] this is
    /// the reduction step of the commutative-monoid ledger: counters are
    /// order-free, and the order-sensitive vectors are restored to the
    /// sequential executor's order by merging children in link order.
    pub fn absorb_branch(&mut self, other: &QueryMetrics) {
        debug_assert_eq!(other.latency, 0, "branch ledgers never carry latency");
        self.absorb_sequential(other);
    }

    /// Merges the ledgers of several *sequential* phases of one logical query
    /// (e.g. the iterations of the diversification greedy loop): latencies
    /// add, as do all counters.
    pub fn absorb_sequential(&mut self, other: &QueryMetrics) {
        self.latency += other.latency;
        self.query_messages += other.query_messages;
        self.response_messages += other.response_messages;
        self.peers_visited += other.peers_visited;
        self.tuples_transferred += other.tuples_transferred;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.messages_dropped += other.messages_dropped;
        self.repair_messages += other.repair_messages;
        self.replica_hits += other.replica_hits;
        self.stale_reads += other.stale_reads;
        self.replica_bytes += other.replica_bytes;
        self.repair_transfers += other.repair_transfers;
        self.duplicate_visits += other.duplicate_visits;
        self.tuples_scanned += other.tuples_scanned;
        self.blocks_pruned += other.blocks_pruned;
        self.audits_run += other.audits_run;
        self.audits_failed += other.audits_failed;
        self.quarantined_peers += other.quarantined_peers;
        self.tainted_tuples_discarded += other.tainted_tuples_discarded;
        self.memtable_hits += other.memtable_hits;
        self.tombstones_masked += other.tombstones_masked;
        self.compactions_run += other.compactions_run;
        self.write_amplification += other.write_amplification;
        if !self.trace_off {
            self.visited.extend_from_slice(&other.visited);
        }
    }
}

/// The partial ledger of one execution branch — the per-branch element of
/// the commutative-monoid cost accounting that makes intra-query parallel
/// execution bit-identical to a sequential walk.
///
/// A sequential executor threads *one* mutable state through its depth-first
/// recursion; a parallel executor cannot. Instead, every independent
/// restriction-area subtree accumulates into its own `BranchLedger`, and a
/// parent folds its children back in **deterministic link order** via
/// [`merge_child`](BranchLedger::merge_child). The three kinds of content
/// recover the sequential order as follows:
///
/// * **counters** (messages, retries, drops, visits, …) are sums —
///   genuinely commutative, any merge order works;
/// * **`metrics.visited`** is the DFS *pre-order* trace: the owner records
///   its own visit before spawning children, so `[self] ++ children` in
///   link order reproduces the sequential trace;
/// * **`answers`** is the DFS *post-order* stream: the owner appends its own
///   local answer only after merging children, so `children ++ [self]`
///   reproduces the sequential arrival order at the initiator;
/// * **`unreachable`** interleaves per-edge (each branch starts with the
///   delivery attempts of the edge that reached it), so plain link-order
///   concatenation reproduces the sequential abandonment order that
///   `Coverage` reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BranchLedger {
    /// The branch's cost counters and visit trace. `latency` stays 0 —
    /// completion time is computed by the propagation recursion (max for
    /// parallel children, sum for sequential ones), not by ledger merges.
    pub metrics: QueryMetrics,
    /// Local answers deposited by the branch's peers, in sequential
    /// (post-order) arrival order.
    pub answers: Vec<Tuple>,
    /// Absolute volumes of restriction areas abandoned inside the branch,
    /// in sequential abandonment order.
    pub unreachable: Vec<f64>,
    /// Certificate tiles recorded by the branch, in sequential emission
    /// order, or `None` when certificate emission is disabled. Like the
    /// other streams this concatenates under link-order merging, so the
    /// parallel executor reproduces the sequential certificate bit-for-bit.
    pub cert: Option<Vec<CertRegion>>,
    /// Audit verdicts (`(peer, tainted)`) recorded by the branch's online
    /// response audits, in emission order. Never consulted mid-query; the
    /// executor flushes the merged stream into the overlay's quarantine
    /// registry after the walk completes, and the registry's per-peer
    /// reduction is order-free — so the link-order concatenation is for
    /// uniformity, not correctness.
    pub audits: Vec<(PeerId, bool)>,
}

impl BranchLedger {
    /// A fresh, empty branch ledger (the monoid identity) with visit
    /// tracing on (`true`) or off (`false`) and certificate emission off.
    pub fn new(trace: bool) -> Self {
        Self {
            metrics: QueryMetrics::with_trace(trace),
            ..Self::default()
        }
    }

    /// A fresh branch ledger with certificate emission on (`certs = true`)
    /// or off. Emission state must agree across every ledger merged into
    /// the same query, or tiles recorded by a child would be dropped.
    pub fn with_certificates(trace: bool, certs: bool) -> Self {
        Self {
            metrics: QueryMetrics::with_trace(trace),
            cert: certs.then(Vec::new),
            ..Self::default()
        }
    }

    /// Appends a certificate tile, or does nothing when emission is off.
    /// Taking the entry lazily keeps the disabled path free of witness
    /// construction cost.
    pub fn certify(&mut self, entry: impl FnOnce() -> CertRegion) {
        if let Some(cert) = self.cert.as_mut() {
            cert.push(entry());
        }
    }

    /// Records that `answer` was sent to the initiator by a peer of this
    /// branch: one response message carrying the tuples, appended to the
    /// branch's answer stream.
    pub fn answer(&mut self, answer: Vec<Tuple>) {
        self.metrics.respond(answer.len());
        self.answers.extend(answer);
    }

    /// Folds a completed child branch into this ledger. Callers must invoke
    /// this in **link order** (the order the sequential executor iterates a
    /// peer's links); under that discipline the merged ledger is
    /// bit-identical to the one a sequential execution produces.
    pub fn merge_child(&mut self, child: BranchLedger) {
        self.metrics.absorb_branch(&child.metrics);
        self.answers.extend(child.answers);
        self.unreachable.extend(child.unreachable);
        if let (Some(cert), Some(child_cert)) = (self.cert.as_mut(), child.cert) {
            cert.extend(child_cert);
        }
        self.audits.extend(child.audits);
    }
}

/// A concurrent visited-peer set, sharded to keep cross-thread contention
/// off the hot path of parallel intra-query execution.
///
/// Restriction areas guarantee sibling subtrees are peer-disjoint, so in a
/// healthy run no two threads ever contend for the same *peer* — but they
/// would contend for a single set's lock. Sharding by a mixed peer hash
/// makes concurrent inserts effectively lock-free in practice while keeping
/// the anomaly semantics of the sequential executor exact: the **total**
/// duplicate-visit count (visits minus distinct peers) is order-free, so a
/// parallel run reports bit-identically the same
/// [`duplicate_visits`](QueryMetrics::duplicate_visits) as a sequential
/// one, no matter which thread loses an insert race.
#[derive(Debug)]
pub struct ShardedVisited {
    shards: Box<[Mutex<FxHashSet<PeerId>>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

impl ShardedVisited {
    /// A set pre-sized for `expected` distinct peers (use the overlay's
    /// `peer_count()`), sharded `shards`-ways (rounded up to a power of
    /// two, at least 1).
    pub fn new(expected: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = expected.div_ceil(n);
        let shards: Vec<Mutex<FxHashSet<PeerId>>> = (0..n)
            .map(|_| Mutex::new(fx_set_with_capacity(per_shard)))
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: n - 1,
        }
    }

    /// Inserts `peer`, returning `true` iff it was not yet present (the
    /// same contract as `HashSet::insert`).
    pub fn insert(&self, peer: PeerId) -> bool {
        let shard = mix64(peer.index() as u64) as usize & self.mask;
        self.shards[shard]
            .lock()
            .expect("visited shard poisoned")
            .insert(peer)
    }

    /// Number of distinct peers inserted so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("visited shard poisoned").len())
            .sum()
    }

    /// True when no peer was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summary statistics for one experimental point (one x-axis position of a
/// paper figure): averages over many queries, possibly over many networks.
#[derive(Clone, Debug, PartialEq)]
pub struct PointSummary {
    /// Number of queries aggregated.
    pub queries: u64,
    /// Mean latency in hops.
    pub latency: f64,
    /// Maximum latency observed.
    pub latency_max: u64,
    /// Congestion: average queries processed per peer, when `network_size`
    /// queries are issued (= mean peer-visits per query).
    pub congestion: f64,
    /// Mean messages (query + response) per query.
    pub messages: f64,
    /// Mean tuples transferred per query.
    pub tuples: f64,
    /// Hottest peer: the number of queries processed by the most-visited
    /// single peer over the whole point (an absolute count, not a per-query
    /// average). The mean congestion hides hotspots; this exposes them.
    pub congestion_max: u64,
    /// Mean retransmissions per query (0 without fault injection).
    pub retries: f64,
    /// Mean sender-side timeouts per query.
    pub timeouts: f64,
    /// Mean query-forward messages lost in transit per query.
    pub messages_dropped: f64,
    /// Mean overlay repair messages charged to a query.
    pub repair_messages: f64,
    /// Mean dead-owner regions answered from a replica per query.
    pub replica_hits: f64,
    /// Mean stale replica reads per query (copy behind the owner's latest
    /// store generation).
    pub stale_reads: f64,
    /// Mean simulated replica payload bytes fetched per query.
    pub replica_bytes: f64,
    /// Mean replica capture/promotion transfers charged per query.
    pub repair_transfers: f64,
    /// Total duplicate-visit anomalies across the point (should be 0; any
    /// other value flags restriction-area breakage under faults).
    pub duplicate_visits: u64,
    /// Mean tuple rows examined by local scans per query (data-plane work;
    /// 0 when the executor ran with tracing off).
    pub tuples_scanned: f64,
    /// Mean columnar blocks skipped by block-level bound tests per query.
    pub blocks_pruned: f64,
    /// Mean online response audits run per query (0 with the corruption
    /// machinery disengaged).
    pub audits_run: f64,
    /// Mean audits per query that caught a corrupted contribution.
    pub audits_failed: f64,
    /// Total peers newly quarantined across the point (an absolute count,
    /// like `duplicate_visits`: quarantine is a registry event, not a
    /// per-query average).
    pub quarantined_peers: u64,
    /// Mean tuples discarded from tainted payloads per query.
    pub tainted_tuples_discarded: f64,
    /// Mean rows read from store memtable overlays per query.
    pub memtable_hits: f64,
    /// Mean tombstone-masked rows skipped per query.
    pub tombstones_masked: f64,
    /// Total store compaction passes observed across the point (an
    /// absolute count, like `quarantined_peers`: compactions are store
    /// events amortised over many queries, not per-query costs).
    pub compactions_run: u64,
    /// Mean rows physically rewritten by the store write path per query
    /// (0 for pure query batches; ingest benches bracket their mutation
    /// batches to surface it).
    pub write_amplification: f64,
    /// Mean nanoseconds spent waiting in the serving frontier per query
    /// (0 for batches run directly through an executor).
    pub queue_wait_ns: f64,
    /// Total queries in the point answered from the service's shared result
    /// cache (an absolute count, like `duplicate_visits`: hit *rates* are
    /// workload properties, so the raw count is the honest figure datum).
    pub cache_hits: u64,
}

impl PointSummary {
    /// The summary of an empty query batch: zero queries, all-zero
    /// statistics. This is what sweeps over zero seeds aggregate to — a
    /// well-defined identity element rather than a panic.
    pub fn empty() -> Self {
        Self {
            queries: 0,
            latency: 0.0,
            latency_max: 0,
            congestion: 0.0,
            messages: 0.0,
            tuples: 0.0,
            congestion_max: 0,
            retries: 0.0,
            timeouts: 0.0,
            messages_dropped: 0.0,
            repair_messages: 0.0,
            replica_hits: 0.0,
            stale_reads: 0.0,
            replica_bytes: 0.0,
            repair_transfers: 0.0,
            duplicate_visits: 0,
            tuples_scanned: 0.0,
            blocks_pruned: 0.0,
            audits_run: 0.0,
            audits_failed: 0.0,
            quarantined_peers: 0,
            tainted_tuples_discarded: 0.0,
            memtable_hits: 0.0,
            tombstones_masked: 0.0,
            compactions_run: 0,
            write_amplification: 0.0,
            queue_wait_ns: 0.0,
            cache_hits: 0,
        }
    }
}

/// Accumulates per-query ledgers into a [`PointSummary`].
#[derive(Clone, Debug, Default)]
pub struct MetricsAggregator {
    count: u64,
    latency_sum: u64,
    latency_max: u64,
    visits_sum: u64,
    messages_sum: u64,
    tuples_sum: u64,
    retries_sum: u64,
    timeouts_sum: u64,
    dropped_sum: u64,
    repair_sum: u64,
    replica_hits_sum: u64,
    stale_reads_sum: u64,
    replica_bytes_sum: u64,
    repair_transfers_sum: u64,
    duplicate_sum: u64,
    scanned_sum: u64,
    pruned_sum: u64,
    audits_run_sum: u64,
    audits_failed_sum: u64,
    quarantined_sum: u64,
    tainted_sum: u64,
    memtable_sum: u64,
    masked_sum: u64,
    compactions_sum: u64,
    rewritten_sum: u64,
    queue_wait_sum: u64,
    cache_hits_sum: u64,
    /// Per-peer visit histogram over all recorded queries (FxHash: the keys
    /// are simulator-internal and this map is written once per peer-visit
    /// of every recorded query — a deterministic hot path). Merging assumes
    /// both aggregators drew their peer ids from the *same* network
    /// instance (the `parallel_queries` chunking case); cross-network runs
    /// are combined at the [`PointSummary`] level instead, where only the
    /// hottest count survives.
    peer_visits: FxHashMap<PeerId, u64>,
}

impl MetricsAggregator {
    /// A fresh aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one query's ledger.
    pub fn record(&mut self, m: &QueryMetrics) {
        self.count += 1;
        self.latency_sum += m.latency;
        self.latency_max = self.latency_max.max(m.latency);
        self.visits_sum += m.peers_visited;
        self.messages_sum += m.total_messages();
        self.tuples_sum += m.tuples_transferred;
        self.retries_sum += m.retries;
        self.timeouts_sum += m.timeouts;
        self.dropped_sum += m.messages_dropped;
        self.repair_sum += m.repair_messages;
        self.replica_hits_sum += m.replica_hits;
        self.stale_reads_sum += m.stale_reads;
        self.replica_bytes_sum += m.replica_bytes;
        self.repair_transfers_sum += m.repair_transfers;
        self.duplicate_sum += m.duplicate_visits;
        self.scanned_sum += m.tuples_scanned;
        self.pruned_sum += m.blocks_pruned;
        self.audits_run_sum += m.audits_run;
        self.audits_failed_sum += m.audits_failed;
        self.quarantined_sum += m.quarantined_peers;
        self.tainted_sum += m.tainted_tuples_discarded;
        self.memtable_sum += m.memtable_hits;
        self.masked_sum += m.tombstones_masked;
        self.compactions_sum += m.compactions_run;
        self.rewritten_sum += m.write_amplification;
        self.queue_wait_sum += m.queue_wait_ns;
        self.cache_hits_sum += u64::from(m.cache_hit);
        for &p in &m.visited {
            *self.peer_visits.entry(p).or_insert(0) += 1;
        }
    }

    /// Number of queries recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another aggregator over the *same network instance* in (the
    /// per-thread chunks of one query batch): per-peer visit counts add.
    pub fn merge(&mut self, other: &MetricsAggregator) {
        self.count += other.count;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.visits_sum += other.visits_sum;
        self.messages_sum += other.messages_sum;
        self.tuples_sum += other.tuples_sum;
        self.retries_sum += other.retries_sum;
        self.timeouts_sum += other.timeouts_sum;
        self.dropped_sum += other.dropped_sum;
        self.repair_sum += other.repair_sum;
        self.replica_hits_sum += other.replica_hits_sum;
        self.stale_reads_sum += other.stale_reads_sum;
        self.replica_bytes_sum += other.replica_bytes_sum;
        self.repair_transfers_sum += other.repair_transfers_sum;
        self.duplicate_sum += other.duplicate_sum;
        self.scanned_sum += other.scanned_sum;
        self.pruned_sum += other.pruned_sum;
        self.audits_run_sum += other.audits_run_sum;
        self.audits_failed_sum += other.audits_failed_sum;
        self.quarantined_sum += other.quarantined_sum;
        self.tainted_sum += other.tainted_sum;
        self.memtable_sum += other.memtable_sum;
        self.masked_sum += other.masked_sum;
        self.compactions_sum += other.compactions_sum;
        self.rewritten_sum += other.rewritten_sum;
        self.queue_wait_sum += other.queue_wait_sum;
        self.cache_hits_sum += other.cache_hits_sum;
        for (&p, &v) in &other.peer_visits {
            *self.peer_visits.entry(p).or_insert(0) += v;
        }
    }

    /// The distribution of per-peer visit counts (the congestion
    /// histogram). Only peers that processed at least one query appear as
    /// samples; untouched peers contribute nothing.
    ///
    /// # Panics
    /// Panics if no peer was ever visited.
    pub fn visit_distribution(&self) -> Distribution {
        Distribution::of(self.peer_visits.values().map(|&v| v as f64))
    }

    /// Produces the summary.
    ///
    /// # Panics
    /// Panics if no queries were recorded.
    pub fn summary(&self) -> PointSummary {
        assert!(self.count > 0, "no queries recorded");
        let n = self.count as f64;
        PointSummary {
            queries: self.count,
            latency: self.latency_sum as f64 / n,
            latency_max: self.latency_max,
            congestion: self.visits_sum as f64 / n,
            messages: self.messages_sum as f64 / n,
            tuples: self.tuples_sum as f64 / n,
            congestion_max: self.peer_visits.values().copied().max().unwrap_or(0),
            retries: self.retries_sum as f64 / n,
            timeouts: self.timeouts_sum as f64 / n,
            messages_dropped: self.dropped_sum as f64 / n,
            repair_messages: self.repair_sum as f64 / n,
            replica_hits: self.replica_hits_sum as f64 / n,
            stale_reads: self.stale_reads_sum as f64 / n,
            replica_bytes: self.replica_bytes_sum as f64 / n,
            repair_transfers: self.repair_transfers_sum as f64 / n,
            duplicate_visits: self.duplicate_sum,
            tuples_scanned: self.scanned_sum as f64 / n,
            blocks_pruned: self.pruned_sum as f64 / n,
            audits_run: self.audits_run_sum as f64 / n,
            audits_failed: self.audits_failed_sum as f64 / n,
            quarantined_peers: self.quarantined_sum,
            tainted_tuples_discarded: self.tainted_sum as f64 / n,
            memtable_hits: self.memtable_sum as f64 / n,
            tombstones_masked: self.masked_sum as f64 / n,
            compactions_run: self.compactions_sum,
            write_amplification: self.rewritten_sum as f64 / n,
            queue_wait_ns: self.queue_wait_sum as f64 / n,
            cache_hits: self.cache_hits_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counters() {
        let mut m = QueryMetrics::new();
        m.visit(PeerId::new(0));
        m.visit(PeerId::new(1));
        m.forward();
        m.respond(5);
        m.respond(0);
        assert_eq!(m.peers_visited, 2);
        assert_eq!(m.visited, vec![PeerId::new(0), PeerId::new(1)]);
        assert_eq!(m.query_messages, 1);
        assert_eq!(m.response_messages, 2);
        assert_eq!(m.tuples_transferred, 5);
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn sequential_absorb_adds_latency() {
        let mut a = QueryMetrics {
            latency: 3,
            query_messages: 4,
            response_messages: 2,
            peers_visited: 5,
            tuples_transferred: 7,
            retries: 1,
            timeouts: 1,
            visited: (0..5).map(PeerId::new).collect(),
            ..QueryMetrics::default()
        };
        let b = QueryMetrics {
            latency: 2,
            query_messages: 1,
            response_messages: 1,
            peers_visited: 2,
            tuples_transferred: 3,
            retries: 2,
            messages_dropped: 2,
            repair_messages: 5,
            replica_hits: 3,
            stale_reads: 1,
            replica_bytes: 48,
            repair_transfers: 2,
            duplicate_visits: 1,
            tuples_scanned: 120,
            blocks_pruned: 4,
            audits_run: 6,
            audits_failed: 2,
            quarantined_peers: 1,
            tainted_tuples_discarded: 9,
            memtable_hits: 30,
            tombstones_masked: 11,
            compactions_run: 1,
            write_amplification: 256,
            visited: vec![PeerId::new(0), PeerId::new(9)],
            ..QueryMetrics::default()
        };
        a.absorb_sequential(&b);
        assert_eq!(a.latency, 5);
        assert_eq!(a.peers_visited, 7);
        assert_eq!(a.tuples_transferred, 10);
        assert_eq!(a.retries, 3);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.messages_dropped, 2);
        assert_eq!(a.repair_messages, 5);
        assert_eq!(a.replica_hits, 3);
        assert_eq!(a.stale_reads, 1);
        assert_eq!(a.replica_bytes, 48);
        assert_eq!(a.repair_transfers, 2);
        assert_eq!(a.duplicate_visits, 1);
        assert_eq!(a.tuples_scanned, 120);
        assert_eq!(a.blocks_pruned, 4);
        assert_eq!(a.audits_run, 6);
        assert_eq!(a.audits_failed, 2);
        assert_eq!(a.quarantined_peers, 1);
        assert_eq!(a.tainted_tuples_discarded, 9);
        assert_eq!(a.memtable_hits, 30);
        assert_eq!(a.tombstones_masked, 11);
        assert_eq!(a.compactions_run, 1);
        assert_eq!(a.write_amplification, 256);
        assert_eq!(a.visited.len(), 7, "visit sequences concatenate");
        assert_eq!(a.visited[5], PeerId::new(0));
    }

    /// Data-plane observability never participates in ledger equality: two
    /// executions that differ only in scan effort compare equal, while any
    /// paper-metric difference still breaks equality.
    #[test]
    fn scan_counters_excluded_from_equality() {
        let base = QueryMetrics {
            latency: 3,
            peers_visited: 2,
            visited: vec![PeerId::new(0), PeerId::new(1)],
            ..QueryMetrics::default()
        };
        let mut lazier = base.clone();
        lazier.tuples_scanned = 10_000;
        lazier.blocks_pruned = 17;
        lazier.memtable_hits = 40;
        lazier.tombstones_masked = 9;
        lazier.compactions_run = 2;
        lazier.write_amplification = 512;
        assert_eq!(base, lazier, "scan effort is not an outcome");
        let mut audited = base.clone();
        audited.audits_run = 40;
        audited.audits_failed = 3;
        audited.quarantined_peers = 2;
        audited.tainted_tuples_discarded = 12;
        assert_eq!(base, audited, "audit effort is not an outcome");
        let mut served = base.clone();
        served.queue_wait_ns = 1_000_000;
        served.cache_hit = true;
        served.served_generation = Some(42);
        assert_eq!(base, served, "serving provenance is not an outcome");
        let mut different = base.clone();
        different.latency = 4;
        assert_ne!(base, different);
        let mut reordered = base.clone();
        reordered.visited.reverse();
        assert_ne!(base, reordered, "visit sequences still compared");
    }

    #[test]
    fn trace_off_counts_without_retaining() {
        let mut m = QueryMetrics::with_trace(false);
        for p in 0..100u32 {
            m.visit(PeerId::new(p));
        }
        assert_eq!(m.peers_visited, 100);
        assert!(m.visited.is_empty(), "no trace retained");
        let mut t = QueryMetrics::with_trace(true);
        t.visit(PeerId::new(3));
        m.absorb_sequential(&t);
        assert_eq!(m.peers_visited, 101);
        assert!(m.visited.is_empty(), "absorb respects the receiver's mode");
        assert_eq!(QueryMetrics::with_trace(true), QueryMetrics::default());
    }

    #[test]
    fn failure_metrics_flow_into_summary() {
        let mut agg = MetricsAggregator::new();
        for i in 0..4u64 {
            let m = QueryMetrics {
                retries: i,
                timeouts: 1,
                messages_dropped: 2 * i,
                repair_messages: 4,
                replica_hits: i,
                stale_reads: i / 2,
                replica_bytes: 24 * i,
                repair_transfers: 1,
                duplicate_visits: i % 2,
                tuples_scanned: 100 * i,
                blocks_pruned: 2 * i,
                audits_run: 8,
                audits_failed: i,
                quarantined_peers: i % 2,
                tainted_tuples_discarded: 3 * i,
                memtable_hits: 10 * i,
                tombstones_masked: 4 * i,
                compactions_run: i % 2,
                write_amplification: 64 * i,
                queue_wait_ns: 1000 * i,
                cache_hit: i % 2 == 1,
                served_generation: Some(7),
                ..QueryMetrics::default()
            };
            agg.record(&m);
        }
        let s = agg.summary();
        assert!((s.retries - 1.5).abs() < 1e-12);
        assert!((s.timeouts - 1.0).abs() < 1e-12);
        assert!((s.messages_dropped - 3.0).abs() < 1e-12);
        assert!((s.repair_messages - 4.0).abs() < 1e-12);
        assert!((s.replica_hits - 1.5).abs() < 1e-12);
        assert!((s.stale_reads - 0.5).abs() < 1e-12);
        assert!((s.replica_bytes - 36.0).abs() < 1e-12);
        assert!((s.repair_transfers - 1.0).abs() < 1e-12);
        assert_eq!(s.duplicate_visits, 2, "anomalies total, not average");
        assert!((s.tuples_scanned - 150.0).abs() < 1e-12);
        assert!((s.blocks_pruned - 3.0).abs() < 1e-12);
        assert!((s.audits_run - 8.0).abs() < 1e-12);
        assert!((s.audits_failed - 1.5).abs() < 1e-12);
        assert_eq!(s.quarantined_peers, 2, "registry events total, not average");
        assert!((s.tainted_tuples_discarded - 4.5).abs() < 1e-12);
        assert!((s.memtable_hits - 15.0).abs() < 1e-12);
        assert!((s.tombstones_masked - 6.0).abs() < 1e-12);
        assert_eq!(s.compactions_run, 2, "store events total, not average");
        assert!((s.write_amplification - 96.0).abs() < 1e-12);
        assert!((s.queue_wait_ns - 1500.0).abs() < 1e-12);
        assert_eq!(s.cache_hits, 2, "hits total, not average");
    }

    #[test]
    fn aggregation_and_summary() {
        let mut agg = MetricsAggregator::new();
        for latency in [2u64, 4, 6] {
            let mut m = QueryMetrics {
                latency,
                query_messages: latency,
                tuples_transferred: 1,
                ..QueryMetrics::default()
            };
            // peer 0 absorbs `latency` visits; higher peers one visit each
            for p in 0..10u32 {
                m.visit(PeerId::new(if u64::from(p) < latency { 0 } else { p }));
            }
            agg.record(&m);
        }
        let s = agg.summary();
        assert_eq!(s.queries, 3);
        assert!((s.latency - 4.0).abs() < 1e-12);
        assert_eq!(s.latency_max, 6);
        assert!((s.congestion - 10.0).abs() < 1e-12);
        assert!((s.messages - 4.0).abs() < 1e-12);
        assert_eq!(s.congestion_max, 2 + 4 + 6, "peer 0 is the hotspot");
    }

    #[test]
    fn visit_histogram_and_distribution() {
        let mut a = MetricsAggregator::new();
        let mut b = MetricsAggregator::new();
        let mut m = QueryMetrics::new();
        m.visit(PeerId::new(0));
        m.visit(PeerId::new(1));
        a.record(&m);
        let mut m2 = QueryMetrics::new();
        m2.visit(PeerId::new(0));
        b.record(&m2);
        // chunks of the same network: per-peer counts add on merge
        a.merge(&b);
        let d = a.visit_distribution();
        assert_eq!(d.count, 2, "two distinct peers visited");
        assert_eq!(d.max, 2.0, "peer 0 visited twice");
        assert_eq!(a.summary().congestion_max, 2);
    }

    #[test]
    fn merge_combines_networks() {
        let mut a = MetricsAggregator::new();
        let mut b = MetricsAggregator::new();
        a.record(&QueryMetrics {
            latency: 10,
            ..QueryMetrics::default()
        });
        b.record(&QueryMetrics {
            latency: 20,
            ..QueryMetrics::default()
        });
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.queries, 2);
        assert!((s.latency - 15.0).abs() < 1e-12);
        assert_eq!(s.latency_max, 20);
    }

    #[test]
    #[should_panic(expected = "no queries")]
    fn empty_summary_panics() {
        let _ = MetricsAggregator::new().summary();
    }

    #[test]
    fn empty_point_summary_is_all_zero() {
        let e = PointSummary::empty();
        assert_eq!(e.queries, 0);
        assert_eq!(e.latency, 0.0);
        assert_eq!(e.latency_max, 0);
        assert_eq!(e.congestion_max, 0);
        assert_eq!(e.replica_hits, 0.0);
        assert_eq!(e.stale_reads, 0.0);
        assert_eq!(e.replica_bytes, 0.0);
        assert_eq!(e.repair_transfers, 0.0);
        assert_eq!(e.duplicate_visits, 0);
        assert_eq!(e.tuples_scanned, 0.0);
        assert_eq!(e.blocks_pruned, 0.0);
        assert_eq!(e.audits_run, 0.0);
        assert_eq!(e.audits_failed, 0.0);
        assert_eq!(e.quarantined_peers, 0);
        assert_eq!(e.tainted_tuples_discarded, 0.0);
        assert_eq!(e.memtable_hits, 0.0);
        assert_eq!(e.tombstones_masked, 0.0);
        assert_eq!(e.compactions_run, 0);
        assert_eq!(e.write_amplification, 0.0);
        assert_eq!(e.queue_wait_ns, 0.0);
        assert_eq!(e.cache_hits, 0);
    }

    fn ledger_with(visits: &[u32], answers: usize, unreachable: &[f64]) -> BranchLedger {
        let mut l = BranchLedger::new(true);
        for &p in visits {
            l.metrics.visit(PeerId::new(p));
        }
        l.answer(
            (0..answers as u64)
                .map(|i| Tuple::new(i, vec![0.0, 0.0]))
                .collect(),
        );
        l.unreachable.extend_from_slice(unreachable);
        l
    }

    #[test]
    fn branch_merge_restores_sequential_order() {
        // parent visits itself first (pre-order) …
        let mut parent = BranchLedger::new(true);
        parent.metrics.visit(PeerId::new(0));
        let c1 = ledger_with(&[1, 2], 2, &[0.25]);
        let c2 = ledger_with(&[3], 1, &[0.5]);
        // … merges children in link order …
        parent.merge_child(c1);
        parent.merge_child(c2);
        // … and appends its own answer last (post-order).
        parent.answer(vec![Tuple::new(9, vec![1.0, 1.0])]);
        let seq: Vec<PeerId> = [0, 1, 2, 3].into_iter().map(PeerId::new).collect();
        assert_eq!(parent.metrics.visited, seq, "pre-order visit trace");
        assert_eq!(parent.metrics.peers_visited, 4);
        let answer_ids: Vec<u64> = parent.answers.iter().map(|t| t.id).collect();
        assert_eq!(answer_ids, vec![0, 1, 0, 9], "post-order answer stream");
        assert_eq!(parent.unreachable, vec![0.25, 0.5], "abandonment order");
        assert_eq!(parent.metrics.response_messages, 3);
        assert_eq!(parent.metrics.tuples_transferred, 4);
    }

    #[test]
    fn branch_merge_respects_trace_mode() {
        let mut lean = BranchLedger::new(false);
        lean.metrics.visit(PeerId::new(0));
        lean.merge_child(ledger_with(&[1, 2], 0, &[]));
        assert_eq!(lean.metrics.peers_visited, 3);
        assert!(lean.metrics.visited.is_empty(), "trace-off stays O(1)");
    }

    #[test]
    fn sharded_visited_matches_hashset_semantics() {
        let set = ShardedVisited::new(1000, 8);
        assert!(set.is_empty());
        let mut dup = 0u64;
        // interleave fresh and repeat inserts like a broken-restriction run
        for i in 0..1000u32 {
            if !set.insert(PeerId::new(i % 400)) {
                dup += 1;
            }
        }
        assert_eq!(set.len(), 400);
        assert_eq!(dup, 600, "duplicates = visits - distinct, order-free");
    }

    #[test]
    fn sharded_visited_is_consistent_under_threads() {
        let set = ShardedVisited::new(4096, 16);
        let dup = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let set = &set;
                let dup = &dup;
                s.spawn(move || {
                    // every thread inserts the same 2048 peers
                    for i in 0..2048u32 {
                        let p = PeerId::new((i + t * 512) % 2048);
                        if !set.insert(p) {
                            dup.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let dup = dup.into_inner();
        assert_eq!(set.len(), 2048, "each peer inserted exactly once");
        assert_eq!(
            dup,
            4 * 2048 - 2048,
            "total duplicates are schedule-independent"
        );
    }
}
