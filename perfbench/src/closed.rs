//! The closed-loop workloads (`paper-topk`, `dense-local`): one caller
//! issues a query, waits for the answer, and issues the next.

use crate::check::{check_skyline, check_topk, check_twin, Checked, LiveCopy, Oracle};
use crate::common::{self, apply_writes, check_count, Ingest, Shape, Stream};
use crate::report::{median, ms, percentile, ratio, Report};
use crate::trace::{self, Callback, Family, Outcome, Span, Spans, TracedNet};
use ripple_core::skyline::SkylineQuery;
use ripple_core::topk::run_topk_certified;
use ripple_core::{run_skyline_certified, Executor, Mode};
use ripple_geom::{Tuple, TupleId};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::Rng;
use ripple_net::PeerId;
use std::time::Instant;

/// One closed-loop workload.
pub struct Spec {
    pub dims: usize,
    pub peers: usize,
    pub data: fn(&mut SmallRng) -> Vec<Tuple>,
    /// Every `skyline_every`-th query of the main pass is a constrained
    /// skyline; 0 makes the main pass top-k only.
    pub skyline_every: usize,
    /// Skylines in a side pass after the main one, for workloads whose
    /// main pass has none.
    pub side_skylines: usize,
    pub modes: fn(u32) -> Vec<Mode>,
    pub write_batch: usize,
}

/// Results per top-k query.
const K: usize = 10;
/// Write epochs per run, spread over the main pass.
const WRITE_EPOCHS: usize = 100;
/// The p99 latency limit of the replayed open-loop rate: well above the
/// slowest queries either workload runs (paper-topk's fast-mode
/// near-broadcasts, dense-local's skylines).
const LIMIT_MS: f64 = 250.0;

/// Seconds of warm-up queries (from a seed disjoint from the measured
/// one) before each measured pass, so lazy set-up is done.
const WARMUP_S: f64 = 0.5;
/// Queries run between two rounds of output checks.
const CHECK_BATCH: usize = 32;

struct Query {
    shape: Shape,
    mode: Mode,
    initiator: PeerId,
}

/// Strata of top-k anchor tuples (see [`Queries`]).
const STRATA: usize = 128;

/// The query stream. Skylines get a random box and cycle through the
/// modes. Top-k peaks are stratified: the anchor tuples, ordered by
/// sparseness, are split into `STRATA` equal strata, and each block of
/// `STRATA` × modes top-k queries asks, in shuffled order, once per
/// stratum and mode for a peak near a random anchor of that stratum. Every
/// run then asks about sparse and dense parts of the data, in every mode,
/// in the data's own proportions: on paper-topk the sparsest peaks, whose
/// fast-mode queries nearly broadcast, carry most of the messages, and
/// drawing them independently would make every mean depend on how many a
/// run happened to draw.
struct Queries<'a> {
    rng: SmallRng,
    issued: usize,
    skylines: usize,
    skyline_every: usize,
    anchors: &'a [usize],
    block: Vec<(usize, usize)>,
}

impl<'a> Queries<'a> {
    fn new(seed: u64, stream: Stream, skyline_every: usize, anchors: &'a [usize]) -> Self {
        Self {
            rng: common::rng(seed, stream),
            issued: 0,
            skylines: 0,
            skyline_every,
            anchors,
            block: Vec::new(),
        }
    }

    fn next(&mut self, spec: &Spec, net: &MidasNetwork, data: &[Tuple], modes: &[Mode]) -> Query {
        self.issued += 1;
        let (shape, mode) =
            if self.skyline_every > 0 && self.issued.is_multiple_of(self.skyline_every) {
                self.skylines += 1;
                let b = common::random_box(spec.dims, common::BOX_SIDE, &mut self.rng);
                (Shape::Skyline(b), modes[(self.skylines - 1) % modes.len()])
            } else {
                if self.block.is_empty() {
                    self.block = (0..STRATA)
                        .flat_map(|s| (0..modes.len()).map(move |m| (s, m)))
                        .collect();
                    for i in (1..self.block.len()).rev() {
                        self.block.swap(i, self.rng.gen_range(0..i + 1));
                    }
                }
                let (stratum, m) = self.block.pop().expect("refilled above");
                let n = self.anchors.len();
                let (lo, hi) = (stratum * n / STRATA, (stratum + 1) * n / STRATA);
                let anchor = &data[self.anchors[self.rng.gen_range(lo..hi)]];
                (Shape::TopK(common::near(anchor, &mut self.rng)), modes[m])
            };
        let initiator = net.random_peer(&mut self.rng);
        Query {
            shape,
            mode,
            initiator,
        }
    }
}

fn run_plain(net: &MidasNetwork, q: &Query, k: usize) -> Outcome {
    let exec = Executor::new(net);
    match &q.shape {
        Shape::TopK(p) => run_topk_certified(&exec, q.initiator, Shape::score(p), k, q.mode),
        Shape::Skyline(b) => run_skyline_certified(
            &exec,
            q.initiator,
            SkylineQuery::constrained(b.clone()),
            q.mode,
        ),
    }
}

fn run_traced(net: &TracedNet<&MidasNetwork>, q: &Query, k: usize) -> Outcome {
    let exec = Executor::new(net);
    match &q.shape {
        Shape::TopK(p) => trace::traced_topk(&exec, q.initiator, Shape::score(p), k, q.mode),
        Shape::Skyline(b) => trace::traced_skyline(
            &exec,
            q.initiator,
            SkylineQuery::constrained(b.clone()),
            q.mode,
        ),
    }
}

fn check(
    q: &Query,
    out: &Outcome,
    k: usize,
    generation: u64,
    oracle: &Oracle,
) -> Result<(), String> {
    match &q.shape {
        Shape::TopK(p) => check_topk(Checked::of(out), &Shape::score(p), k, generation, oracle),
        Shape::Skyline(b) => check_skyline(Checked::of(out), b, generation, oracle),
    }
}

/// Latencies and ledger totals of one pass.
#[derive(Default)]
struct Samples {
    all_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    skyline_ms: Vec<f64>,
    messages: u64,
    hops: u64,
    transferred: u64,
    scanned: u64,
    pruned: u64,
    memtable: u64,
    masked: u64,
    answers: u64,
}

impl Samples {
    fn add(&mut self, q: &Query, out: &Outcome, ms: f64) {
        let m = &out.1;
        self.all_ms.push(ms);
        match q.shape {
            Shape::TopK(_) => self.topk_ms.push(ms),
            Shape::Skyline(_) => self.skyline_ms.push(ms),
        }
        self.messages += m.query_messages + m.response_messages;
        self.hops += m.latency;
        self.transferred += m.tuples_transferred;
        self.scanned += m.tuples_scanned;
        self.pruned += m.blocks_pruned;
        self.memtable += m.memtable_hits;
        self.masked += m.tombstones_masked;
        self.answers += out.0.len() as u64;
    }

    fn queries(&self) -> f64 {
        self.all_ms.len() as f64
    }

    fn busy_ms(&self) -> f64 {
        self.all_ms.iter().sum()
    }
}

/// Work run between two queries of a pass, outside their timing; it is
/// handed the seconds since the pass started.
type Between<'a> = &'a mut dyn FnMut(f64, &mut Report);

/// A measured pass over `a` (untraced) and, in the traced run, over its
/// twin `b` (traced), query by query in alternating order. Stops after
/// `count` queries, or once `seconds` of wall time have passed.
#[allow(clippy::too_many_arguments)]
fn pass(
    spec: &Spec,
    a: &MidasNetwork,
    b: Option<&MidasNetwork>,
    data: &[Tuple],
    queries: &mut Queries,
    oracle: Option<&Oracle>,
    seconds: f64,
    count: usize,
    report: &mut Report,
    between: Between<'_>,
) -> (Samples, Samples) {
    let modes = (spec.modes)(a.delta());
    let traced = b.map(TracedNet);
    let (mut plain, mut twin) = (Samples::default(), Samples::default());
    let generation = a.epoch();
    let start = Instant::now();
    let mut issued = 0;
    trace::reset();
    while issued < count && start.elapsed().as_secs_f64() < seconds {
        let mut batch = Vec::with_capacity(CHECK_BATCH);
        for _ in 0..CHECK_BATCH.min(count - issued) {
            let q = queries.next(spec, a, data, &modes);
            let untraced_first = issued % 2 == 0;
            let mut twin_out = None;
            if let (Some(t), false) = (&traced, untraced_first) {
                twin_out = Some(timed_query(|| run_traced(t, &q, K)));
            }
            let (out, took) = timed_query(|| run_plain(a, &q, K));
            if let (Some(t), true) = (&traced, untraced_first) {
                twin_out = Some(timed_query(|| run_traced(t, &q, K)));
            }
            plain.add(&q, &out, took);
            if let Some((t_out, t_took)) = twin_out {
                twin.add(&q, &t_out, t_took);
                report.check(check_twin(&out, &t_out));
            }
            issued += 1;
            batch.push((q, out));
            between(start.elapsed().as_secs_f64(), report);
        }
        if let Some(oracle) = oracle {
            for (q, out) in &batch {
                report.check(check(q, out, K, generation, oracle));
            }
        }
    }
    (plain, twin)
}

fn timed_query(f: impl FnOnce() -> Outcome) -> (Outcome, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Write epochs on an overlay of their own: each inserts a batch near
/// the data and deletes as many live tuples.
struct Writer {
    net: MidasNetwork,
    copy: LiveCopy,
    rng: SmallRng,
    next_id: TupleId,
    batch: usize,
    before: Ingest,
    epoch_ms: Vec<f64>,
}

impl Writer {
    fn new(spec: &Spec, seed: u64, net: MidasNetwork, data: Vec<Tuple>) -> Self {
        let next_id = data.iter().map(|t| t.id).max().unwrap_or(0);
        Self {
            before: Ingest::of(&net),
            net,
            copy: LiveCopy::new(data),
            rng: common::rng(seed, Stream::Writes),
            next_id,
            batch: spec.write_batch,
            epoch_ms: Vec::new(),
        }
    }

    fn epoch(&mut self, report: &mut Report) {
        let batch = common::write_batch(&self.copy, self.batch, &mut self.next_id, &mut self.rng);
        let t0 = Instant::now();
        let removed = apply_writes(&mut self.net, &batch);
        self.epoch_ms.push(ms(t0.elapsed()));
        self.copy.insert(&batch.insert);
        let expected = self.copy.delete(&batch.delete);
        report.check(common::same_removed(removed, expected));
    }

    /// Checks the overlay against the copy; returns the write-path totals.
    fn finish(&self, report: &mut Report) -> Ingest {
        report.check(check_count(&self.net, &self.copy));
        Ingest::of(&self.net).since(self.before)
    }
}

/// Calls `f` whenever the next of `total` events spread evenly over
/// `seconds` has fallen due.
fn spread(total: usize, seconds: f64, done: &mut usize, now: f64, mut f: impl FnMut()) {
    while *done < total && now >= *done as f64 * seconds / total as f64 {
        f();
        *done += 1;
    }
}

fn warm_up(
    spec: &Spec,
    seed: u64,
    nets: (&MidasNetwork, Option<&MidasNetwork>),
    data: &[Tuple],
    anchors: &[usize],
    report: &mut Report,
) {
    let (a, b) = nets;
    let mut warm = Queries::new(seed, Stream::Warmup, spec.skyline_every.max(4), anchors);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARMUP_S {
        pass(
            spec,
            a,
            b,
            data,
            &mut warm,
            None,
            f64::INFINITY,
            4,
            report,
            &mut |_, _| {},
        );
    }
}

/// Response times, in ms, of requests arriving evenly spaced at `rate`
/// per second at one FIFO server that takes `service_ms` for each (in
/// issue order), and the work still queued when the last one arrives.
fn replay(service_ms: &[f64], rate: f64) -> (Vec<f64>, f64) {
    let gap = 1e3 / rate;
    let mut wait = 0.0;
    let mut response = Vec::with_capacity(service_ms.len());
    for &s in service_ms {
        response.push(wait + s);
        wait = f64::max(0.0, wait + s - gap);
    }
    (response, wait)
}

/// The highest rate whose replay keeps the p99 response time within
/// `limit_ms` and ends with no more than `limit_ms` of work queued. Waits
/// only grow with the rate, so bisection finds it.
fn replayed_max_rate(service_ms: &[f64], limit_ms: f64) -> f64 {
    let meets = |rate: f64| {
        let (response, queued) = replay(service_ms, rate);
        percentile(&response, 99.0) <= limit_ms && queued <= limit_ms
    };
    let capacity = capacity(service_ms);
    let (mut lo, mut hi) = (capacity * 1e-3, capacity * 1.5);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Requests per second one server with these service times completes.
fn capacity(service_ms: &[f64]) -> f64 {
    1e3 * service_ms.len() as f64 / service_ms.iter().sum::<f64>()
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    if traced {
        run_traced_twins(spec, seed, seconds, report);
        return;
    }
    // Set-up runs three times, spread over the run so its median sees
    // more than one moment of the host: the queried overlay, the overlay
    // that takes the writes, and a last one that is dropped.
    let mut setup_s = Vec::new();
    let mut timed_load = || {
        let t0 = Instant::now();
        let l = common::load(spec.dims, spec.peers, spec.data);
        setup_s.push(t0.elapsed().as_secs_f64());
        l
    };
    let l = timed_load();
    let lw = timed_load();
    let oracle = Oracle::new(&l.data);
    let anchors = common::anchors_by_sparseness(&l.data, K);
    warm_up(spec, seed, (&l.net, None), &l.data, &anchors, report);

    // The side skylines and the write epochs are spread over the main pass
    // (run between its queries, outside their timing), so that like the
    // main pass they span the whole run.
    let mut writer = Writer::new(spec, seed, lw.net, lw.data);
    let mut side = Queries::new(seed, Stream::SideQueries, 1, &anchors);
    let modes = (spec.modes)(l.net.delta());
    let mut side_ms = Vec::new();
    let (mut writes_done, mut skylines_done) = (0, 0);
    let mut between = |now: f64, report: &mut Report| {
        spread(spec.side_skylines, seconds, &mut skylines_done, now, || {
            let q = side.next(spec, &l.net, &l.data, &modes);
            let (out, took) = timed_query(|| run_plain(&l.net, &q, K));
            side_ms.push(took);
            report.check(check(&q, &out, K, l.net.epoch(), &oracle));
        });
        spread(WRITE_EPOCHS, seconds, &mut writes_done, now, || {
            writer.epoch(report)
        });
    };
    let mut main = Queries::new(seed, Stream::Queries, spec.skyline_every, &anchors);
    let (m, _) = pass(
        spec,
        &l.net,
        None,
        &l.data,
        &mut main,
        Some(&oracle),
        seconds,
        usize::MAX,
        report,
        &mut between,
    );
    between(f64::INFINITY, report);
    let skyline_ms = if spec.side_skylines > 0 {
        side_ms
    } else {
        m.skyline_ms.clone()
    };
    writer.finish(report);
    let write_ms = std::mem::take(&mut writer.epoch_ms);
    drop(writer);
    drop(timed_load());

    report.add("setup_s", median(&setup_s), "s");
    report.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    report.add("topk_p50_ms", median(&m.topk_ms), "ms");
    report.add("topk_p99_ms", percentile(&m.topk_ms, 99.0), "ms");
    report.add("skyline_p50_ms", median(&skyline_ms), "ms");
    report.add("skyline_p95_ms", percentile(&skyline_ms, 95.0), "ms");
    report.add("queries_per_s", capacity(&m.all_ms), "1/s");
    // Served latency as if the main pass's queries had arrived open-loop
    // at half the caller's capacity.
    let (served, _) = replay(&m.all_ms, capacity(&m.all_ms) / 2.0);
    report.add("served_p50_ms", median(&served), "ms");
    report.add("served_p99_ms", percentile(&served, 99.0), "ms");
    report.add(
        "served_max_rate_qps",
        replayed_max_rate(&m.all_ms, LIMIT_MS),
        "1/s",
    );
    report.add("write_p50_ms", median(&write_ms), "ms");
    report.add("write_p99_ms", percentile(&write_ms, 99.0), "ms");
    report.add(
        "messages_per_query",
        m.messages as f64 / m.queries(),
        "count",
    );
    report.add("hops_per_query", m.hops as f64 / m.queries(), "count");
    eprintln!(
        "main pass: {} queries ({} top-k, {} skyline), side skylines {}, write epochs {}",
        m.all_ms.len(),
        m.topk_ms.len(),
        m.skyline_ms.len(),
        skyline_ms.len(),
        write_ms.len()
    );
}

/// The traced run: two overlays built from the same seed, one queried
/// plainly and one through the tracing wrappers, query by query.
fn run_traced_twins(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) {
    let la = common::load(spec.dims, spec.peers, spec.data);
    let lb = common::load(spec.dims, spec.peers, spec.data);
    let oracle = Oracle::new(&la.data);
    let anchors = common::anchors_by_sparseness(&la.data, K);
    warm_up(
        spec,
        seed,
        (&la.net, Some(&lb.net)),
        &la.data,
        &anchors,
        report,
    );

    let mut main = Queries::new(seed, Stream::Queries, spec.skyline_every, &anchors);
    let (m, mt) = pass(
        spec,
        &la.net,
        Some(&lb.net),
        &la.data,
        &mut main,
        Some(&oracle),
        seconds,
        usize::MAX,
        report,
        &mut |_, _| {},
    );
    let main_spans = trace::snapshot();
    let (sky_samples, sky_spans) = if spec.side_skylines > 0 {
        let mut side = Queries::new(seed, Stream::SideQueries, 1, &anchors);
        let (_, st) = pass(
            spec,
            &la.net,
            Some(&lb.net),
            &la.data,
            &mut side,
            Some(&oracle),
            f64::INFINITY,
            spec.side_skylines,
            report,
            &mut |_, _| {},
        );
        (st, trace::snapshot())
    } else {
        (
            Samples {
                skyline_ms: mt.skyline_ms.clone(),
                ..Samples::default()
            },
            main_spans.clone(),
        )
    };
    let (generate_s, build_s, load_s) = (
        median(&[la.generate_s, lb.generate_s]),
        median(&[la.build_s, lb.build_s]),
        median(&[la.load_s, lb.load_s]),
    );
    let mut writer = Writer::new(spec, seed, lb.net, lb.data);
    trace::reset();
    for _ in 0..WRITE_EPOCHS {
        writer.epoch(report);
    }
    let write_spans = trace::snapshot();
    let ingest = writer.finish(report);

    Layers {
        spans: &main_spans,
        queries: mt.queries(),
        topk_queries: mt.topk_ms.len() as f64,
    }
    .report(mt.transferred as f64, report);
    report_skyline_layers(&sky_spans, sky_samples.skyline_ms.len() as f64, report);
    let totals = [mt.scanned, mt.pruned, mt.answers, mt.memtable, mt.masked];
    report_store(totals.map(|v| v as f64), mt.queries(), ingest, report);
    for name in [
        "service.queue_wait_ms_p50",
        "service.queue_wait_ms_p99",
        "service.hit_ms_p50",
        "service.miss_ms_p50",
        "service.cache_hit_ratio",
        "service.cache_invalidated_per_epoch",
        "service.backlog_max",
        "service.advance_epoch.ms_p99",
    ] {
        report.add(name, 0.0, unit_of(name));
    }
    report_write_layers(&write_spans, writer.epoch_ms.len() as f64, report);
    report.add("data.generate_s", generate_s, "s");
    report.add("midas.build_s", build_s, "s");
    report.add("midas.load_s", load_s, "s");
    report.add("midas.age_s", 0.0, "s");
    report.add("generator.late_ms_p99", 0.0, "ms");
    report.add(
        "trace.overhead_pct",
        100.0 * (mt.busy_ms() / m.busy_ms() - 1.0),
        "%",
    );
}

pub fn unit_of(name: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("declared per-layer metric")
}

/// Per-query overlay, executor and top-k callback metrics from the spans
/// of one traced pass.
pub struct Layers<'a> {
    pub spans: &'a Spans,
    pub queries: f64,
    pub topk_queries: f64,
}

impl Layers<'_> {
    fn calls(&self, s: Span) -> f64 {
        ratio(self.spans.get(s).calls as f64, self.queries)
    }

    fn us(&self, s: Span) -> f64 {
        ratio(self.spans.get(s).ns as f64 / 1e3, self.queries)
    }

    fn topk_us(&self, cb: Callback) -> f64 {
        ratio(
            self.spans.callback(Family::TopK, cb).ns as f64 / 1e3,
            self.topk_queries,
        )
    }

    /// Reports the `midas`, `exec`, `query` and `topk` metrics;
    /// `transferred` is the pass's total of tuples transferred.
    pub fn report(&self, transferred: f64, report: &mut Report) {
        report.add(
            "midas.peer_links.calls_per_query",
            self.calls(Span::PeerLinks),
            "count",
        );
        report.add(
            "midas.peer_links.us_per_query",
            self.us(Span::PeerLinks),
            "us",
        );
        report.add(
            "midas.region_intersect.calls_per_query",
            self.calls(Span::RegionIntersect),
            "count",
        );
        report.add(
            "midas.region_intersect.us_per_query",
            self.us(Span::RegionIntersect),
            "us",
        );
        report.add(
            "midas.region_volume.us_per_query",
            self.us(Span::RegionVolume),
            "us",
        );
        report.add(
            "midas.route_lookup.us_per_query",
            self.us(Span::RouteLookup),
            "us",
        );
        report.add(
            "midas.peer_view.us_per_query",
            self.us(Span::PeerView),
            "us",
        );
        report.add(
            "midas.failover_target.calls_per_query",
            self.calls(Span::FailoverTarget),
            "count",
        );
        report.add("exec.us_per_query", self.us(Span::ExecRun), "us");
        report.add("exec.self_us_per_query", self.us(Span::ExecSelf), "us");
        report.add(
            "exec.tuples_transferred_per_query",
            ratio(transferred, self.queries),
            "count",
        );
        report.add("query.us_per_query", self.us(Span::Query), "us");
        report.add(
            "topk.local_state.calls_per_query",
            ratio(
                self.spans
                    .callback(Family::TopK, Callback::LocalState)
                    .calls as f64,
                self.topk_queries,
            ),
            "count",
        );
        report.add(
            "topk.local_state.us_per_query",
            self.topk_us(Callback::LocalState),
            "us",
        );
        report.add(
            "topk.global_state.us_per_query",
            self.topk_us(Callback::GlobalState),
            "us",
        );
        report.add(
            "topk.update_local.us_per_query",
            self.topk_us(Callback::UpdateLocal),
            "us",
        );
        report.add(
            "topk.local_answer.us_per_query",
            self.topk_us(Callback::LocalAnswer),
            "us",
        );
        report.add(
            "topk.link_relevant.us_per_query",
            self.topk_us(Callback::LinkRelevant),
            "us",
        );
        report.add(
            "topk.priority.us_per_query",
            self.topk_us(Callback::Priority),
            "us",
        );
        report.add(
            "topk.prune_witness.us_per_query",
            self.topk_us(Callback::PruneWitness),
            "us",
        );
    }
}

/// Per-skyline-query callback metrics; `queries` skylines ran.
pub fn report_skyline_layers(spans: &Spans, queries: f64, report: &mut Report) {
    let us = |cb| ratio(spans.callback(Family::Skyline, cb).ns as f64 / 1e3, queries);
    report.add(
        "skyline.local_state.us_per_query",
        us(Callback::LocalState),
        "us",
    );
    report.add(
        "skyline.global_state.us_per_query",
        us(Callback::GlobalState),
        "us",
    );
    report.add(
        "skyline.update_local.us_per_query",
        us(Callback::UpdateLocal),
        "us",
    );
    report.add(
        "skyline.local_answer.us_per_query",
        us(Callback::LocalAnswer),
        "us",
    );
    report.add(
        "skyline.link_relevant.us_per_query",
        us(Callback::LinkRelevant),
        "us",
    );
}

/// Store metrics: per-query read counters (`[scanned, pruned, answers,
/// memtable, masked]` totals over `queries`) and the write path's totals.
pub fn report_store(totals: [f64; 5], queries: f64, writes: Ingest, report: &mut Report) {
    let [scanned, pruned, answers, memtable, masked] = totals;
    report.add(
        "store.tuples_scanned_per_query",
        ratio(scanned, queries),
        "count",
    );
    report.add(
        "store.blocks_pruned_per_query",
        ratio(pruned, queries),
        "count",
    );
    report.add("store.scanned_per_answer", ratio(scanned, answers), "ratio");
    report.add(
        "store.memtable_hits_per_query",
        ratio(memtable, queries),
        "count",
    );
    report.add(
        "store.tombstones_masked_per_query",
        ratio(masked, queries),
        "count",
    );
    report.add(
        "store.write_amplification",
        ratio(
            (writes.ingested + writes.rewritten) as f64,
            writes.ingested as f64,
        ),
        "ratio",
    );
    report.add("store.compactions", writes.compactions as f64, "count");
}

/// Write-path spans per epoch.
pub fn report_write_layers(spans: &Spans, epochs: f64, report: &mut Report) {
    let per_epoch = |s: Span| ratio(spans.get(s).ns as f64 / 1e6, epochs);
    report.add(
        "midas.insert_batch.ms_per_epoch",
        per_epoch(Span::InsertBatch),
        "ms",
    );
    report.add(
        "midas.delete_tuples.ms_per_epoch",
        per_epoch(Span::DeleteTuples),
        "ms",
    );
}
