//! The open-loop serving workload (`served-ingest`): one thread submits
//! each request to a `QueryService` (`drivers: 0`) when it is due and runs
//! `step()` itself, and an epoch of writes lands every 250 ms on the same
//! clock. Requests and epochs are executed strictly in due order, so the
//! reads, the writes and every cache hit repeat exactly for a seed.

use crate::check::{check_skyline, check_topk, check_twin, Checked, LiveCopy, Oracle};
use crate::closed::{report_skyline_layers, report_store, report_write_layers, Layers};
use crate::common::{self, apply_writes, check_count, Ingest, Shape, Stream, WriteBatch};
use crate::report::{median, ms, percentile, ratio, Report};
use crate::trace::{self, Outcome, Spans, TracedNet};
use ripple_core::service::{QueryService, Servable, ServiceConfig, ServiceQuery, ServiceScore};
use ripple_core::skyline::SkylineQuery;
use ripple_core::{run_skyline_certified, Coverage, Executor, Mode};
use ripple_data::{synth, Zipf};
use ripple_geom::{Norm, Point, Tuple, TupleId};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::Rng;
use ripple_net::{PeerId, QueryMetrics};
use ripple_verify::Certificate;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: usize = 3;
const PEERS: usize = 256;
const RECORDS: usize = 131_072;
const K: usize = 16;
/// Hot top-k shapes, requested Zipf(1.0); the other half are fresh.
const HOT_SHAPES: usize = 64;
const ZIPF_S: f64 = 1.0;
const EPOCH_EVERY_S: f64 = 0.25;
/// Tuples inserted, and as many deleted, by each write epoch.
const WRITE_BATCH: usize = 1024;
/// Write epochs applied during set-up, so that memtable freezes and
/// compactions already run at their steady rate when timing starts.
const AGE_EPOCHS: usize = 48;
/// The fixed offered rate served latency is reported at: about a fifth of
/// the capacity measured on a 2-core x86-64 host, low enough that a request
/// waits only behind a write epoch, not behind other requests, so the
/// median stays the service time even on a slow host.
const FIXED_RATE: f64 = 500.0;
/// The p99 latency, timed from each request's due time, a rate must meet.
const LIMIT_MS: f64 = 100.0;
/// Length of one trial of the rate search.
const TRIAL_S: f64 = 0.5;
/// Ratio between rungs of the rate ladder, which starts at `FIXED_RATE`.
const LADDER: f64 = 1.2;
/// The top rung (about 18 times `FIXED_RATE`).
const MAX_RUNG: i32 = 16;
const SIDE_SKYLINES: usize = 240;
/// Warm-up requests; a fixed count, so a traced twin warms up identically.
const WARMUP_REQUESTS: usize = 1024;

/// The overlays a service can hold: plain or traced MIDAS.
pub trait Midas: Servable + Send + 'static {
    fn midas(&self) -> &MidasNetwork;
    fn midas_mut(&mut self) -> &mut MidasNetwork;
}

impl Midas for MidasNetwork {
    fn midas(&self) -> &MidasNetwork {
        self
    }
    fn midas_mut(&mut self) -> &mut MidasNetwork {
        self
    }
}

impl Midas for TracedNet<MidasNetwork> {
    fn midas(&self) -> &MidasNetwork {
        &self.0
    }
    fn midas_mut(&mut self) -> &mut MidasNetwork {
        &mut self.0
    }
}

fn uniform(rng: &mut SmallRng) -> Vec<Tuple> {
    synth::uniform(DIMS, RECORDS, rng)
}

/// A loaded, aged overlay and the benchmark's copy of its data.
struct Setup {
    net: MidasNetwork,
    copy: LiveCopy,
    next_id: TupleId,
    writes: SmallRng,
    generate_s: f64,
    build_s: f64,
    load_s: f64,
    age_s: f64,
}

fn setup(seed: u64, report: &mut Report) -> Setup {
    let l = common::load(DIMS, PEERS, uniform);
    let mut net = l.net;
    let mut copy = LiveCopy::new(l.data);
    let mut next_id = RECORDS as TupleId;
    let mut writes = common::rng(seed, Stream::Writes);
    let t0 = Instant::now();
    for _ in 0..AGE_EPOCHS {
        let batch = common::write_batch(&copy, WRITE_BATCH, &mut next_id, &mut writes);
        let removed = apply_writes(&mut net, &batch);
        copy.insert(&batch.insert);
        let expected = copy.delete(&batch.delete);
        report.check(common::same_removed(removed, expected));
    }
    let age_s = t0.elapsed().as_secs_f64();
    Setup {
        net,
        copy,
        next_id,
        writes,
        generate_s: l.generate_s,
        build_s: l.build_s,
        load_s: l.load_s,
        age_s,
    }
}

/// The request stream: half Zipf over the hot shapes, half fresh peaks.
struct Requests {
    rng: SmallRng,
    hot: Vec<Point>,
    zipf: Zipf,
    peers: Vec<PeerId>,
    modes: Vec<Mode>,
    issued: usize,
}

#[derive(Clone)]
struct Request {
    peak: Point,
    mode: Mode,
    initiator: PeerId,
}

impl Request {
    fn query(&self) -> ServiceQuery {
        ServiceQuery::TopK {
            score: ServiceScore::Peak(self.peak.coords().to_vec(), Norm::L1),
            k: K,
        }
    }
}

impl Requests {
    fn new(seed: u64, stream: Stream, net: &MidasNetwork) -> Self {
        let mut hot_rng = common::rng(seed ^ stream as u64, Stream::HotShapes);
        Self {
            rng: common::rng(seed, stream),
            hot: (0..HOT_SHAPES).map(|_| random_peak(&mut hot_rng)).collect(),
            zipf: Zipf::new(HOT_SHAPES, ZIPF_S),
            peers: net.live_peers().to_vec(),
            modes: common::paper_modes(net.delta()),
            issued: 0,
        }
    }

    fn next(&mut self) -> Request {
        let peak = if self.rng.gen_bool(0.5) {
            self.hot[self.zipf.sample(&mut self.rng)].clone()
        } else {
            random_peak(&mut self.rng)
        };
        let mode = self.modes[self.issued % self.modes.len()];
        self.issued += 1;
        let initiator = self.peers[self.rng.gen_range(0..self.peers.len())];
        Request {
            peak,
            mode,
            initiator,
        }
    }
}

fn random_peak(rng: &mut SmallRng) -> Point {
    Point::new((0..DIMS).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
}

/// One completed request.
struct Done {
    request: Request,
    answers: Vec<Tuple>,
    metrics: QueryMetrics,
    coverage: Coverage,
    certificate: Option<Arc<Certificate>>,
    generation: u64,
    hit: bool,
    /// Completion minus due time.
    latency_ms: f64,
    /// Duration of the `step()` that ran it.
    service_ms: f64,
}

/// One applied write epoch.
struct Epoch {
    batch: WriteBatch,
    generation: u64,
    ms: f64,
}

/// Everything one open-loop phase observed.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    epochs: Vec<Epoch>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    /// Requests due but not completed when the last one fell due.
    end_backlog: usize,
}

impl Phase {
    fn latency_p99(&self) -> f64 {
        percentile(
            &self.done.iter().map(|d| d.latency_ms).collect::<Vec<_>>(),
            99.0,
        )
    }

    /// No more than the latency limit's worth of requests was still
    /// queued when the last one fell due.
    fn backlog_bounded(&self, rate: f64) -> bool {
        self.end_backlog as f64 <= rate * LIMIT_MS / 1e3
    }

    /// The rate is sustained: p99 within the limit, backlog bounded.
    fn sustained(&self, rate: f64) -> bool {
        self.latency_p99() <= LIMIT_MS && self.backlog_bounded(rate)
    }
}

/// The service, its request stream and its write stream.
struct Harness<O: Midas> {
    svc: QueryService<O>,
    requests: Requests,
    live: LiveCopy,
    next_id: TupleId,
    writes: SmallRng,
}

impl<O: Midas> Harness<O> {
    fn new(s: Setup, wrap: impl FnOnce(MidasNetwork) -> O, seed: u64) -> Self {
        let requests = Requests::new(seed, Stream::Queries, &s.net);
        let config = ServiceConfig {
            drivers: 0,
            intra_query_threads: 0,
            queue_capacity: 1 << 20,
            ..ServiceConfig::default()
        };
        Self {
            svc: QueryService::new(wrap(s.net), config),
            requests,
            live: s.copy,
            next_id: s.next_id,
            writes: s.writes,
        }
    }

    /// Closed-loop requests from a stream disjoint from the measured one.
    fn warm_up(&self, seed: u64) {
        let mut warm = self
            .svc
            .with_network(|o| Requests::new(seed, Stream::Warmup, o.midas()));
        for _ in 0..WARMUP_REQUESTS {
            let r = warm.next();
            if let Ok(ticket) = self.svc.submit(0, r.initiator, r.query(), r.mode) {
                self.svc.step();
                let _ = ticket.wait();
            }
        }
    }

    fn epoch(&mut self, report: &mut Report) -> Epoch {
        let batch =
            common::write_batch(&self.live, WRITE_BATCH, &mut self.next_id, &mut self.writes);
        let t0 = Instant::now();
        let removed = self
            .svc
            .advance_epoch(|o| apply_writes(o.midas_mut(), &batch));
        let took = ms(t0.elapsed());
        self.live.insert(&batch.insert);
        let expected = self.live.delete(&batch.delete);
        report.check(common::same_removed(removed, expected));
        Epoch {
            batch,
            generation: self.svc.generation(),
            ms: took,
        }
    }

    /// Offers `rate` requests per second for `seconds`, with a write epoch
    /// every `EPOCH_EVERY_S`, then drains what is still queued.
    fn open_loop(&mut self, rate: f64, seconds: f64, report: &mut Report) -> Phase {
        let total = (seconds * rate).ceil() as usize;
        let epochs = ((seconds / EPOCH_EVERY_S).ceil() as usize).saturating_sub(1);
        let due = |i: usize| i as f64 / rate;
        let mut phase = Phase::default();
        let mut queue: VecDeque<(Request, f64, ripple_core::Ticket)> = VecDeque::new();
        let (mut next_req, mut next_epoch, mut completed) = (0, 1, 0);
        let t0 = Instant::now();
        loop {
            let now = t0.elapsed().as_secs_f64();
            let epoch_due = if next_epoch <= epochs {
                next_epoch as f64 * EPOCH_EVERY_S
            } else {
                f64::INFINITY
            };
            // Requests due before the next epoch; later ones wait for it.
            while next_req < total && due(next_req) <= now && due(next_req) < epoch_due {
                let r = self.requests.next();
                match self.svc.submit(0, r.initiator, r.query(), r.mode) {
                    Ok(ticket) => queue.push_back((r, due(next_req), ticket)),
                    Err(e) => report.check(Err(format!("admission rejected: {e}"))),
                }
                next_req += 1;
            }
            let due_now = if now >= seconds {
                total
            } else {
                ((now * rate).floor() as usize + 1).min(total)
            };
            phase.backlog_max = phase.backlog_max.max(due_now.saturating_sub(completed));
            if next_req == total && phase.end_backlog == 0 && now >= due(total - 1) {
                phase.end_backlog = total - completed;
            }
            if let Some((request, due_s, ticket)) = queue.pop_front() {
                let s0 = Instant::now();
                self.svc.step();
                let served = ticket.wait();
                let service_ms = ms(s0.elapsed());
                let latency_ms = (t0.elapsed().as_secs_f64() - due_s) * 1e3;
                completed += 1;
                match served {
                    Ok(resp) => phase.done.push(Done {
                        request,
                        answers: resp.answers,
                        metrics: resp.metrics,
                        coverage: resp.coverage,
                        certificate: resp.certificate,
                        generation: resp.generation,
                        hit: resp.cache_hit,
                        latency_ms,
                        service_ms,
                    }),
                    Err(e) => report.check(Err(format!("request failed: {e}"))),
                }
                continue;
            }
            if epoch_due <= now {
                let e = self.epoch(report);
                phase.epochs.push(e);
                next_epoch += 1;
                continue;
            }
            if next_req == total && next_epoch > epochs {
                break;
            }
            let target = if next_req < total {
                due(next_req).min(epoch_due)
            } else {
                epoch_due
            };
            wait_until(t0, target);
            phase
                .late_ms
                .push((t0.elapsed().as_secs_f64() - target) * 1e3);
        }
        report.check(
            self.svc
                .with_network(|o| check_count(o.midas(), &self.live)),
        );
        phase
    }
}

/// Sleeps until shortly before `target` seconds after `t0`, then spins.
fn wait_until(t0: Instant, target: f64) {
    let left = target - t0.elapsed().as_secs_f64();
    if left > 3e-4 {
        std::thread::sleep(Duration::from_secs_f64(left - 2e-4));
    }
    while t0.elapsed().as_secs_f64() < target {
        std::hint::spin_loop();
    }
}

/// The benchmark's copy of the data as of some generation, advanced by
/// replaying the logged write epochs, against which responses are checked.
struct Replay {
    copy: LiveCopy,
    generation: u64,
}

impl Replay {
    /// Checks every response of `phase` against the snapshot at its
    /// generation, then drops the answers and certificates, keeping the
    /// timings and counters.
    fn check(&mut self, phase: &mut Phase, report: &mut Report) {
        let mut epochs = phase.epochs.iter();
        let mut oracle: Option<Oracle> = None;
        let mut seen: HashMap<Vec<u64>, Vec<Tuple>> = HashMap::new();
        for d in &phase.done {
            while d.generation > self.generation {
                let Some(e) = epochs.next() else { break };
                self.copy.insert(&e.batch.insert);
                self.copy.delete(&e.batch.delete);
                self.generation = e.generation;
                oracle = None;
                seen.clear();
            }
            if d.generation != self.generation {
                report.check(Err(format!(
                    "response pinned to unknown generation {}",
                    d.generation
                )));
                continue;
            }
            let oracle = oracle.get_or_insert_with(|| Oracle::new(self.copy.tuples()));
            let key: Vec<u64> = d
                .request
                .peak
                .coords()
                .iter()
                .map(|c| c.to_bits())
                .collect();
            // A shape already checked at this generation only needs the same answer.
            let outcome = match seen.get(&key) {
                Some(answers) if *answers == d.answers => Ok(()),
                _ => {
                    let checked = Checked(&d.answers, &d.coverage, d.certificate.as_deref());
                    let r = check_topk(
                        checked,
                        &Shape::score(&d.request.peak),
                        K,
                        d.generation,
                        oracle,
                    );
                    if r.is_ok() {
                        seen.insert(key, d.answers.clone());
                    }
                    r
                }
            };
            report.check(outcome);
        }
        for e in epochs {
            self.copy.insert(&e.batch.insert);
            self.copy.delete(&e.batch.delete);
            self.generation = e.generation;
        }
        for d in &mut phase.done {
            d.answers = Vec::new();
            d.certificate = None;
            d.metrics.visited = Vec::new();
        }
        for e in &mut phase.epochs {
            e.batch = WriteBatch {
                insert: Vec::new(),
                delete: Vec::new(),
            };
        }
    }
}

/// Closed-loop constrained skylines over the overlay as it stands, for
/// the `skyline_*` metrics; traced against `twin` when given. Appends the
/// latencies to `ms_plain` (and `ms_traced`).
#[allow(clippy::too_many_arguments)]
fn side_skylines<A: Midas, B: Midas>(
    rng: &mut SmallRng,
    count: usize,
    a: &Harness<A>,
    twin: Option<&Harness<B>>,
    ms_plain: &mut Vec<f64>,
    ms_traced: &mut Vec<f64>,
    report: &mut Report,
) {
    let oracle = Oracle::new(a.live.tuples());
    a.svc.with_network(|na| {
        let net = na.midas();
        let modes = common::paper_modes(net.delta());
        for _ in 0..count {
            let b = common::random_box(DIMS, common::BOX_SIDE, rng);
            let initiator = net.random_peer(rng);
            let mode = modes[ms_plain.len() % modes.len()];
            let t0 = Instant::now();
            let out: Outcome = run_skyline_certified(
                &Executor::new(net),
                initiator,
                SkylineQuery::constrained(b.clone()),
                mode,
            );
            ms_plain.push(ms(t0.elapsed()));
            if let Some(tw) = twin {
                tw.svc.with_network(|nb| {
                    let t0 = Instant::now();
                    let t_out = trace::traced_skyline(
                        &Executor::new(&TracedNet(nb.midas())),
                        initiator,
                        SkylineQuery::constrained(b.clone()),
                        mode,
                    );
                    ms_traced.push(ms(t0.elapsed()));
                    report.check(check_twin(&out, &t_out));
                });
            }
            report.check(check_skyline(Checked::of(&out), &b, net.epoch(), &oracle));
        }
    });
}

fn executed(done: &[Done]) -> impl Iterator<Item = &Done> {
    done.iter().filter(|d| !d.hit)
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    if traced {
        run_traced_twins(seed, seconds, report);
        return;
    }
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(seed, report));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = Harness::new(last.expect("three set-ups ran"), |n| n, seed);
    s.warm_up(seed);
    let mut replay = Replay {
        copy: s.live.clone(),
        generation: s.svc.generation(),
    };

    let mut fixed = s.open_loop(FIXED_RATE, seconds / 2.0, report);
    if !fixed.backlog_bounded(FIXED_RATE) {
        report.problem(format!(
            "backlog grows at the fixed rate {FIXED_RATE}/s: p99 {:.2} ms, {} requests queued at the end",
            fixed.latency_p99(),
            fixed.end_backlog
        ));
    }
    replay.check(&mut fixed, report);

    // Sweep the offered rate up a ladder until a rung is not sustained;
    // the sweep's maximum is interpolated (in log rate, by p99) between
    // the last sustained rung and the first that was not. Sweeps repeat
    // for the rest of the run and report their median. The side skylines
    // run between trials, so they too span the run.
    let mut sweeps: Vec<f64> = Vec::new();
    let mut trials: Vec<Phase> = Vec::new();
    let mut sky_rng = common::rng(seed, Stream::SideQueries);
    let mut sky_ms = Vec::new();
    let search_start = Instant::now();
    let search_s = seconds / 2.0;
    let mut start_rung = 0;
    while search_start.elapsed().as_secs_f64() < search_s || sweeps.is_empty() {
        let (mut last_ok, mut rung) = (None::<(f64, f64)>, start_rung);
        let sweep_max = loop {
            let rate = FIXED_RATE * LADDER.powi(rung);
            let mut t = s.open_loop(rate, TRIAL_S, report);
            replay.check(&mut t, report);
            let p99 = t.latency_p99();
            let ok = t.sustained(rate);
            trials.push(t);
            let due = (SIDE_SKYLINES as f64 * search_start.elapsed().as_secs_f64() / search_s)
                .ceil() as usize;
            let due = due.min(SIDE_SKYLINES).saturating_sub(sky_ms.len());
            side_skylines::<_, MidasNetwork>(
                &mut sky_rng,
                due,
                &s,
                None,
                &mut sky_ms,
                &mut vec![],
                report,
            );
            if ok && rung < MAX_RUNG {
                last_ok = Some((rate, p99));
                rung += 1;
                continue;
            }
            break match (last_ok, ok) {
                (_, true) => rate,
                (None, false) => rate / LADDER,
                (Some((lo, lo_p99)), false) => {
                    let f = ((LIMIT_MS - lo_p99) / (p99 - lo_p99)).clamp(0.0, 1.0);
                    lo * (rate / lo).powf(f)
                }
            };
        };
        sweeps.push(sweep_max);
        start_rung = rung.saturating_sub(2);
    }
    let remaining = SIDE_SKYLINES.saturating_sub(sky_ms.len());
    side_skylines::<_, MidasNetwork>(
        &mut sky_rng,
        remaining,
        &s,
        None,
        &mut sky_ms,
        &mut vec![],
        report,
    );

    let phases: Vec<&Phase> = std::iter::once(&fixed).chain(trials.iter()).collect();
    let topk_ms: Vec<f64> = phases
        .iter()
        .flat_map(|p| executed(&p.done))
        .map(|d| d.service_ms)
        .collect();
    // Epochs at the fixed rate only: an epoch also purges the result cache,
    // which holds more entries at the higher rates of the trials.
    let write_ms: Vec<f64> = fixed.epochs.iter().map(|e| e.ms).collect();
    let latency: Vec<f64> = fixed.done.iter().map(|d| d.latency_ms).collect();
    let busy_ms: f64 = fixed.done.iter().map(|d| d.service_ms).sum();
    let runs: Vec<&Done> = executed(&fixed.done).collect();
    let n = runs.len() as f64;
    report.add("setup_s", median(&setup_s), "s");
    report.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    report.add("topk_p50_ms", median(&topk_ms), "ms");
    report.add("topk_p99_ms", percentile(&topk_ms, 99.0), "ms");
    report.add("skyline_p50_ms", median(&sky_ms), "ms");
    report.add("skyline_p95_ms", percentile(&sky_ms, 95.0), "ms");
    report.add(
        "queries_per_s",
        1e3 * fixed.done.len() as f64 / busy_ms,
        "1/s",
    );
    report.add("served_p50_ms", median(&latency), "ms");
    report.add("served_p99_ms", percentile(&latency, 99.0), "ms");
    report.add("served_max_rate_qps", median(&sweeps), "1/s");
    report.add("write_p50_ms", median(&write_ms), "ms");
    report.add("write_p99_ms", percentile(&write_ms, 99.0), "ms");
    let msgs: u64 = runs
        .iter()
        .map(|d| d.metrics.query_messages + d.metrics.response_messages)
        .sum();
    let hops: u64 = runs.iter().map(|d| d.metrics.latency).sum();
    report.add("messages_per_query", msgs as f64 / n, "count");
    report.add("hops_per_query", hops as f64 / n, "count");
    eprintln!(
        "fixed rate {FIXED_RATE}/s: {} requests ({} executed), {} epochs; {} rate trials in {} sweeps, maxima {sweeps:.0?}",
        fixed.done.len(),
        runs.len(),
        fixed.epochs.len(),
        trials.len(),
        sweeps.len()
    );
}

/// The traced run: the fixed-rate phase on a plain service, then the same
/// phase on a twin whose overlay is traced, compared request by request.
fn run_traced_twins(seed: u64, seconds: f64, report: &mut Report) {
    let sa = setup(seed, report);
    let sb = setup(seed, report);
    let loads = [
        (sa.generate_s, sb.generate_s),
        (sa.build_s, sb.build_s),
        (sa.load_s, sb.load_s),
        (sa.age_s, sb.age_s),
    ];
    let mut a = Harness::new(sa, |n| n, seed);
    let mut b = Harness::new(sb, TracedNet, seed);
    a.warm_up(seed);
    b.warm_up(seed);
    let mut replay = Replay {
        copy: a.live.clone(),
        generation: a.svc.generation(),
    };

    let mut pa = a.open_loop(FIXED_RATE, seconds / 2.0, report);
    let before = b.svc.with_network(|o| Ingest::of(o.midas()));
    let invalidated = b.svc.stats().cache_invalidated;
    trace::reset();
    let pb = b.open_loop(FIXED_RATE, seconds / 2.0, report);
    let spans = trace::snapshot();
    let writes = b.svc.with_network(|o| Ingest::of(o.midas())).since(before);
    let invalidated = b.svc.stats().cache_invalidated - invalidated;

    if pa.done.len() != pb.done.len() {
        report.problem(format!(
            "traced phase completed {} requests, untraced {}",
            pb.done.len(),
            pa.done.len()
        ));
    }
    for (u, t) in pa.done.iter().zip(&pb.done) {
        let twin = |d: &Done| -> Outcome {
            (
                d.answers.clone(),
                d.metrics.clone(),
                d.coverage.clone(),
                d.certificate.as_deref().cloned(),
            )
        };
        let same_serving = u.generation == t.generation && u.hit == t.hit;
        report.check(check_twin(&twin(u), &twin(t)).and_then(|()| {
            if same_serving {
                Ok(())
            } else {
                Err("traced request served at another generation or cache state".into())
            }
        }));
    }
    replay.check(&mut pa, report);
    let (mut sky_plain, mut sky_traced) = (vec![], vec![]);
    trace::reset();
    let mut sky_rng = common::rng(seed, Stream::SideQueries);
    side_skylines(
        &mut sky_rng,
        SIDE_SKYLINES,
        &a,
        Some(&b),
        &mut sky_plain,
        &mut sky_traced,
        report,
    );
    let sky_spans = trace::snapshot();

    report_served_layers(&pa, &pb, &spans, writes, invalidated, report);
    report_skyline_layers(&sky_spans, sky_traced.len() as f64, report);
    let med = |(x, y): (f64, f64)| median(&[x, y]);
    report.add("data.generate_s", med(loads[0]), "s");
    report.add("midas.build_s", med(loads[1]), "s");
    report.add("midas.load_s", med(loads[2]), "s");
    report.add("midas.age_s", med(loads[3]), "s");
}

fn report_served_layers(
    pa: &Phase,
    pb: &Phase,
    spans: &Spans,
    writes: Ingest,
    invalidated: u64,
    report: &mut Report,
) {
    let runs: Vec<&Done> = executed(&pb.done).collect();
    let n = runs.len() as f64;
    let transferred: u64 = runs.iter().map(|d| d.metrics.tuples_transferred).sum();
    Layers {
        spans,
        queries: n,
        topk_queries: n,
    }
    .report(transferred as f64, report);
    let sum = |f: fn(&QueryMetrics) -> u64| runs.iter().map(|d| f(&d.metrics) as f64).sum::<f64>();
    let answers: f64 = runs.iter().map(|d| d.answers.len() as f64).sum();
    report_store(
        [
            sum(|m| m.tuples_scanned),
            sum(|m| m.blocks_pruned),
            answers,
            sum(|m| m.memtable_hits),
            sum(|m| m.tombstones_masked),
        ],
        n,
        writes,
        report,
    );
    let wait: Vec<f64> = pb
        .done
        .iter()
        .map(|d| d.metrics.queue_wait_ns as f64 / 1e6)
        .collect();
    let hit_ms: Vec<f64> = pb
        .done
        .iter()
        .filter(|d| d.hit)
        .map(|d| d.service_ms)
        .collect();
    let miss_ms: Vec<f64> = runs.iter().map(|d| d.service_ms).collect();
    let epoch_ms: Vec<f64> = pb.epochs.iter().map(|e| e.ms).collect();
    report.add("service.queue_wait_ms_p50", median(&wait), "ms");
    report.add("service.queue_wait_ms_p99", percentile(&wait, 99.0), "ms");
    report.add("service.hit_ms_p50", median(&hit_ms), "ms");
    report.add("service.miss_ms_p50", median(&miss_ms), "ms");
    report.add(
        "service.cache_hit_ratio",
        ratio(hit_ms.len() as f64, pb.done.len() as f64),
        "ratio",
    );
    report.add(
        "service.cache_invalidated_per_epoch",
        ratio(invalidated as f64, epoch_ms.len() as f64),
        "count",
    );
    report.add("service.backlog_max", pb.backlog_max as f64, "count");
    report.add(
        "service.advance_epoch.ms_p99",
        percentile(&epoch_ms, 99.0),
        "ms",
    );
    report_write_layers(spans, epoch_ms.len() as f64, report);
    report.add("generator.late_ms_p99", percentile(&pb.late_ms, 99.0), "ms");
    let busy = |p: &Phase| p.done.iter().map(|d| d.service_ms).sum::<f64>();
    report.add(
        "trace.overhead_pct",
        100.0 * (busy(pb) / busy(pa) - 1.0),
        "%",
    );
}
