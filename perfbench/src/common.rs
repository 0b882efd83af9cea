//! Pieces every workload shares: seeded streams, timed set-up, query
//! shapes and the write path.

use crate::check::LiveCopy;
use crate::trace::{self, Span};
use ripple_core::Mode;
use ripple_data::workload::data_query_point;
use ripple_geom::{Norm, PeakScore, Point, Rect, Tuple, TupleId};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{mix64, Rng, SeedableRng};
use std::time::Instant;

/// Independent random streams derived from the run's seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Data = 1,
    Overlay = 2,
    Warmup = 3,
    Queries = 4,
    SideQueries = 5,
    Writes = 6,
    HotShapes = 7,
    Anchors = 8,
}

pub fn rng(seed: u64, stream: Stream) -> SmallRng {
    SmallRng::seed_from_u64(mix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64,
    ))
}

/// A loaded overlay and how long each set-up step took, in seconds.
pub struct Loaded {
    pub net: MidasNetwork,
    pub data: Vec<Tuple>,
    pub generate_s: f64,
    pub build_s: f64,
    pub load_s: f64,
}

/// The seed of every workload's dataset and overlay. Like the paper's one
/// NBA file, each workload has one dataset and one overlay; the run's seed
/// drives everything that happens on them (queries, initiators, writes).
const DATASET_SEED: u64 = 2014;

/// Generates the workload's dataset, builds its overlay and bulk-loads it.
pub fn load(dims: usize, peers: usize, data: fn(&mut SmallRng) -> Vec<Tuple>) -> Loaded {
    let t0 = Instant::now();
    let tuples = data(&mut rng(DATASET_SEED, Stream::Data));
    let t1 = Instant::now();
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng(DATASET_SEED, Stream::Overlay));
    let t2 = Instant::now();
    net.insert_all(tuples.iter().cloned());
    let t3 = Instant::now();
    Loaded {
        net,
        data: tuples,
        generate_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        load_s: (t3 - t2).as_secs_f64(),
    }
}

/// The shape of one generated query.
#[derive(Clone, Debug)]
pub enum Shape {
    /// Top-k under an L1 `PeakScore` at this point.
    TopK(Point),
    /// Skyline constrained to this box.
    Skyline(Rect),
}

impl Shape {
    pub fn score(peak: &Point) -> PeakScore {
        PeakScore::new(peak.clone(), Norm::L1)
    }
}

/// Tuples sampled as top-k anchors.
const ANCHORS: usize = 2048;
/// Tuples sampled as the reference set anchor sparseness is measured
/// against.
const REFERENCE: usize = 8192;

/// Anchor tuples for top-k peaks, sparsest last: a fixed sample of up to
/// `ANCHORS` tuples, ordered by how far each must reach for its `k`
/// nearest neighbours, estimated against a reference sample of up to
/// `REFERENCE` tuples as the `(j+1)`-th smallest L1 distance to it, `j`
/// being `k` scaled by the sample's share of the data (the smallest may be
/// the anchor's own zero). On paper-topk the sparsest few percent are the
/// peaks whose fast-mode queries nearly broadcast.
pub fn anchors_by_sparseness(data: &[Tuple], k: usize) -> Vec<usize> {
    let mut r = rng(DATASET_SEED, Stream::Anchors);
    let mut sample = |n: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..data.len()).collect();
        for i in 0..n.min(idx.len()) {
            let j = r.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(n);
        idx
    };
    let anchors = sample(ANCHORS);
    let reference = sample(REFERENCE);
    let j = (k * reference.len()).div_ceil(data.len()).max(1);
    let dims = data.first().map_or(0, Tuple::dims);
    let flat: Vec<f64> = reference
        .iter()
        .flat_map(|&b| data[b].point.coords().to_vec())
        .collect();
    let mut d = vec![0.0; reference.len()];
    let mut ranked: Vec<(f64, usize)> = anchors
        .into_iter()
        .map(|a| {
            let p = data[a].point.coords();
            for (di, row) in d.iter_mut().zip(flat.chunks_exact(dims)) {
                *di = row.iter().zip(p).map(|(x, y)| (x - y).abs()).sum();
            }
            let jth = j.min(d.len() - 1);
            d.select_nth_unstable_by(jth, f64::total_cmp);
            (d[jth], a)
        })
        .collect();
    ranked.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// A peak near `t` (jittered by up to ±0.025 per dimension, clamped to
/// the domain), so top-k queries land in populated space.
pub fn near(t: &Tuple, rng: &mut SmallRng) -> Point {
    let coords: Vec<f64> = t
        .point
        .coords()
        .iter()
        .map(|&c| (c + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0))
        .collect();
    Point::new(coords)
}

/// Side of the random constraint box of every skyline query.
pub const BOX_SIDE: f64 = 0.5;

/// A random box of side `side` inside the unit cube.
pub fn random_box(dims: usize, side: f64, rng: &mut SmallRng) -> Rect {
    let lo: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() * (1.0 - side)).collect();
    let hi: Vec<f64> = lo.iter().map(|l| l + side).collect();
    Rect::new(lo, hi)
}

/// The paper's ripple parameters r ∈ {0, Δ/3, 2Δ/3, Δ}.
pub fn paper_modes(delta: u32) -> Vec<Mode> {
    vec![
        Mode::Fast,
        Mode::Ripple(delta / 3),
        Mode::Ripple(2 * delta / 3),
        Mode::Ripple(delta),
    ]
}

/// One write batch: `n` new tuples near existing ones (fresh ids from
/// `next_id`) and `n` distinct live ids to delete, so the data size stays
/// level.
pub struct WriteBatch {
    pub insert: Vec<Tuple>,
    pub delete: Vec<TupleId>,
}

pub fn write_batch(
    copy: &LiveCopy,
    n: usize,
    next_id: &mut TupleId,
    rng: &mut SmallRng,
) -> WriteBatch {
    let insert = (0..n)
        .map(|_| {
            let p = data_query_point(copy.tuples(), 0.02, rng);
            *next_id += 1;
            Tuple::new(*next_id, p)
        })
        .collect();
    let delete = copy.random_ids(n, rng);
    WriteBatch { insert, delete }
}

/// Applies a batch to the overlay as one insert epoch and one delete
/// epoch; returns the rows the overlay removed.
pub fn apply_writes(net: &mut MidasNetwork, batch: &WriteBatch) -> usize {
    trace::timed(Span::InsertBatch, || {
        net.insert_batch(batch.insert.iter().cloned())
    });
    trace::timed(Span::DeleteTuples, || net.delete_tuples(&batch.delete))
}

/// Checks a delete removed as many rows as the copy held.
pub fn same_removed(removed: usize, expected: usize) -> Result<(), String> {
    if removed == expected {
        Ok(())
    } else {
        Err(format!(
            "delete removed {removed} rows, the copy {expected}"
        ))
    }
}

/// Checks the overlay holds exactly the copy's tuple count and lost none.
pub fn check_count(net: &MidasNetwork, copy: &LiveCopy) -> Result<(), String> {
    let stored: usize = net
        .live_peers()
        .iter()
        .map(|&p| net.peer(p).store.len())
        .sum();
    if stored != copy.len() || net.tuples_lost() != 0 {
        return Err(format!(
            "overlay stores {stored} tuples (lost {}), the copy holds {}",
            net.tuples_lost(),
            copy.len()
        ));
    }
    Ok(())
}

/// Write-path totals summed over every live store.
#[derive(Clone, Copy, Default)]
pub struct Ingest {
    pub ingested: u64,
    pub rewritten: u64,
    pub compactions: u64,
}

impl Ingest {
    pub fn of(net: &MidasNetwork) -> Self {
        let mut sum = Self::default();
        for &p in net.live_peers() {
            let s = net.peer(p).store.ingest_stats();
            sum.ingested += s.rows_ingested;
            sum.rewritten += s.rows_rewritten();
            sum.compactions += s.compactions_run;
        }
        sum
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            ingested: self.ingested - before.ingested,
            rewritten: self.rewritten - before.rewritten,
            compactions: self.compactions - before.compactions,
        }
    }
}
