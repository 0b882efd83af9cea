//! Planner regression sweep: adaptive vs every static mode (PR acceptance
//! run).
//!
//! Replays the paper's fig-4..fig-12 workload shapes at bench scale —
//! top-k at two network sizes, top-k in 4-d, unconstrained and
//! box-constrained skylines, and single-tuple diversification — and runs
//! each configuration under five *static* arms (fast, ripple(Δ/3),
//! ripple(2Δ/3), slow, broadcast) plus the *adaptive* arm: a fresh
//! [`Planner`] per configuration driving [`run_planned`], so the probe
//! phase is paid inside the adaptive totals exactly as a deployment
//! would pay it.
//!
//! Every planned run is replayed as a static run of the mode the planner
//! chose and pinned bit-identical (answers and cost ledgers) — planning
//! must be invisible to execution.
//!
//! The full run asserts the acceptance gates over the *steady-state*
//! window — every round after the probe phase, measured identically for
//! every arm. The probe phase is a fixed one-time learning cost whose
//! relative weight is purely an artifact of how many rounds the sweep
//! happens to run; it is reported in the totals (and visible as the gap
//! between total and steady columns) but not gated:
//!
//! * **never much worse**: adaptive steady-state messages and wall-clock
//!   are within 10% of the best static arm on *every* configuration;
//! * **actually adaptive**: on at least half of the configurations the
//!   adaptive arm is strictly better on steady-state messages than at
//!   least one static arm (a planner that tied every arm everywhere
//!   would be load-bearing nowhere).
//!
//! Writes `results/BENCH_PR6_planner_regression.json` and
//! `results/planner-regression.csv`. Pass `--quick` for the CI smoke
//! configuration (two configs, fewer rounds, no file, no gate).

use ripple_bench::output::cpu_header_json;
use ripple_bench::runner::midas_uniform_with_data;
use ripple_core::diversify::SingleTupleQuery;
use ripple_core::framework::Mode;
use ripple_core::planner::{run_planned, PlanInputs, Planner, QueryHint};
use ripple_core::skyline::SkylineQuery;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{DiversityQuery, LinearScore, Norm, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::PeerId;
use std::fmt::Write as _;
use std::time::Instant;

/// Which figure family a configuration reproduces.
enum Workload {
    TopK { k: usize },
    Skyline { constraint: Option<Rect> },
    Diversify { lambda: f64 },
}

struct FigConfig {
    name: &'static str,
    dims: usize,
    peers: usize,
    tuples: usize,
    seed: u64,
    workload: Workload,
}

fn configs(quick: bool) -> Vec<FigConfig> {
    let mut all = vec![
        FigConfig {
            name: "fig4-topk-small",
            dims: 2,
            peers: 48,
            tuples: 76_800,
            seed: 41,
            workload: Workload::TopK { k: 16 },
        },
        FigConfig {
            name: "fig4-topk-large",
            dims: 2,
            peers: 192,
            tuples: 230_400,
            seed: 42,
            workload: Workload::TopK { k: 16 },
        },
        FigConfig {
            name: "fig6-topk-4d",
            dims: 4,
            peers: 96,
            tuples: 153_600,
            seed: 43,
            workload: Workload::TopK { k: 16 },
        },
        FigConfig {
            name: "fig9-skyline",
            dims: 3,
            peers: 64,
            tuples: 102_400,
            seed: 44,
            workload: Workload::Skyline { constraint: None },
        },
        FigConfig {
            name: "fig10-skyline-box",
            dims: 3,
            peers: 64,
            tuples: 102_400,
            seed: 45,
            workload: Workload::Skyline {
                constraint: Some(Rect::new(vec![0.15; 3], vec![0.85; 3])),
            },
        },
        FigConfig {
            name: "fig12-diversify",
            dims: 2,
            peers: 48,
            tuples: 76_800,
            seed: 46,
            workload: Workload::Diversify { lambda: 0.5 },
        },
    ];
    if quick {
        all.truncate(2);
    }
    all
}

/// Accumulated totals of one arm over every round of one configuration.
/// `wall_steady_ns` covers only the rounds after the probe-phase window,
/// so the wall gate compares steady-state execution against steady-state
/// execution: the probe phase is a one-time learning cost whose *relative*
/// weight is an artifact of the window length, and it is reported (inside
/// `wall_ns`) rather than gated.
#[derive(Clone, Default)]
struct ArmTotals {
    messages: u64,
    latency: u64,
    wall_ns: u64,
    messages_steady: u64,
    wall_steady_ns: u64,
}

struct ArmResult {
    arm: String,
    totals: ArmTotals,
}

/// Wall repetitions per arm: each round's wall is the *minimum* over
/// [`WALL_REPS`] full passes. Single-pass totals on a shared runner vary
/// by ~±15% even between arms doing identical work; per-round minima strip
/// the scheduler's positive noise spikes and collapse identical arms to
/// within a couple of percent.
const WALL_REPS: usize = 3;

/// Runs `rounds` queries of the configured workload under `run`, which maps
/// (initiator, round, rep) to (messages, latency) and is timed per round.
/// Runs [`WALL_REPS`] full passes; messages and latency come from the first
/// (they are deterministic), each round keeps its minimum wall.
fn drive(
    inits: &[PeerId],
    probe_rounds: usize,
    mut run: impl FnMut(PeerId, usize, usize) -> (u64, u64),
) -> ArmTotals {
    let mut t = ArmTotals::default();
    let mut round_walls = vec![u64::MAX; inits.len()];
    for rep in 0..WALL_REPS {
        for (round, &init) in inits.iter().enumerate() {
            let start = Instant::now();
            let (messages, latency) = run(init, round, rep);
            let wall = start.elapsed().as_nanos() as u64;
            round_walls[round] = round_walls[round].min(wall);
            if rep == 0 {
                t.messages += messages;
                t.latency += latency;
                if round >= probe_rounds {
                    t.messages_steady += messages;
                }
            }
        }
    }
    t.wall_ns = round_walls.iter().sum();
    t.wall_steady_ns = round_walls[probe_rounds.min(round_walls.len())..]
        .iter()
        .sum();
    t
}

/// Runs one configuration across all static arms and the adaptive arm.
/// `run_static` executes the workload under a fixed mode; `run_adaptive`
/// executes it under the planner and must itself pin plan-invisibility.
fn sweep_arms(
    cfg: &FigConfig,
    inits: &[PeerId],
    delta: u32,
    probes: usize,
    mut run_static: impl FnMut(PeerId, Mode) -> (u64, u64),
    mut run_adaptive: impl FnMut(PeerId, usize, usize) -> (u64, u64),
) -> Vec<ArmResult> {
    let mut results = Vec::new();
    let r1 = (delta / 3).max(1);
    let r2 = (2 * delta / 3).max(1);
    let static_arms = [
        ("fast".to_string(), Mode::Fast),
        (format!("ripple({r1})"), Mode::Ripple(r1)),
        (format!("ripple({r2})"), Mode::Ripple(r2)),
        ("slow".to_string(), Mode::Slow),
        ("broadcast".to_string(), Mode::Broadcast),
    ];
    for (label, mode) in static_arms {
        let totals = drive(inits, probes, |init, _, _| run_static(init, mode));
        results.push(ArmResult { arm: label, totals });
    }
    let totals = drive(inits, probes, &mut run_adaptive);
    results.push(ArmResult {
        arm: "adaptive".into(),
        totals,
    });
    eprintln!(
        "{}: {}",
        cfg.name,
        results
            .iter()
            .map(|r| format!("{} {} msgs", r.arm, r.totals.messages))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    results
}

fn initiators(net: &MidasNetwork, rounds: usize, seed: u64) -> Vec<PeerId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..rounds).map(|_| net.random_peer(&mut rng)).collect()
}

/// Executes one configuration end to end and returns its per-arm totals.
fn run_config(cfg: &FigConfig, rounds_after_probe: usize) -> Vec<ArmResult> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let data = ripple_data::synth::uniform(cfg.dims, cfg.tuples, &mut rng);
    let net = midas_uniform_with_data(cfg.dims, cfg.peers, false, &data, cfg.seed);
    let exec = Executor::new(&net);
    let delta = net.delta();
    let probes = Planner::candidates(delta).len();
    let inits = initiators(&net, probes + rounds_after_probe, cfg.seed ^ 0xfeed);

    // The diversification set: any fixed set works, the arms just have to
    // share it.
    let div_set: Vec<Tuple> = data.iter().take(4).cloned().collect();

    let hint = match &cfg.workload {
        Workload::TopK { k } => QueryHint::TopK { k: *k },
        Workload::Skyline { constraint } => QueryHint::Skyline {
            selectivity: constraint
                .as_ref()
                .map(|c| {
                    let inside = data.iter().filter(|t| c.contains(&t.point)).count();
                    inside as f64 / data.len().max(1) as f64
                })
                .unwrap_or(1.0),
        },
        Workload::Diversify { .. } => QueryHint::Diversify,
    };
    let inputs = PlanInputs {
        peers: net.peer_count(),
        delta,
        hint,
    };
    // One independent planner per wall repetition: each adaptive pass is a
    // full cold-start (probe phase included), so the median wall is the
    // median of complete adaptive lifecycles, not of ever-warmer ledgers.
    let mut planners: Vec<Planner> = (0..WALL_REPS).map(|_| Planner::new(1)).collect();

    macro_rules! arms {
        ($query:expr) => {{
            let q = $query;
            // Planned outcomes are recorded during the timed adaptive pass
            // and replayed statically *afterwards*, so the plan-invisibility
            // check never inflates the adaptive wall-clock totals.
            let mut planned = Vec::new();
            let results = sweep_arms(
                cfg,
                &inits,
                delta,
                probes,
                |init, mode| {
                    let out = exec.run(init, &q, mode);
                    (out.metrics.total_messages(), out.metrics.latency)
                },
                |init, _round, rep| {
                    let out = run_planned(&mut planners[rep], &exec, init, &q, &inputs);
                    let stats = (out.metrics.total_messages(), out.metrics.latency);
                    if rep == 0 {
                        planned.push((init, out));
                    }
                    stats
                },
            );
            // Plan-invisibility: a static run of the chosen mode is
            // bit-identical (modulo the stamp itself).
            for (round, (init, out)) in planned.iter().enumerate() {
                let plan = out.metrics.plan.clone().expect("plan stamped");
                let fixed = exec.run(*init, &q, plan.mode.into());
                assert_eq!(out.answers, fixed.answers, "{}: round {round}", cfg.name);
                assert_eq!(
                    out.metrics, fixed.metrics,
                    "{}: round {round} ledgers",
                    cfg.name
                );
            }
            results
        }};
    }

    match &cfg.workload {
        Workload::TopK { k } => {
            let weights: Vec<f64> = (0..cfg.dims).map(|d| 1.0 / (d + 1) as f64).collect();
            arms!(TopKQuery::new(LinearScore::new(weights), *k))
        }
        Workload::Skyline { constraint } => match constraint {
            Some(c) => arms!(SkylineQuery::constrained(c.clone())),
            None => arms!(SkylineQuery::new()),
        },
        Workload::Diversify { lambda } => {
            let div = DiversityQuery::new(vec![0.5; cfg.dims], *lambda, Norm::L1);
            arms!(SingleTupleQuery::new(&div, &div_set))
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The probe phase is a one-time cost the adaptive arm pays inside its
    // totals; the full run uses a steady-state window long enough for it to
    // amortize the way a deployment would (a fast-mode probe can cost ~10x
    // a converged round on skyline shapes).
    let rounds_after_probe = if quick { 7 } else { 250 };
    let cfgs = configs(quick);

    let mut csv =
        String::from("config,arm,messages,latency,wall_ms,steady_messages,steady_wall_ms\n");
    let mut json_cfgs: Vec<String> = Vec::new();
    // (config name, adaptive steady msgs, best static steady msgs, adaptive
    // steady wall, best static steady wall, beats at least one static arm
    // on steady messages)
    let mut gate_rows: Vec<(String, u64, u64, u64, u64, bool)> = Vec::new();

    for cfg in &cfgs {
        let results = run_config(cfg, rounds_after_probe);
        for r in &results {
            let _ = writeln!(
                csv,
                "{},{},{},{},{:.3},{},{:.3}",
                cfg.name,
                r.arm,
                r.totals.messages,
                r.totals.latency,
                r.totals.wall_ns as f64 / 1e6,
                r.totals.messages_steady,
                r.totals.wall_steady_ns as f64 / 1e6
            );
        }
        let adaptive = &results.last().expect("adaptive arm").totals;
        let statics = &results[..results.len() - 1];
        let best_msgs = statics
            .iter()
            .map(|r| r.totals.messages_steady)
            .min()
            .unwrap();
        let best_wall = statics
            .iter()
            .map(|r| r.totals.wall_steady_ns)
            .min()
            .unwrap();
        let beats_one = statics
            .iter()
            .any(|r| adaptive.messages_steady < r.totals.messages_steady);
        let arm_json: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "      \"{}\": {{ \"messages\": {}, \"latency\": {}, \"wall_ms\": {:.3}, \"steady_messages\": {}, \"steady_wall_ms\": {:.3} }}",
                    r.arm,
                    r.totals.messages,
                    r.totals.latency,
                    r.totals.wall_ns as f64 / 1e6,
                    r.totals.messages_steady,
                    r.totals.wall_steady_ns as f64 / 1e6
                )
            })
            .collect();
        json_cfgs.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            cfg.name,
            arm_json.join(",\n")
        ));
        gate_rows.push((
            cfg.name.to_string(),
            adaptive.messages_steady,
            best_msgs,
            adaptive.wall_steady_ns,
            best_wall,
            beats_one,
        ));
    }

    if quick {
        eprintln!("quick mode: no gate, no files");
        return;
    }

    let rounds = Planner::candidates(10).len() + rounds_after_probe;
    let json = format!(
        "{{\n  \"bench\": \"planner_regression\",\n  {},\n  \"config\": {{ \"rounds_per_config\": \"~{rounds} (probe phase included in adaptive totals)\", \"arms\": [\"fast\", \"ripple(d/3)\", \"ripple(2d/3)\", \"slow\", \"broadcast\", \"adaptive\"] }},\n  \"plan_invisibility\": \"verified (every planned run bit-identical to a static run of the chosen mode)\",\n  \"gate\": \"steady-state (post-probe rounds): adaptive <= 1.10x best static on messages and wall per config; strictly beats >= 1 static arm on messages on >= half of configs; probe phase reported in totals, not gated\",\n  \"configs\": {{\n{}\n  }}\n}}\n",
        cpu_header_json(),
        json_cfgs.join(",\n"),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_PR6_planner_regression.json", json).expect("write results");
    std::fs::write("results/planner-regression.csv", csv).expect("write csv");
    eprintln!("wrote results/BENCH_PR6_planner_regression.json + planner-regression.csv");

    // Gate 1: never much worse than the best static arm, per config, on
    // the steady-state window (probe-phase totals are reported above).
    for (name, a_msgs, b_msgs, a_wall, b_wall, _) in &gate_rows {
        assert!(
            *a_msgs as f64 <= 1.10 * *b_msgs as f64,
            "acceptance: {name}: adaptive {a_msgs} steady msgs > 1.10x best static {b_msgs}"
        );
        assert!(
            *a_wall as f64 <= 1.10 * *b_wall as f64,
            "acceptance: {name}: adaptive steady wall {:.2}ms > 1.10x best static {:.2}ms",
            *a_wall as f64 / 1e6,
            *b_wall as f64 / 1e6
        );
    }
    // Gate 2: strictly better than at least one static arm on >= half the
    // configurations.
    let wins = gate_rows.iter().filter(|r| r.5).count();
    assert!(
        2 * wins >= gate_rows.len(),
        "acceptance: adaptive beats >= 1 static arm on only {wins}/{} configs",
        gate_rows.len()
    );
    println!(
        "planner regression: all {} configs within 1.10x of best static; \
         adaptive strictly better than >= 1 static arm on {wins}/{}",
        gate_rows.len(),
        gate_rows.len()
    );
}
