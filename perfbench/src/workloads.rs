//! The three workloads: set-up, the engine twins, the timed closed loop
//! and the traced pass of each.
//!
//! A run covers several *variants* of its workload: variant `i` is the
//! workload at seed `s_i` ([`variant_seeds`]; `s_0` is the run's seed),
//! with its own input. The paper's counts (set size, rounds under loss)
//! depend on the input drawn, so a run reports their median over the
//! variants, which keeps them steady from one run seed to the next.
//!
//! Every workload follows the same order:
//!
//! 1. set-up: each variant's input is built and kept, after enough extra
//!    builds of the first that [`SETUP_REPS`] are timed;
//! 2. the engine twin of each variant, computed once and timed by
//!    nothing;
//! 3. the closed loop: one caller runs the operation back to back until
//!    the run's seconds are used up (each call timed as `solve_s`),
//!    cycling through the variants; the operation ends with a validated
//!    set, and the set is compared with its engine twin's outside the
//!    timed region; after each operation one more set-up of its variant
//!    is timed and dropped, so that the set-up samples (`setup_s` is
//!    their median) span the run as the operations do;
//! 4. `peak_rss_mb` is read;
//! 5. with tracing on, the traced pass on the first variant:
//!    [`TRACE_REPS`] operations with a span around every layer call, plus
//!    one call of each layer that the operation does not make (bare
//!    protocol, engine, traced stack).

use crate::metrics::{median, peak_rss_mb, ratio, Layers, Samples, Stage};
use crate::spans::Spans;
use ftclust_core::fractional::protocol::{run_fractional_protocol, run_fractional_stack};
use ftclust_core::fractional::{solve_fractional, FractionalParams};
use ftclust_core::general::GeneralPipeline;
use ftclust_core::repair::{repair_coverage, run_repair_stack, surviving_instance, RepairConfig};
use ftclust_core::rounding::protocol::run_rounding_protocol;
use ftclust_core::rounding::{round_fractional, RoundingParams};
use ftclust_core::udg::protocol::run_udg_stack;
use ftclust_core::udg::UdgAlgorithm;
use ftclust_core::validate::{is_k_dominating, is_k_dominating_instance, Semantics};
use ftclust_core::{DominatingSet, Instance};
use ftclust_graphs::{generators, Graph, NodeId, UnitDiskGraph};
use ftclust_netsim::exec::Stack;
use ftclust_netsim::transport::TransportConfig;
use std::time::Instant;

/// Fold of the dominating sets (`k`).
const K: u32 = 2;
/// Algorithm 1's trade-off parameter `t`.
const T: u32 = 3;
/// Message loss of `repair-lossy`.
const LOSS: f64 = 0.05;
/// Share of nodes crashed before `repair-lossy` heals the set.
const CRASH: f64 = 0.10;
/// Timed set-ups before the first timed operation.
const SETUP_REPS: usize = 5;
/// Fewest timed operations per run, however long they take (and at
/// least one per variant).
const MIN_OPS: usize = 3;
/// Operations in the traced pass; per-layer times are their medians.
const TRACE_REPS: u32 = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Alg12Ba,
    Alg3Reliable,
    RepairLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Alg12Ba,
        Workload::Alg3Reliable,
        Workload::RepairLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg12Ba => "alg12-ba",
            Workload::Alg3Reliable => "alg3-reliable",
            Workload::RepairLossy => "repair-lossy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Node count at scale 1.
    fn full_size(self) -> f64 {
        match self {
            Workload::Alg12Ba => 100_000.0,
            Workload::Alg3Reliable => 20_000.0,
            Workload::RepairLossy => 50_000.0,
        }
    }

    /// Variants per run. The set size of `alg12-ba` depends on the BA
    /// graph drawn (its LP value moves by about ±6% with the seed), and
    /// the rounds of `repair-lossy` on the graph and on where the last
    /// losses fall; `alg3-reliable`'s counts barely move with the seed.
    fn variants(self) -> usize {
        match self {
            Workload::Alg12Ba | Workload::RepairLossy => 8,
            Workload::Alg3Reliable => 1,
        }
    }
}

/// The seeds of a run's variants: `s_i = seed + i·0x9e3779b97f4a7c15`
/// (wrapping), so `s_0` is the run's seed.
pub fn variant_seeds(seed: u64, variants: usize) -> Vec<u64> {
    (0..variants as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

/// Run settings taken from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies the node count (1 for the benchmark; smaller in tests).
    pub scale: f64,
}

impl Config {
    fn nodes(&self) -> u32 {
        ((self.workload.full_size() * self.scale).round() as u32).max(50)
    }

    fn seeds(&self) -> Vec<u64> {
        variant_seeds(self.seed, self.workload.variants())
    }
}

/// What one operation produced.
#[derive(Debug)]
pub struct Output {
    pub set: DominatingSet,
    pub stages: Vec<Stage>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub nodes: u32,
    pub variants: usize,
    pub setup_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    /// Operations attempted: the timed ones plus the traced pass's.
    pub attempted: usize,
    /// One reason per failed operation.
    pub failures: Vec<String>,
    /// The first timed output of each variant that passed the gate.
    pub outputs: Vec<Output>,
    pub peak_rss_mb: f64,
    pub layers: Layers,
    pub spans: Option<Spans>,
}

/// Runs the configured workload.
///
/// # Errors
///
/// Fails if an input or an engine twin cannot be computed or the peak RSS
/// cannot be read; a failing operation is counted, not returned.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Alg12Ba => alg12_ba(cfg),
        Workload::Alg3Reliable => alg3_reliable(cfg),
        Workload::RepairLossy => repair_lossy(cfg),
    }
}

fn now() -> Instant {
    Instant::now() // lint: wall-clock — wall time is this benchmark's measured output
}

/// Times `f` in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Builds the input of seed `seed`, timed into `setup_s`.
fn set_up<I>(setup_s: &mut Vec<f64>, build: &mut impl FnMut(u64) -> I, seed: u64) -> I {
    let (input, secs) = timed(|| build(seed));
    setup_s.push(secs);
    input
}

/// The set-ups before the loop: one input per seed, kept, after enough
/// dropped builds of the first seed that [`SETUP_REPS`] are timed.
fn first_setups<I>(
    setup_s: &mut Vec<f64>,
    build: &mut impl FnMut(u64) -> I,
    seeds: &[u64],
) -> Vec<I> {
    for _ in seeds.len()..SETUP_REPS {
        drop(set_up(setup_s, build, seeds[0]));
    }
    seeds.iter().map(|&s| set_up(setup_s, build, s)).collect()
}

/// `Err(what)` unless `ok`.
fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// The timed closed loop and its correctness gate.
struct Loop {
    solve_s: Vec<f64>,
    failures: Vec<String>,
    outputs: Vec<Output>,
}

/// Runs `op(v)` back to back, `v` cycling through the variants, one per
/// engine twin in `engines`; runs `after_op(v)` after each, untimed.
fn closed_loop(
    seconds: f64,
    engines: &[DominatingSet],
    mut op: impl FnMut(usize) -> Result<Output, String>,
    mut after_op: impl FnMut(usize),
) -> Loop {
    let mut solve_s = Vec::new();
    let mut failures = Vec::new();
    let mut outputs: Vec<Option<Output>> = engines.iter().map(|_| None).collect();
    let start = now();
    while solve_s.len() < MIN_OPS.max(engines.len()) || start.elapsed().as_secs_f64() < seconds {
        let v = solve_s.len() % engines.len();
        let (out, secs) = timed(|| op(v));
        solve_s.push(secs);
        let gated = out.and_then(|o| {
            ensure(o.set == engines[v], "set differs from the engine twin's")?;
            Ok(o)
        });
        match gated {
            Ok(o) => {
                outputs[v].get_or_insert(o);
            }
            Err(e) => failures.push(e),
        }
        after_op(v);
    }
    Loop {
        solve_s,
        failures,
        outputs: outputs.into_iter().flatten().collect(),
    }
}

/// Assembles the outcome of the set-up, the loop and (maybe) the traced
/// pass, whose failures count against the attempted operations.
fn finish(
    cfg: &Config,
    setup_s: Vec<f64>,
    lp: Loop,
    peak_rss_mb: f64,
    traced: Option<(Result<(), String>, Layers, Spans)>,
) -> Outcome {
    let mut out = Outcome {
        nodes: cfg.nodes(),
        variants: cfg.workload.variants(),
        setup_s,
        attempted: lp.solve_s.len(),
        solve_s: lp.solve_s,
        failures: lp.failures,
        outputs: lp.outputs,
        peak_rss_mb,
        layers: Layers::default(),
        spans: None,
    };
    if let Some((result, layers, spans)) = traced {
        // Every traced operation begun is attempted; a failure stops the
        // pass.
        out.attempted += spans
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name.ends_with(".op"))
            .count();
        if let Err(e) = result {
            out.failures.push(format!("traced pass: {e}"));
        }
        out.layers = layers;
        out.spans = Some(spans);
    }
    out
}

fn read_peak() -> Result<f64, String> {
    peak_rss_mb().ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_owned())
}

/// Layer metrics every workload reports the same way.
fn common_layers(layers: &mut Layers, t: &Samples, build_s: &[f64], solve_s: &[f64]) {
    layers.set("graphs.build_s", median(build_s));
    layers.set("core.validate_s", t.median("core.validate_s"));
    layers.set(
        "perfbench.trace_overhead_s",
        t.median("op_s") - median(solve_s),
    );
}

// --- alg12-ba: Algorithms 1 + 2 on a Barabási–Albert graph -------------

fn alg12_ba(cfg: &Config) -> Result<Outcome, String> {
    let n = cfg.nodes();
    let seeds = cfg.seeds();
    let (mut build_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut build = |seed| {
        let (g, secs) = timed(|| generators::barabasi_albert(n, 5, seed));
        build_s.push(secs);
        // Instance construction is set-up work. The instance borrows the
        // graph, so the ones used below are rebuilt (O(n), untimed).
        drop(Instance::uniform_clamped(&g, K));
        g
    };
    let graphs = first_setups(&mut setup_s, &mut build, &seeds);
    let insts: Vec<Instance<'_>> = graphs
        .iter()
        .map(|g| Instance::uniform_clamped(g, K))
        .collect();
    let pipelines: Vec<GeneralPipeline> = seeds
        .iter()
        .map(|&s| GeneralPipeline::new(T).seed(s))
        .collect();
    let engines = pipelines
        .iter()
        .zip(&insts)
        .map(|(p, inst)| p.run(inst).map(|run| run.set))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("engine twin: {e}"))?;
    let metered: Vec<GeneralPipeline> = pipelines.into_iter().map(|p| p.metered(true)).collect();
    let stage = |metrics| Stage {
        nodes: n as usize,
        metrics,
    };
    let lp = closed_loop(
        cfg.seconds,
        &engines,
        |v| {
            let inst = &insts[v];
            let run = metered[v].run(inst).map_err(|e| e.to_string())?;
            ensure(
                is_k_dominating_instance(inst, &run.set, Semantics::CoverSelf),
                "set is not k-dominating (CoverSelf)",
            )?;
            let (m1, m2) = run.metrics.ok_or("metered run returned no metrics")?;
            Ok(Output {
                set: run.set,
                stages: vec![stage(m1), stage(m2)],
            })
        },
        |v| drop(set_up(&mut setup_s, &mut build, seeds[v])),
    );
    let peak = read_peak()?;
    let traced = cfg.trace.then(|| {
        let (inst, seed, engine) = (&insts[0], seeds[0], &engines[0]);
        let mut layers = Layers::default();
        let mut spans = Spans::new();
        let mut t = Samples::default();
        let params = FractionalParams::new(T);
        let rp = RoundingParams::default();
        let mut pass = || -> Result<(), String> {
            let mut stages = Vec::new();
            let mut records = 0;
            for op in 0..TRACE_REPS {
                spans.set_op(op);
                let root = spans.enter("alg12-ba.op");
                let (frac, s) = spans.time("core.fractional.protocol", || {
                    run_fractional_protocol(inst, &params)
                });
                t.push("core.fractional.protocol_s", s);
                let frac = frac.map_err(|e| e.to_string())?;
                let (round, s) = spans.time("core.rounding.protocol", || {
                    let x = &frac.solution.x;
                    run_rounding_protocol(inst, x, frac.solution.delta, seed, &rp)
                });
                t.push("core.rounding.protocol_s", s);
                let round = round.map_err(|e| e.to_string())?;
                let (ok, s) = spans.time("core.validate", || {
                    is_k_dominating_instance(inst, &round.outcome.set, Semantics::CoverSelf)
                });
                t.push("core.validate_s", s);
                t.push("op_s", spans.exit(root));
                ensure(ok, "set is not k-dominating (CoverSelf)")?;
                ensure(
                    round.outcome.set == *engine,
                    "set differs from the engine twin's",
                )?;
                stages = vec![stage(frac.metrics), stage(round.metrics)];

                let (ef, s) =
                    spans.time("core.fractional.engine", || solve_fractional(inst, &params));
                t.push("core.fractional.engine_s", s);
                let ef = ef.map_err(|e| e.to_string())?;
                let (_, s) = spans.time("core.rounding.engine", || {
                    round_fractional(inst, &ef.x, ef.delta, seed, &rp)
                });
                t.push("core.rounding.engine_s", s);
                let (tr, s) = spans.time("netsim.trace", || {
                    run_fractional_stack(inst, &params, Stack::new().traced())
                });
                t.push("traced_s", s);
                records = tr.map_err(|e| e.to_string())?.1.map_or(0, |log| log.len());
            }
            let protocol_s =
                t.median("core.fractional.protocol_s") + t.median("core.rounding.protocol_s");
            let engine_s =
                t.median("core.fractional.engine_s") + t.median("core.rounding.engine_s");
            layers.record_sim(&stages, protocol_s);
            // No transport: the timed stack is the bare protocol.
            layers.record_transport(&stages, protocol_s, &stages, protocol_s);
            layers.set("netsim.sim.engine_speedup", ratio(protocol_s, engine_s));
            layers.set(
                "netsim.trace.overhead_ratio",
                ratio(t.median("traced_s"), t.median("core.fractional.protocol_s")),
            );
            layers.set("netsim.trace.records", records as f64);
            for name in [
                "core.fractional.protocol_s",
                "core.fractional.engine_s",
                "core.rounding.protocol_s",
                "core.rounding.engine_s",
            ] {
                layers.set(name, t.median(name));
            }
            Ok(())
        };
        let result = pass();
        common_layers(&mut layers, &t, &build_s, &lp.solve_s);
        (result, layers, spans)
    });
    Ok(finish(cfg, setup_s, lp, peak, traced))
}

// --- alg3-reliable: Algorithm 3 over the lossless reliable transport ----

fn transport_stack() -> Stack {
    Stack::new().transport(TransportConfig::default())
}

fn alg3_reliable(cfg: &Config) -> Result<Outcome, String> {
    let n = cfg.nodes();
    let seeds = cfg.seeds();
    let (mut build_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut build = |seed| {
        let (udg, secs) = timed(|| generators::random_udg(n, 12.0, 1.0, seed));
        build_s.push(secs);
        udg
    };
    let udgs: Vec<UnitDiskGraph> = first_setups(&mut setup_s, &mut build, &seeds);
    let algs: Vec<UdgAlgorithm> = seeds
        .iter()
        .map(|&s| UdgAlgorithm::new(K).seed(s))
        .collect();
    let engines = algs
        .iter()
        .zip(&udgs)
        .map(|(alg, udg)| alg.run(udg).map(|run| run.set))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("engine twin: {e}"))?;
    let stage = |metrics| Stage {
        nodes: n as usize,
        metrics,
    };
    let lp = closed_loop(
        cfg.seconds,
        &engines,
        |v| {
            let udg = &udgs[v];
            let (run, _) =
                run_udg_stack(udg, &algs[v], transport_stack()).map_err(|e| e.to_string())?;
            ensure(
                is_k_dominating(udg.graph(), &run.run.set, K, Semantics::Strict),
                "set is not strictly k-dominating",
            )?;
            Ok(Output {
                set: run.run.set,
                stages: vec![stage(run.metrics)],
            })
        },
        |v| drop(set_up(&mut setup_s, &mut build, seeds[v])),
    );
    let peak = read_peak()?;
    let traced = cfg.trace.then(|| {
        let (udg, alg, engine) = (&udgs[0], &algs[0], &engines[0]);
        let mut layers = Layers::default();
        let mut spans = Spans::new();
        let mut t = Samples::default();
        let mut pass = || -> Result<(), String> {
            let (mut stacked, mut bare) = (Vec::new(), Vec::new());
            let mut records = 0;
            for op in 0..TRACE_REPS {
                spans.set_op(op);
                let root = spans.enter("alg3-reliable.op");
                let (run, s) = spans.time("core.udg.protocol+transport", || {
                    run_udg_stack(udg, alg, transport_stack())
                });
                t.push("stacked_s", s);
                let (run, _) = run.map_err(|e| e.to_string())?;
                let (ok, s) = spans.time("core.validate", || {
                    is_k_dominating(udg.graph(), &run.run.set, K, Semantics::Strict)
                });
                t.push("core.validate_s", s);
                t.push("op_s", spans.exit(root));
                ensure(ok, "set is not strictly k-dominating")?;
                ensure(run.run.set == *engine, "set differs from the engine twin's")?;
                stacked = vec![stage(run.metrics)];

                let (b, s) = spans.time("core.udg.protocol", || {
                    run_udg_stack(udg, alg, Stack::new())
                });
                t.push("core.udg.protocol_s", s);
                bare = vec![stage(b.map_err(|e| e.to_string())?.0.metrics)];
                let (e, s) = spans.time("core.udg.engine", || alg.run(udg));
                t.push("core.udg.engine_s", s);
                e.map_err(|e| e.to_string())?;
                let (tr, s) = spans.time("netsim.trace", || {
                    run_udg_stack(udg, alg, transport_stack().traced())
                });
                t.push("traced_s", s);
                records = tr.map_err(|e| e.to_string())?.1.map_or(0, |log| log.len());
            }
            let stacked_s = t.median("stacked_s");
            let bare_s = t.median("core.udg.protocol_s");
            let engine_s = t.median("core.udg.engine_s");
            layers.record_sim(&stacked, stacked_s);
            layers.record_transport(&stacked, stacked_s, &bare, bare_s);
            layers.set("netsim.sim.engine_speedup", ratio(bare_s, engine_s));
            layers.set(
                "netsim.trace.overhead_ratio",
                ratio(t.median("traced_s"), stacked_s),
            );
            layers.set("netsim.trace.records", records as f64);
            layers.set("core.udg.protocol_s", bare_s);
            layers.set("core.udg.engine_s", engine_s);
            Ok(())
        };
        let result = pass();
        common_layers(&mut layers, &t, &build_s, &lp.solve_s);
        (result, layers, spans)
    });
    Ok(finish(cfg, setup_s, lp, peak, traced))
}

// --- repair-lossy: healing an Alg 3 set after crashes, under loss ------

fn lossy_stack() -> Stack {
    Stack::new().lossy(LOSS)
}

/// A seeded crash mask: each node dies with probability [`CRASH`],
/// decided by a SplitMix64 hash of the seed and the node id.
fn crash_mask(n: usize, seed: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|v| {
            let mut z =
                (seed ^ 0xc2b2_ae3d_27d4_eb4f).wrapping_add(v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 >= CRASH
        })
        .collect()
}

/// The repaired set restricted to the survivors is strictly k-dominating
/// on the surviving subgraph.
fn repair_valid(g: &Graph, set: &DominatingSet, alive: &[bool]) -> bool {
    let (sub, subset) = surviving_instance(g, set, alive);
    is_k_dominating(&sub, &subset, K, Semantics::Strict)
}

/// The repair input: the graph, the Alg 3 set, the crash mask and the
/// number of survivors.
struct RepairInput {
    g: Graph,
    set: DominatingSet,
    alive: Vec<bool>,
    survivors: usize,
}

fn repair_lossy(cfg: &Config) -> Result<Outcome, String> {
    let n = cfg.nodes();
    let seeds = cfg.seeds();
    let (mut build_s, mut udg_engine_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut build = |seed| -> Result<RepairInput, String> {
        let (udg, secs) = timed(|| generators::random_udg(n, 12.0, 1.0, seed));
        build_s.push(secs);
        let (run, secs) = timed(|| UdgAlgorithm::new(K).seed(seed).run(&udg));
        udg_engine_s.push(secs);
        let set = run.map_err(|e| format!("Alg 3 set-up: {e}"))?.set;
        let alive = crash_mask(n as usize, seed);
        let survivors = alive.iter().filter(|&&a| a).count();
        Ok(RepairInput {
            g: udg.graph().clone(),
            set,
            alive,
            survivors,
        })
    };
    let inputs = first_setups(&mut setup_s, &mut build, &seeds)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let rcfgs: Vec<RepairConfig> = seeds.iter().map(|&s| RepairConfig::new(s)).collect();
    let engines = inputs
        .iter()
        .zip(&rcfgs)
        .map(|(i, rcfg)| repair_coverage(&i.g, &i.set, &i.alive, K, rcfg).map(|out| out.set))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("engine twin: {e}"))?;
    let stage = |survivors, metrics| Stage {
        nodes: survivors,
        metrics,
    };
    let lp = closed_loop(
        cfg.seconds,
        &engines,
        |v| {
            let i = &inputs[v];
            let (run, _) = run_repair_stack(&i.g, &i.set, &i.alive, K, &rcfgs[v], lossy_stack())
                .map_err(|e| e.to_string())?;
            ensure(
                repair_valid(&i.g, &run.set, &i.alive),
                "survivors are not strictly k-dominated",
            )?;
            Ok(Output {
                set: run.set,
                stages: vec![stage(i.survivors, run.metrics)],
            })
        },
        |v| drop(set_up(&mut setup_s, &mut build, seeds[v])),
    );
    let peak = read_peak()?;
    let traced = cfg.trace.then(|| {
        let (
            RepairInput {
                g,
                set,
                alive,
                survivors,
            },
            rcfg,
            engine,
        ) = (&inputs[0], &rcfgs[0], &engines[0]);
        let mut layers = Layers::default();
        let mut spans = Spans::new();
        let mut t = Samples::default();
        let keep: Vec<NodeId> = g.nodes().filter(|v| alive[v.index()]).collect();
        let mut pass = || -> Result<(), String> {
            let (mut stacked, mut bare) = (Vec::new(), Vec::new());
            let (mut records, mut deficit, mut added) = (0, 0, 0);
            for op in 0..TRACE_REPS {
                spans.set_op(op);
                let root = spans.enter("repair-lossy.op");
                let (run, s) = spans.time("core.repair.protocol+lossy", || {
                    run_repair_stack(g, set, alive, K, rcfg, lossy_stack())
                });
                t.push("stacked_s", s);
                let (run, _) = run.map_err(|e| e.to_string())?;
                let (ok, s) = spans.time("core.validate", || repair_valid(g, &run.set, alive));
                t.push("core.validate_s", s);
                t.push("op_s", spans.exit(root));
                ensure(ok, "survivors are not strictly k-dominated")?;
                ensure(run.set == *engine, "set differs from the engine twin's")?;
                (deficit, added) = (run.deficit_nodes, run.added.len());
                stacked = vec![stage(*survivors, run.metrics)];

                let (_, s) = spans.time("graphs.induced_subgraph", || g.induced_subgraph(&keep));
                t.push("graphs.induced_subgraph_s", s);
                let (b, s) = spans.time("core.repair.protocol", || {
                    run_repair_stack(g, set, alive, K, rcfg, Stack::new())
                });
                t.push("core.repair.protocol_s", s);
                bare = vec![stage(*survivors, b.map_err(|e| e.to_string())?.0.metrics)];
                let (e, s) = spans.time("core.repair.engine", || {
                    repair_coverage(g, set, alive, K, rcfg)
                });
                t.push("core.repair.engine_s", s);
                e.map_err(|e| e.to_string())?;
                let (tr, s) = spans.time("netsim.trace", || {
                    run_repair_stack(g, set, alive, K, rcfg, lossy_stack().traced())
                });
                t.push("traced_s", s);
                records = tr.map_err(|e| e.to_string())?.1.map_or(0, |log| log.len());
            }
            let stacked_s = t.median("stacked_s");
            let bare_s = t.median("core.repair.protocol_s");
            let engine_s = t.median("core.repair.engine_s");
            layers.record_sim(&stacked, stacked_s);
            layers.record_transport(&stacked, stacked_s, &bare, bare_s);
            layers.set("netsim.sim.engine_speedup", ratio(bare_s, engine_s));
            layers.set(
                "netsim.trace.overhead_ratio",
                ratio(t.median("traced_s"), stacked_s),
            );
            layers.set("netsim.trace.records", records as f64);
            layers.set(
                "graphs.induced_subgraph_s",
                t.median("graphs.induced_subgraph_s"),
            );
            layers.set("core.repair.protocol_s", bare_s);
            layers.set("core.repair.engine_s", engine_s);
            layers.set("core.repair.deficit_nodes", deficit as f64);
            layers.set("core.repair.added", added as f64);
            Ok(())
        };
        let result = pass();
        common_layers(&mut layers, &t, &build_s, &lp.solve_s);
        layers.set("core.udg.engine_s", median(&udg_engine_s));
        (result, layers, spans)
    });
    Ok(finish(cfg, setup_s, lp, peak, traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_mask_is_seeded_and_near_ten_percent() {
        let a = crash_mask(20_000, 7);
        assert_eq!(a, crash_mask(20_000, 7));
        assert_ne!(a, crash_mask(20_000, 8));
        let dead = a.iter().filter(|&&x| !x).count();
        assert!((1_800..2_200).contains(&dead), "{dead} dead");
    }

    #[test]
    fn variant_zero_is_the_run_seed() {
        let seeds = variant_seeds(7, 8);
        assert_eq!(seeds[0], 7);
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8);
        assert!(variant_seeds(8, 8).iter().all(|s| !seeds.contains(s)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
