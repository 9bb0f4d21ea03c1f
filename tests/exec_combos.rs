//! Layer-composition tests for the executor stack of
//! `ftclust_netsim::exec`: the combinations the pre-executor driver
//! matrix never offered — **lossy+traced** and **churned+lossy** (with
//! tracing stacked on top, so all three layers compose) — run Algorithm
//! 1 and the coverage repair with results identical to the lossless
//! runs, byte-identical [`EventLog`]s at every `FTCLUST_THREADS`
//! setting, and metrics satisfying the transport-extended conservation
//! law. The portfolio protocols (`pb`, `dkm`, `cgreedy`) go through the
//! same layers at the bottom of this file: fixed-seed thread
//! invariance, lossy parity up to p = 0.2, and a churned+adversarial
//! smoke per algorithm.

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::FractionalParams;
use ftclust::core::portfolio::{run_cgreedy_stack, run_dkm_stack, run_pb_stack, PortfolioRun};
use ftclust::core::repair::{run_repair_stack, RepairConfig};
use ftclust::core::udg::UdgAlgorithm;
use ftclust::core::validate::{is_k_dominating_instance, Semantics};
use ftclust::core::Instance;
use ftclust::graphs::generators;
use ftclust::graphs::NodeId;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::trace::{REGISTERED_SPANS, UNSPANNED};
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{AdversaryPlan, ChurnPlan, EventLog, Metrics};
use ftclust_par::with_threads;

/// Thread counts compared against the single-thread reference.
const THREADS: &[usize] = &[2, 7];

/// Asserts `log` uses only registered span names and reconciles against
/// the run's metrics.
fn check_log(log: &EventLog, metrics: &Metrics, what: &str) {
    log.reconcile(metrics)
        .unwrap_or_else(|e| panic!("{what}: rollups diverged from Metrics: {e}"));
    for r in log.rollups() {
        assert!(
            r.name == UNSPANNED || REGISTERED_SPANS.contains(&r.name),
            "{what}: unregistered span {:?}",
            r.name
        );
    }
}

/// The conservation law, plus a tighter duplicate bound these fixed-seed
/// runs also meet: suppressed duplicates never outnumber retransmissions
/// (the law itself also admits the adversary's injected copies).
fn check_conservation(m: &Metrics, what: &str) {
    if let Err(e) = m.in_flight_residual() {
        panic!("{what}: {e}");
    }
    assert!(
        m.duplicates_suppressed <= m.retransmits,
        "{what}: more duplicates than retransmissions"
    );
}

/// Transport + i.i.d. loss + tracing: the lossy+traced combination.
fn lossy_traced(p: f64) -> Stack {
    Stack::new()
        .churned(ChurnPlan::none().drop_probability(p))
        .transport(TransportConfig::default())
        .traced()
}

/// Transport + i.i.d. loss + a scheduled crash/recovery window +
/// tracing: the churned+lossy combination (all three layers composed).
fn churned_lossy_traced(p: f64, victim: u32, down: u64, up: u64) -> Stack {
    Stack::new()
        .churned(
            ChurnPlan::none()
                .drop_probability(p)
                .crash(NodeId::new(victim), down)
                .recover(NodeId::new(victim), up),
        )
        .transport(TransportConfig::default())
        .traced()
}

#[test]
fn alg1_lossy_traced_is_thread_invariant_and_reconciles() {
    for &seed in &[5u64, 29] {
        let g = generators::gnp(40, 0.15, seed);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (lossless, _) = run_fractional_stack(&inst, &params, Stack::new()).expect("lossless");
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) =
                run_fractional_stack(&inst, &params, lossy_traced(0.1)).expect("lossy+traced");
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, "Alg 1 lossy+traced");
            check_conservation(&run.metrics, "Alg 1 lossy+traced");
            (run, log)
        });
        assert_eq!(
            ref_run.solution, lossless.solution,
            "loss changed Algorithm 1's solution at seed {seed}"
        );
        assert!(
            ref_run.metrics.retransmits > 0,
            "no loss was exercised at seed {seed}"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) =
                    run_fractional_stack(&inst, &params, lossy_traced(0.1)).expect("lossy+traced");
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.solution, run.solution, "seed={seed} t={t}");
            assert_eq!(ref_run.metrics, run.metrics, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "log diverged seed={seed} t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "jsonl diverged seed={seed} t={t}"
            );
        }
    }
}

#[test]
fn alg1_churned_lossy_is_thread_invariant_and_reconciles() {
    for &seed in &[5u64, 29] {
        let g = generators::gnp(40, 0.15, seed);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (lossless, _) = run_fractional_stack(&inst, &params, Stack::new()).expect("lossless");
        // Node 3 goes down for physical rounds 2..7; the ARQ retransmits
        // across the outage, so the solution cannot change.
        let stack = || churned_lossy_traced(0.05, 3, 2, 7);
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_fractional_stack(&inst, &params, stack()).expect("churned+lossy");
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, "Alg 1 churned+lossy");
            check_conservation(&run.metrics, "Alg 1 churned+lossy");
            (run, log)
        });
        assert_eq!(
            ref_run.solution, lossless.solution,
            "churn+loss changed Algorithm 1's solution at seed {seed}"
        );
        assert!(
            ref_run.metrics.dead_on_arrival > 0 || ref_run.metrics.retransmits > 0,
            "no churn or loss was exercised at seed {seed}"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) =
                    run_fractional_stack(&inst, &params, stack()).expect("churned+lossy");
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.solution, run.solution, "seed={seed} t={t}");
            assert_eq!(ref_run.metrics, run.metrics, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "log diverged seed={seed} t={t}");
        }
    }
}

/// Repair fixture: an engine-built clustering with ten members killed.
fn repair_fixture() -> (
    ftclust::graphs::UnitDiskGraph,
    ftclust::core::DominatingSet,
    Vec<bool>,
) {
    let udg = generators::random_udg(150, 9.0, 1.0, 12);
    let base = UdgAlgorithm::new(2).seed(7).run(&udg).expect("udg engine");
    let mut alive = vec![true; udg.graph().node_count()];
    for v in base.set.ids().take(10) {
        alive[v.index()] = false;
    }
    (udg, base.set, alive)
}

#[test]
fn repair_lossy_traced_is_thread_invariant_and_reconciles() {
    let (udg, set, alive) = repair_fixture();
    let g = udg.graph();
    let cfg = RepairConfig::new(3);
    let (lossless, _) = run_repair_stack(g, &set, &alive, 2, &cfg, Stack::new()).expect("lossless");
    assert!(!lossless.added.is_empty(), "fixture repairs nothing");
    let (ref_run, ref_log) = with_threads(1, || {
        let (run, log) =
            run_repair_stack(g, &set, &alive, 2, &cfg, lossy_traced(0.1)).expect("lossy+traced");
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, "repair lossy+traced");
        check_conservation(&run.metrics, "repair lossy+traced");
        (run, log)
    });
    assert_eq!(ref_run.set, lossless.set, "loss changed the healed set");
    assert_eq!(ref_run.added, lossless.added);
    assert_eq!(ref_run.iterations, lossless.iterations);
    assert!(ref_run.metrics.retransmits > 0, "no loss was exercised");
    for &t in THREADS {
        let (run, log) = with_threads(t, || {
            let (run, log) = run_repair_stack(g, &set, &alive, 2, &cfg, lossy_traced(0.1))
                .expect("lossy+traced");
            (run, log.expect("traced stack records a log"))
        });
        assert_eq!(ref_run.set, run.set, "t={t}");
        assert_eq!(ref_run.metrics, run.metrics, "t={t}");
        assert_eq!(ref_log, log, "log diverged t={t}");
        assert_eq!(ref_log.to_jsonl(), log.to_jsonl(), "jsonl diverged t={t}");
    }
}

#[test]
fn repair_churned_lossy_is_thread_invariant_and_reconciles() {
    let (udg, set, alive) = repair_fixture();
    let g = udg.graph();
    let cfg = RepairConfig::new(3);
    let (lossless, _) = run_repair_stack(g, &set, &alive, 2, &cfg, Stack::new()).expect("lossless");
    // Subgraph node 5 goes down for physical rounds 2..8.
    let stack = || churned_lossy_traced(0.05, 5, 2, 8);
    let (ref_run, ref_log) = with_threads(1, || {
        let (run, log) =
            run_repair_stack(g, &set, &alive, 2, &cfg, stack()).expect("churned+lossy");
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, "repair churned+lossy");
        check_conservation(&run.metrics, "repair churned+lossy");
        (run, log)
    });
    assert_eq!(
        ref_run.set, lossless.set,
        "churn+loss changed the healed set"
    );
    assert_eq!(ref_run.added, lossless.added);
    assert_eq!(ref_run.iterations, lossless.iterations);
    for &t in THREADS {
        let (run, log) = with_threads(t, || {
            let (run, log) =
                run_repair_stack(g, &set, &alive, 2, &cfg, stack()).expect("churned+lossy");
            (run, log.expect("traced stack records a log"))
        });
        assert_eq!(ref_run.set, run.set, "t={t}");
        assert_eq!(ref_run.metrics, run.metrics, "t={t}");
        assert_eq!(ref_log, log, "log diverged t={t}");
    }
}

// ---------------------------------------------------------------------
// Portfolio protocols through the same layer combinations.
// ---------------------------------------------------------------------

/// The three portfolio protocols, dispatched by stable name.
const PORTFOLIO: [&str; 3] = ["pb", "dkm", "cgreedy"];

fn run_portfolio(
    name: &str,
    inst: &Instance<'_>,
    stack: Stack,
) -> (PortfolioRun, Option<EventLog>) {
    match name {
        "pb" => run_pb_stack(inst, stack),
        "dkm" => run_dkm_stack(inst, stack),
        "cgreedy" => run_cgreedy_stack(inst, stack),
        other => unreachable!("unknown portfolio protocol {other}"),
    }
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Fixed-seed determinism: every portfolio protocol, run lossy+traced,
/// is bit-for-bit identical (set, metrics, event log, rendered JSONL)
/// at 1, 2 and 7 worker threads.
#[test]
fn portfolio_protocols_are_thread_invariant() {
    let g = generators::gnp(60, 0.12, 21);
    let inst = Instance::uniform_clamped(&g, 2);
    for name in PORTFOLIO {
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_portfolio(name, &inst, lossy_traced(0.1));
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, name);
            check_conservation(&run.metrics, name);
            (run, log)
        });
        assert!(
            is_k_dominating_instance(&inst, &ref_run.set, Semantics::CoverSelf),
            "{name}: invalid set"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) = run_portfolio(name, &inst, lossy_traced(0.1));
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.set, run.set, "{name}: set diverged t={t}");
            assert_eq!(
                ref_run.metrics, run.metrics,
                "{name}: metrics diverged t={t}"
            );
            assert_eq!(ref_log, log, "{name}: log diverged t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "{name}: jsonl diverged t={t}"
            );
        }
    }
}

/// Lossy parity: the transport masks i.i.d. loss up to p = 0.2 for the
/// portfolio protocols exactly as for the paper's algorithms — same
/// set, same logical round count, loss actually exercised.
#[test]
fn portfolio_protocols_survive_loss_unchanged() {
    let g = generators::gnp(60, 0.12, 33);
    let inst = Instance::uniform_clamped(&g, 2);
    for name in PORTFOLIO {
        let (lossless, _) = run_portfolio(name, &inst, Stack::new());
        for p in [0.05, 0.2] {
            let (lossy, _) = run_portfolio(name, &inst, lossy_traced(p));
            assert_eq!(
                lossy.set, lossless.set,
                "{name}: loss changed the set at p={p}"
            );
            assert_eq!(
                lossy.logical_rounds, lossless.logical_rounds,
                "{name}: loss stretched logical rounds at p={p}"
            );
            assert!(
                lossy.metrics.retransmits > 0,
                "{name}: no loss exercised at p={p}"
            );
        }
    }
}

/// Churned+adversarial smoke: a crash/recovery window plus a
/// duplicating/corrupting adversary under the transport leaves every
/// portfolio protocol's set unchanged and its books balanced.
#[test]
fn portfolio_protocols_survive_churn_and_adversary() {
    let g = generators::gnp(60, 0.12, 44);
    let inst = Instance::uniform_clamped(&g, 2);
    let chaos = || {
        Stack::new()
            .churned(
                ChurnPlan::none()
                    .drop_probability(0.05)
                    .crash(NodeId::new(3), 2)
                    .recover(NodeId::new(3), 8),
            )
            .adversarial(AdversaryPlan::new(0xC0).duplicate(0.05).corrupt(0.05))
            .transport(TransportConfig::default())
            .traced()
    };
    for name in PORTFOLIO {
        let (lossless, _) = run_portfolio(name, &inst, Stack::new());
        let (run, log) = run_portfolio(name, &inst, chaos());
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, name);
        check_conservation(&run.metrics, name);
        assert_eq!(run.set, lossless.set, "{name}: chaos changed the set");
        assert!(
            is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
            "{name}: invalid set under chaos"
        );
    }
}
