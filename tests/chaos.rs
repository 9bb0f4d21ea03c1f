//! Adversarial-delivery integration tests: the conservation law extended
//! with the adversary's fault counters under random churn × loss ×
//! adversary mixes, fail-fast guarantees (a permanent partition surfaces
//! `DeliveryFailed` naming the cut link, and the α-synchronizer surfaces
//! `AsyncStalled` under corruption — never a hang), and byte-identical
//! event logs across `FTCLUST_THREADS` for an adversarial traced run.

use ftclust::core::fractional::protocol::{run_fractional_async_stack, run_fractional_stack};
use ftclust::core::fractional::FractionalParams;
use ftclust::core::{Instance, KmdsError};
use ftclust::graphs::{generators, NodeId};
use ftclust::netsim::exec::Stack;
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{
    AdversaryPlan, ChurnPlan, Context, Control, Envelope, NodeLogic, Payload, SimError, Simulator,
    Topology,
};
use ftclust_par::with_threads;
use proptest::prelude::*;

/// One-bit chatter payload for the conservation-law tests.
#[derive(Clone, Debug)]
struct Ping;

impl Payload for Ping {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Broadcasts every round for `ttl` rounds, then halts.
struct Chatter {
    ttl: u64,
}

impl NodeLogic for Chatter {
    type Payload = Ping;

    fn on_round(&mut self, _inbox: &[Envelope<Ping>], ctx: &mut Context<'_, Ping>) -> Control {
        ctx.broadcast(Ping);
        if ctx.round() + 1 >= self.ttl {
            Control::Halt
        } else {
            Control::Continue
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The adversary-extended conservation law at the simulator level:
    /// every sent message (including injected network duplicates, which
    /// are metered as sends) is delivered, dropped by loss or a
    /// partition cut, dead on arrival, erased by corruption, or still
    /// held in the adversary's delay queue.
    #[test]
    fn conservation_holds_under_chaos(
        n in 4u32..40,
        edge_p in 0.05f64..0.3,
        drop in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        jitter in 0.0f64..0.25,
        max_delay in 1u64..4,
        crashes in proptest::collection::vec((0u32..40, 1u64..8, 1u64..6), 0..3),
        seed in 0u64..1_000,
    ) {
        let g = generators::gnp(n, edge_p, seed);
        let mut churn = ChurnPlan::none().drop_probability(drop);
        for (v, down, dur) in crashes {
            if v < n {
                churn = churn
                    .crash(NodeId::new(v), down)
                    .recover(NodeId::new(v), down + dur);
            }
        }
        let plan = AdversaryPlan::new(seed ^ 0xC4A05)
            .jitter(jitter, max_delay)
            .duplicate(dup)
            .corrupt(corrupt);
        let mut sim = Simulator::with_churn(
            Topology::from_graph(&g),
            |_| Chatter { ttl: 6 },
            seed,
            churn,
        );
        sim.set_adversary(plan);
        sim.run(200).unwrap();
        let m = sim.metrics();
        prop_assert_eq!(
            m.in_flight_residual(),
            Ok(sim.in_flight_messages()),
            "conservation law violated"
        );
        // No transport below the simulator: nothing suppresses, so the
        // duplicate sources bound is trivially the suppressed count.
        prop_assert_eq!(m.duplicates_suppressed, 0);
        prop_assert!(m.retransmits == 0 && m.acks == 0);
    }

    /// The same law through the reliable transport: the receiver
    /// suppresses duplicates, which now come from **two** sources —
    /// retransmissions and the adversary's injected copies — and the
    /// computed solution still matches the fault-free run whenever the
    /// transport survives.
    #[test]
    fn transport_conservation_holds_under_chaos(
        corrupt in 0.0f64..0.2,
        dup in 0.0f64..0.2,
        jitter in 0.0f64..0.2,
        seed in 0u64..1_000,
    ) {
        let g = generators::gnp(40, 0.12, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (clean, _) = run_fractional_stack(&inst, &params, Stack::new()).unwrap();
        let plan = AdversaryPlan::new(seed)
            .jitter(jitter, 3)
            .duplicate(dup)
            .corrupt(corrupt);
        let stack = Stack::new()
            .adversarial(plan)
            .transport(TransportConfig::default());
        match run_fractional_stack(&inst, &params, stack) {
            Ok((run, _)) => {
                prop_assert_eq!(&run.solution, &clean.solution, "chaos changed the result");
                let residual = run.metrics.in_flight_residual();
                prop_assert!(residual.is_ok(), "conservation law violated: {:?}", residual);
            }
            // Legitimate fail-fast under extreme sustained loss: the
            // retransmit budget is finite by design.
            Err(KmdsError::Sim(SimError::DeliveryFailed { .. })) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// A permanent partition cannot be masked: the transport exhausts one
/// frame's retransmit budget and names the cut link — it never hangs.
#[test]
fn permanent_partition_fails_fast_naming_the_cut_link() {
    let g = generators::gnp(60, 0.1, 5);
    let inst = Instance::uniform_clamped(&g, 2);
    let side: Vec<NodeId> = (0..15).map(NodeId::new).collect();
    let cfg = TransportConfig::default();
    let stack = Stack::new()
        .adversarial(AdversaryPlan::new(9).partition(&side, 0..u64::MAX))
        .transport(cfg);
    match run_fractional_stack(&inst, &FractionalParams::new(2), stack) {
        Err(KmdsError::Sim(SimError::DeliveryFailed {
            from, to, attempts, ..
        })) => {
            assert_ne!(
                side.contains(&from),
                side.contains(&to),
                "reported link {from:?} -> {to:?} does not cross the partition"
            );
            assert_eq!(
                attempts,
                cfg.max_retransmits + 1,
                "budget must be fully exhausted before giving up"
            );
        }
        Ok(_) => panic!("the transport masked a permanent partition"),
        Err(e) => panic!("expected DeliveryFailed, got: {e}"),
    }
}

/// The α-synchronizer under a corrupting adversary: corrupted bundles
/// are checksum-erased, a starved node can never advance, and the run
/// surfaces `AsyncStalled` when its event queue drains — never a hang.
#[test]
fn async_with_corruption_stalls_fast() {
    let g = generators::gnp(80, 0.06, 7);
    let inst = Instance::uniform_clamped(&g, 2);
    let stack = Stack::new().adversarial(AdversaryPlan::new(3).corrupt(0.4));
    match run_fractional_async_stack(&inst, &FractionalParams::new(2), 4, stack) {
        Err(KmdsError::Sim(SimError::AsyncStalled {
            stalled,
            dropped_bundles,
            ..
        })) => {
            assert!(stalled > 0, "a stall must strand at least one node");
            assert!(
                dropped_bundles > 0,
                "the stall must be attributable to erased bundles"
            );
        }
        Ok(_) => panic!("40% corruption cannot leave every bundle intact"),
        Err(e) => panic!("expected AsyncStalled, got: {e}"),
    }
}

/// An adversarial traced transport run is deterministic to the byte:
/// identical results and `EventLog` JSONL at 1, 2 and 7 threads.
#[test]
fn adversarial_traced_log_is_byte_identical_across_threads() {
    let g = generators::gnp(80, 0.08, 13);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(2);
    let stack = || {
        Stack::new()
            .adversarial(
                AdversaryPlan::new(0xADF0)
                    .jitter(0.15, 3)
                    .duplicate(0.1)
                    .corrupt(0.1),
            )
            .transport(TransportConfig::default())
            .traced()
    };
    let runs: Vec<_> = [1usize, 2, 7]
        .into_iter()
        .map(|t| with_threads(t, || run_fractional_stack(&inst, &params, stack()).unwrap()))
        .collect();
    let (base, base_log) = &runs[0];
    let base_log = base_log.as_ref().expect("traced stack records a log");
    base_log.reconcile(&base.metrics).unwrap();
    assert!(base.metrics.corrupted > 0, "chaos run saw no corruption");
    assert!(
        base.metrics.net_duplicated > 0,
        "chaos run saw no injected duplicates"
    );
    for (t, (run, log)) in [2usize, 7].into_iter().zip(&runs[1..]) {
        assert_eq!(
            &base.solution, &run.solution,
            "results diverged at {t} threads"
        );
        assert_eq!(
            base_log.to_jsonl(),
            log.as_ref().unwrap().to_jsonl(),
            "event log diverged at {t} threads"
        );
    }
}
