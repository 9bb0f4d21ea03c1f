//! Part I of Algorithm 3: radius-doubling sparsification into leaders.

use super::IdMode;
use crate::bitset::BitSet;
use crate::DominatingSet;
use ftclust_geometry::SpatialGrid;
use ftclust_graphs::{NodeId, UnitDiskGraph};
use ftclust_netsim::node_rng;
use ftclust_par as par;
use rand::rngs::StdRng;
use rand::Rng;

/// One worker's contiguous block of the identifier-draw phase: each node
/// advances only its own RNG stream and writes only its own `ids` /
/// `fixed_drawn` cells, so sharding cannot change any draw.
struct DrawShard<'s> {
    start: usize,
    rngs: &'s mut [StdRng],
    ids: &'s mut [u64],
    fixed_drawn: &'s mut [bool],
}

/// The consideration-radius schedule `θ_1, …, θ_R` in **absolute** units
/// (multiples of `radius`):
///
/// * `ξ = 3/2`, `R = max(1, ⌈log_ξ log₂ n⌉)` rounds,
/// * `θ_i = min(1/2, 2^{i-1}·(log₂ n)^{-1/log₂ ξ}) · radius`.
///
/// The final `θ_R` always equals `radius/2`, so Lemma 5.1's coverage radius
/// `2·θ_R = radius` holds exactly.
pub fn theta_schedule(n: usize, radius: f64) -> Vec<f64> {
    assert!(radius > 0.0, "radius must be positive");
    let log2n = (n.max(4) as f64).log2(); // clamp so tiny n behave sanely
    let xi: f64 = 1.5;
    let rounds = ((log2n.ln() / xi.ln()).ceil() as usize).max(1);
    let theta1 = log2n.powf(-1.0 / xi.log2());
    let mut schedule: Vec<f64> = (0..rounds)
        .map(|i| (2f64.powi(i as i32) * theta1).min(0.5) * radius)
        .collect();
    // Guarantee the last round reaches exactly radius/2 (the ceiling can
    // leave it a shade below otherwise).
    if let Some(last) = schedule.last_mut() {
        *last = 0.5 * radius;
    }
    schedule
}

/// The u64 cap for the paper's identifier range `[1, n⁴]`.
pub(crate) fn id_cap(n: usize) -> u64 {
    (n.max(2) as u128).pow(4).min(u64::MAX as u128) as u64
}

#[derive(Debug)]
pub(crate) struct Part1Outcome {
    pub leaders: DominatingSet,
    pub rounds: u32,
    pub active_history: Vec<usize>,
    /// Active masks at the start of each round, plus the final mask —
    /// `active_masks.len() == rounds + 1`. Used by the Lemma 5.2 per-disk
    /// census in [`super::analysis`].
    pub active_masks: Vec<Vec<bool>>,
    /// Per-node RNG streams in their post-Part-I state, so Part II
    /// continues exactly where the protocol implementation's streams are.
    pub rngs: Vec<StdRng>,
}

/// Runs Part I in memory. Random identifiers come from the per-node
/// streams of [`ftclust_netsim::node_rng`], drawn once per round while the
/// node is active — exactly the draws the protocol implementation makes,
/// so both agree seed-for-seed.
pub(crate) fn run_part1(udg: &UnitDiskGraph, seed: u64, id_mode: IdMode) -> Part1Outcome {
    let n = udg.node_count();
    if n == 0 {
        return Part1Outcome {
            leaders: DominatingSet::empty(0),
            rounds: 0,
            active_history: vec![],
            active_masks: vec![],
            rngs: vec![],
        };
    }
    let schedule = theta_schedule(n, udg.radius());
    let cap = id_cap(n);
    // Per-node streams are seeded independently (SplitMix64 over the node
    // id), so even their construction parallelizes without reordering.
    let mut rngs: Vec<StdRng> = par::par_map_range(n, |i| node_rng(seed, NodeId::new(i as u32)));
    let mut active = BitSet::from_fn_par(n, |_| true);
    let mut ids = vec![0u64; n];
    let mut fixed_drawn = vec![false; n];
    let mut history = Vec::with_capacity(schedule.len());
    let mut masks: Vec<Vec<bool>> = Vec::with_capacity(schedule.len() + 1);

    for &theta in &schedule {
        masks.push(active.to_bools());
        // Draw identifiers for the active nodes (line 5). Each node's draw
        // comes from its own private stream, so contiguous shards produce
        // exactly the serial draws.
        {
            let active = &active;
            let mut shards: Vec<DrawShard<'_>> = Vec::new();
            let (mut rngs_r, mut ids_r, mut fd_r) =
                (&mut rngs[..], &mut ids[..], &mut fixed_drawn[..]);
            for r in par::split_ranges(n, par::num_threads()) {
                let (rngs_h, rngs_n) = rngs_r.split_at_mut(r.len());
                let (ids_h, ids_n) = ids_r.split_at_mut(r.len());
                let (fd_h, fd_n) = fd_r.split_at_mut(r.len());
                rngs_r = rngs_n;
                ids_r = ids_n;
                fd_r = fd_n;
                shards.push(DrawShard {
                    start: r.start,
                    rngs: rngs_h,
                    ids: ids_h,
                    fixed_drawn: fd_h,
                });
            }
            par::par_for_each_mut(&mut shards, |_, s| {
                for j in 0..s.rngs.len() {
                    if !active.get(s.start + j) {
                        continue;
                    }
                    match id_mode {
                        IdMode::FreshPerRound => s.ids[j] = s.rngs[j].random_range(1..=cap),
                        IdMode::FixedAtStart => {
                            if !s.fixed_drawn[j] {
                                s.ids[j] = s.rngs[j].random_range(1..=cap);
                                s.fixed_drawn[j] = true;
                            }
                        }
                    }
                }
            });
        }
        // Build a grid over the active nodes only.
        let active_ids: Vec<u32> = active.iter_ones().map(|i| i as u32).collect();
        let active_pos: Vec<_> =
            par::par_map_indexed(&active_ids, |_, &i| udg.position(NodeId::new(i)));
        let grid = SpatialGrid::build(&active_pos, theta.max(1e-12));
        // Election (lines 8–12): each active node elects the max-identifier
        // active node within θ (ties by node id), possibly itself. The
        // winner scan per node is independent; the scatter into `elected`
        // is a commutative OR, merged serially in index order.
        let winners: Vec<u32> = par::par_map_range(active_ids.len(), |gi| {
            let i = active_ids[gi];
            let mut best = (ids[i as usize], i);
            grid.for_each_within(active_pos[gi], theta, |gj| {
                let j = active_ids[gj as usize];
                let key = (ids[j as usize], j);
                if key > best {
                    best = key;
                }
            });
            best.1
        });
        let mut elected = BitSet::new(n);
        for w in winners {
            elected.insert(w as usize);
        }
        active.and_assign(&elected);
        history.push(active.count());
    }
    let final_mask = active.to_bools();
    masks.push(final_mask.clone());
    #[cfg(debug_assertions)]
    crate::audit::part1_invariants(udg, &masks, &final_mask, schedule.iter().sum());

    Part1Outcome {
        leaders: DominatingSet::from_members(active.to_bools()),
        rounds: schedule.len() as u32,
        active_history: history,
        active_masks: masks,
        rngs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_k_dominating, Semantics};
    use ftclust_graphs::generators;

    #[test]
    fn schedule_ends_at_half_radius() {
        for n in [1usize, 2, 10, 100, 10_000, 1_000_000] {
            for r in [1.0, 2.5] {
                let s = theta_schedule(n, r);
                assert!(!s.is_empty());
                assert!((s.last().unwrap() - 0.5 * r).abs() < 1e-12, "n={n}");
                // Doubling until the cap.
                for w in s.windows(2) {
                    assert!(w[1] >= w[0] - 1e-12);
                    assert!(w[1] <= 2.0 * w[0] + 1e-12);
                }
                assert!(s.iter().all(|&t| t <= 0.5 * r + 1e-12));
            }
        }
    }

    #[test]
    fn id_cap_saturates() {
        assert_eq!(id_cap(2), 16);
        assert_eq!(id_cap(10), 10_000);
        assert_eq!(id_cap(100_000), u64::MAX); // 10²⁰ > u64::MAX
    }

    #[test]
    fn dense_clique_keeps_one_leader() {
        // All nodes within θ₁ of each other: a single election winner
        // survives every round.
        let pts: Vec<_> = (0..50)
            .map(|i| ftclust_geometry::Point::new(1e-6 * i as f64, 0.0))
            .collect();
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        let out = run_part1(&udg, 3, IdMode::FreshPerRound);
        assert_eq!(out.leaders.len(), 1);
    }

    #[test]
    fn isolated_nodes_all_become_leaders() {
        let pts: Vec<_> = (0..6)
            .map(|i| ftclust_geometry::Point::new(5.0 * i as f64, 0.0))
            .collect();
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        let out = run_part1(&udg, 0, IdMode::FreshPerRound);
        assert_eq!(out.leaders.len(), 6);
    }

    #[test]
    fn lemma_5_1_leaders_dominate() {
        for seed in 0..5 {
            let udg = generators::random_udg(500, 9.0, 1.0, 100 + seed);
            let out = run_part1(&udg, seed, IdMode::FreshPerRound);
            assert!(
                is_k_dominating(udg.graph(), &out.leaders, 1, Semantics::Strict),
                "Lemma 5.1 violated at seed {seed}"
            );
        }
    }

    #[test]
    fn sparsification_shrinks_dense_deployments() {
        // 2000 nodes in a 4×4 area (radius 1): the leader density is
        // governed by the area (Lemma 5.5: O(1) per radius-1/2 disk ⇒
        // a few dozen overall), not by n.
        let udg = generators::random_udg_in_square(2000, 4.0, 1.0, 8);
        let out = run_part1(&udg, 1, IdMode::FreshPerRound);
        assert!(
            out.leaders.len() < 200,
            "no sparsification: {} leaders in a 16-unit² area",
            out.leaders.len()
        );
    }

    #[test]
    fn fixed_ids_still_dominate() {
        let udg = generators::random_udg(300, 10.0, 1.0, 12);
        let out = run_part1(&udg, 2, IdMode::FixedAtStart);
        assert!(is_k_dominating(
            udg.graph(),
            &out.leaders,
            1,
            Semantics::Strict
        ));
    }
}
