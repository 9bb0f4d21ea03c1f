//! The metric catalogue, the statistics over timing samples, and the
//! per-layer values derived from the [`Metrics`] of a protocol run.

use ftclust_netsim::Metrics;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_messages", "count"),
    ("wire_bits", "bit"),
    ("rounds", "count"),
    ("set_size", "count"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer
/// that a workload does not run reports 0 (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.build_s", "s"),
    ("graphs.induced_subgraph_s", "s"),
    ("netsim.sim.envelopes_per_s", "1/s"),
    ("netsim.sim.delivered", "count"),
    ("netsim.sim.dropped", "count"),
    ("netsim.sim.quiet_round_share", "share"),
    ("netsim.sim.node_rounds_offered", "count"),
    ("netsim.sim.engine_speedup", "ratio"),
    ("netsim.transport.overhead_ratio", "ratio"),
    ("netsim.transport.frame_ratio", "ratio"),
    ("netsim.transport.acks", "count"),
    ("netsim.transport.sync_frames", "count"),
    ("netsim.transport.ns_per_frame", "ns"),
    ("netsim.transport.retransmits", "count"),
    ("netsim.transport.duplicates_suppressed", "count"),
    ("netsim.trace.overhead_ratio", "ratio"),
    ("netsim.trace.records", "count"),
    ("core.fractional.protocol_s", "s"),
    ("core.fractional.engine_s", "s"),
    ("core.rounding.protocol_s", "s"),
    ("core.rounding.engine_s", "s"),
    ("core.udg.protocol_s", "s"),
    ("core.udg.engine_s", "s"),
    ("core.repair.protocol_s", "s"),
    ("core.repair.engine_s", "s"),
    ("core.repair.deficit_nodes", "count"),
    ("core.repair.added", "count"),
    ("core.validate_s", "s"),
    ("perfbench.trace_overhead_s", "s"),
];

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p75/p90/p95/p99 that has at least ten samples beyond
/// it, as `(percentile, value)`.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| xs.len() as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile(xs, f64::from(p) / 100.0)))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One simulator run inside an operation: its node count and metrics.
#[derive(Debug, Clone)]
pub struct Stage {
    pub nodes: usize,
    pub metrics: Metrics,
}

/// Sums a counter over the stages of an operation.
pub fn total(stages: &[Stage], f: impl Fn(&Metrics) -> u64) -> u64 {
    stages.iter().map(|s| f(&s.metrics)).sum()
}

/// Per-layer values of one run; layers never set report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Simulator-level counters of the timed stack's stages, run in
    /// `secs` seconds of protocol time.
    pub fn record_sim(&mut self, stages: &[Stage], secs: f64) {
        let messages = total(stages, |m| m.messages) as f64;
        let rounds = total(stages, |m| m.rounds);
        // A quiet round carries fewer messages than 1% of the nodes.
        let quiet: usize = stages
            .iter()
            .map(|s| {
                let limit = s.nodes as f64 / 100.0;
                s.metrics
                    .per_round_messages
                    .iter()
                    .filter(|&&m| (m as f64) < limit)
                    .count()
            })
            .sum();
        let offered: usize = stages
            .iter()
            .map(|s| s.nodes * s.metrics.rounds as usize)
            .sum();
        self.set("netsim.sim.envelopes_per_s", ratio(messages, secs));
        self.set(
            "netsim.sim.delivered",
            total(stages, |m| m.delivered_messages) as f64,
        );
        self.set(
            "netsim.sim.dropped",
            total(stages, |m| m.dropped_messages) as f64,
        );
        self.set(
            "netsim.sim.quiet_round_share",
            ratio(quiet as f64, rounds as f64),
        );
        self.set("netsim.sim.node_rounds_offered", offered as f64);
    }

    /// Transport counters of the timed stack against the bare protocol
    /// on the same input. Without a transport the two are the same run.
    pub fn record_transport(
        &mut self,
        stacked: &[Stage],
        stacked_s: f64,
        bare: &[Stage],
        bare_s: f64,
    ) {
        let messages = total(stacked, |m| m.messages) as f64;
        let bare_messages = total(bare, |m| m.messages) as f64;
        let acks = total(stacked, |m| m.acks) as f64;
        let retransmits = total(stacked, |m| m.retransmits) as f64;
        self.set("netsim.transport.overhead_ratio", ratio(stacked_s, bare_s));
        self.set(
            "netsim.transport.frame_ratio",
            ratio(messages, bare_messages),
        );
        self.set("netsim.transport.acks", acks);
        self.set(
            "netsim.transport.sync_frames",
            messages - acks - retransmits - bare_messages,
        );
        self.set(
            "netsim.transport.ns_per_frame",
            ratio((stacked_s - bare_s) * 1e9, messages - bare_messages),
        );
        self.set("netsim.transport.retransmits", retransmits);
        self.set(
            "netsim.transport.duplicates_suppressed",
            total(stacked, |m| m.duplicates_suppressed) as f64,
        );
    }
}

/// Wall-time samples of one traced pass, keyed by layer metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, secs: f64) {
        self.0.entry(name).or_default().push(secs);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |xs| median(xs))
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 39]), None);
        assert_eq!(tail(&[1.0; 40]).map(|t| t.0), Some(75));
        assert_eq!(tail(&[1.0; 100]).map(|t| t.0), Some(90));
        assert_eq!(tail(&[1.0; 1000]).map(|t| t.0), Some(99));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
