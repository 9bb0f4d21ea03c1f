//! `perfbench`: the repository benchmark. Times the paper's pipelines
//! from an in-memory graph to a validated k-fold dominating set, one
//! caller running operations back to back on one worker thread, and
//! splits the time by layer in a separate traced pass.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload alg12-ba|alg3-reliable|repair-lossy \
//!     [--seed 7] [--seconds 10] [--trace 0|1] [--scale 1]
//! ```
//!
//! The report goes to standard output: readable lines first (every
//! metric with its unit, timing sample counts and percentiles, the
//! failure share and, when traced, the span table), then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for the workloads and what
//! each metric should move.

mod metrics;
mod spans;
mod workloads;

use metrics::{median, tail, total, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Config, Outcome, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale F]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Alg12Ba,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0 && cfg.scale > 0.0) {
        return Err("--seconds must be >= 0 and --scale > 0".to_owned());
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// The end-to-end values of a run, in [`END_TO_END`] order. Counts are
/// medians over the variants of the operation.
fn end_to_end(out: &Outcome) -> Vec<f64> {
    let count = |f: &dyn Fn(&workloads::Output) -> u64| {
        let xs: Vec<f64> = out.outputs.iter().map(|o| f(o) as f64).collect();
        median(&xs)
    };
    vec![
        median(&out.solve_s),
        median(&out.setup_s),
        out.peak_rss_mb,
        count(&|o| total(&o.stages, |m| m.messages)),
        count(&|o| total(&o.stages, |m| m.total_bits)),
        count(&|o| total(&o.stages, |m| m.rounds)),
        count(&|o| o.set.len() as u64),
    ]
}

/// "median of N", plus the highest percentile with ten samples beyond it.
fn sample_note(xs: &[f64], what: &str) -> String {
    let mut note = format!("median of {} {what}", xs.len());
    match tail(xs) {
        Some((p, v)) => {
            let _ = write!(note, ", p{p} {v}");
        }
        None => note.push_str("; too few samples for a percentile above it"),
    }
    note
}

fn report(cfg: &Config, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench workload={} seed={} nodes={} variants={} threads=1 seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        out.nodes,
        out.variants,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let notes = [
        sample_note(&out.solve_s, "operations"),
        sample_note(&out.setup_s, "set-ups"),
    ];
    for (i, (&(name, unit), value)) in END_TO_END.iter().zip(end_to_end(out)).enumerate() {
        let note = notes.get(i).map_or("", String::as_str);
        let _ = writeln!(s, "{name:<16} {value} {unit}  {note}");
    }
    let samples: Vec<String> = out.solve_s.iter().map(|x| format!("{x:.4}")).collect();
    let _ = writeln!(s, "solve_s samples  {} s", samples.join(" "));
    let failed = out.failures.len();
    let _ = writeln!(
        s,
        "{:<16} {} share  ({failed} of {} operations)",
        "failed_share",
        metrics::ratio(failed as f64, out.attempted as f64),
        out.attempted
    );
    for f in &out.failures {
        let _ = writeln!(s, "failure: {f}");
    }
    if let Some(spans) = &out.spans {
        for &(name, unit) in PER_LAYER {
            let _ = writeln!(s, "{name:<40} {} {unit}", out.layers.get(name));
        }
        s.push_str(&spans.render());
    }
    s
}

/// The result line: every end-to-end metric, or with tracing every
/// per-layer metric.
fn json(cfg: &Config, out: &Outcome) -> String {
    let values: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, out.layers.get(n)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(out))
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    let fields: Vec<String> = values
        .into_iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failures.len(),
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // One worker: the host is shared, so single-thread timings are the
    // honest ones.
    match ftclust_par::with_threads(1, || workloads::run(&cfg)) {
        Ok(out) => {
            print!("{}", report(&cfg, &out));
            println!("{}", json(&cfg, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let cfg = parse_args(&args(
            "--workload repair-lossy --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::RepairLossy);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (11, 10.0, true));
        assert_eq!(
            parse_args(&args("--workload alg12-ba")).unwrap().seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("")).is_err());
        assert!(parse_args(&args("--workload gossip")).is_err());
        assert!(parse_args(&args("--workload alg12-ba --trace 2")).is_err());
        assert!(parse_args(&args("--workload alg12-ba --seed")).is_err());
        assert!(parse_args(&args("--workload alg12-ba --bogus 1")).is_err());
    }
}
