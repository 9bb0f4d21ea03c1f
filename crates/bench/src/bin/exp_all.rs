//! Runs every experiment binary — convenience wrapper for regenerating
//! the whole of EXPERIMENTS.md in one command:
//!
//! ```text
//! cargo run -p ftclust-bench --release --bin exp_all
//! ```
//!
//! Independent experiments run **concurrently** (process-level fan-out via
//! `ftclust-par`, bounded by `FTCLUST_THREADS` / the core count), each
//! with its output captured; once all have finished, the captured output
//! is printed in the fixed experiment order, every line prefixed with
//! `[exp_name]`, so the overall output is byte-stable regardless of how
//! the processes interleaved.
//!
//! Child processes get `FTCLUST_THREADS=1` unless the variable is set
//! explicitly: with all experiments in flight at once, process-level
//! concurrency already saturates the cores, and nested fan-out would just
//! oversubscribe.
//!
//! Each experiment remains individually runnable; this wrapper shells out
//! to the sibling binaries in the same target directory.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const EXPERIMENTS: &[&str] = &[
    "exp_e1_fractional_ratio",
    "exp_e2_rounds_bits",
    "exp_e3_rounding",
    "exp_e4_end_to_end",
    "exp_e5_udg_scaling",
    "exp_e6_leaders_per_disk",
    "exp_e7_active_decay",
    "exp_e8_message_bits",
    "exp_e9_fault_tolerance",
    "exp_e10_tradeoff",
    "exp_e11_baselines",
    "exp_e12_geometry",
    "exp_e13_ablations",
    "exp_e14_churn",
    "exp_e15_lossy",
    "exp_e16_chaos",
    "exp_portfolio",
];

struct Outcome {
    name: &'static str,
    ok: bool,
    stdout: String,
    stderr: String,
}

fn main() -> ExitCode {
    let me = std::env::current_exe().expect("current executable path");
    let dir: PathBuf = me.parent().expect("executable directory").to_path_buf();
    // lint: env-read — forwarding the thread override to child experiment processes
    let child_threads = std::env::var("FTCLUST_THREADS").unwrap_or_else(|_| "1".to_string());
    let outcomes: Vec<Outcome> = ftclust_par::par_map_indexed(EXPERIMENTS, |_, name| {
        let path = dir.join(name);
        match Command::new(&path)
            .env("FTCLUST_THREADS", &child_threads)
            .output()
        {
            Ok(out) => Outcome {
                name,
                ok: out.status.success(),
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            },
            Err(e) => Outcome {
                name,
                ok: false,
                stdout: String::new(),
                stderr: format!(
                    "cannot run {} ({e}); build with `cargo build --release -p ftclust-bench --bins` first",
                    path.display()
                ),
            },
        }
    });
    let mut failed = Vec::new();
    for o in &outcomes {
        println!("================================================================");
        println!("=== {}", o.name);
        println!("================================================================");
        for line in o.stdout.lines() {
            println!("[{}] {line}", o.name);
        }
        for line in o.stderr.lines() {
            eprintln!("[{}] {line}", o.name);
        }
        if !o.ok {
            eprintln!("{} failed", o.name);
            failed.push(o.name);
        }
        println!();
    }
    if failed.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed experiments: {failed:?}");
        ExitCode::FAILURE
    }
}
