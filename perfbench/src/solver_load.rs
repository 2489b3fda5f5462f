//! `solver-converge`: repeated passes of `solverbench::sweep(64, 2000)`.
//!
//! A pass certifies and solves 2 solver kernels × 7 converge configs,
//! about 12.1k launches of 64 threads each, so per-launch overhead and
//! the contraction analyzer dominate. Serve is bypassed. The rows are
//! checked against the record the benchmark was defined with.
//!
//! One client runs the passes back to back. On the 2-vCPU host the
//! benchmark was tuned on, two clients (one per vCPU) made the pass times
//! bimodal, near 28 and 48 ms, both clients slow together; the median of
//! 10-s windows then spread 0.31 of its value, against 0.10 for one
//! client in the same hour.

use crate::trace::Tracer;
use crate::Run;
use ihw_bench::runner::report::Stopwatch;
use ihw_bench::solverbench::{self, SolverBenchRow};

pub const INTERIOR: usize = 64;
pub const MAX_ITERS: usize = 2000;

/// The `solverbench` record of `sweep(64, 2000)` when the benchmark was
/// defined (identical to the repository's `BENCH_solvers.json` then).
const EXPECTED_ROWS: &str = include_str!("../expected/solvers.json");

/// Launches in one pass (Σ sweeps over the 14 pairs) when the
/// benchmark was defined.
pub const EXPECTED_LAUNCHES: u64 = 12_135;

/// Launches a pass made: every sweep is one 64-thread launch.
fn launches(rows: &[SolverBenchRow]) -> u64 {
    rows.iter().map(|r| r.run.history.len() as u64 - 1).sum()
}

/// Why a pass's rows are wrong, if they are.
fn check(rows: &[SolverBenchRow]) -> Option<String> {
    if let Some(r) = rows.iter().find(|r| r.violates_certificate()) {
        return Some(format!(
            "{} × {} violates its certificate",
            r.kernel, r.config
        ));
    }
    if solverbench::to_json(rows, INTERIOR) != EXPECTED_ROWS {
        return Some("rows differ from the recorded certificates and iterations".into());
    }
    let n = launches(rows);
    (n != EXPECTED_LAUNCHES).then(|| format!("{n} launches per pass, expected {EXPECTED_LAUNCHES}"))
}

/// Cold passes measured as set-up.
const SETUPS: usize = 11;

pub fn run(tracer: &Tracer, seconds: f64) -> Run {
    let mut run = Run::new(1);
    // Nothing is cached across passes, so set-up is one pass on a cold
    // process: code pages and allocator arenas come up here.
    for _ in 0..SETUPS {
        std::hint::black_box(run.setup(|| solverbench::sweep(INTERIOR, MAX_ITERS)));
    }
    let mut pass = 0u64;
    while run.timed() < seconds {
        let sw = Stopwatch::start();
        let rows = tracer.span("solverbench.sweep", None, pass, |_| {
            solverbench::sweep(INTERIOR, MAX_ITERS)
        });
        let s = sw.elapsed_seconds();
        run.pass(s, vec![s]);
        run.attempted += 1;
        if let Some(why) = check(&rows) {
            run.fail(format!("pass {pass}: {why}"));
        }
        pass += 1;
    }
    run
}
