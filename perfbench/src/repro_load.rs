//! `paper-repro`: the full `repro all` reproduction of the paper's 27
//! tables and figures at Quick scale, one process per pass, with
//! `--jobs` set to the host's parallelism.
//!
//! Every pass is a fresh process and so starts with an empty run cache,
//! as every user run does. Its standard output must equal the recorded
//! reproduction byte for byte.

use crate::trace::Tracer;
use crate::{Ctx, Run};
use ihw_bench::runner::report::Stopwatch;
use std::process::Command;

/// `repro all` output when the benchmark was defined.
const EXPECTED_STDOUT: &str = include_str!("../expected/repro_all.txt");

/// Run-cache counters of one `repro all` when the benchmark was
/// defined; they do not depend on `--jobs`.
const EXPECTED_CACHE_HITS: u64 = 48;
const EXPECTED_CACHE_MISSES: u64 = 130;

/// Runs `repro` with `args`; returns its standard output.
fn repro(ctx: &Ctx, args: &[&str]) -> Result<String, String> {
    let out = Command::new(&ctx.repro)
        .arg("--jobs")
        .arg(ctx.nproc.to_string())
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ctx.repro.display()))?;
    if !out.status.success() {
        return Err(format!("repro {args:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "repro printed non-UTF-8 output".into())
}

/// What `repro --timings all` reports after the reproduction.
pub struct Timings {
    pub hits: u64,
    pub misses: u64,
    /// Σ per-experiment seconds ÷ (wall seconds × jobs).
    pub busy_ratio: f64,
}

/// Runs `repro --timings all`, checks its reproduction, and parses the
/// report that follows it.
pub fn timings(ctx: &Ctx) -> Result<Timings, String> {
    let out = repro(ctx, &["--timings", "all"])?;
    let report = out
        .strip_prefix(EXPECTED_STDOUT)
        .ok_or("`repro --timings all` reproduction differs from the record")?;
    let value = |label: &str| -> Option<f64> {
        let line = report.lines().find(|l| l.trim_start().starts_with(label))?;
        line.split_whitespace().last()?.parse().ok()
    };
    let cache = report
        .lines()
        .find_map(|l| l.split("run cache: ").nth(1))
        .ok_or("no run-cache line in the timing report")?;
    let words: Vec<&str> = cache.split_whitespace().collect();
    let (hits, misses) = match words.as_slice() {
        [h, "hits", "/", m, "misses", ..] => (h.parse().ok(), m.parse().ok()),
        _ => (None, None),
    };
    let (Some(hits), Some(misses), Some(job_total), Some(wall)) =
        (hits, misses, value("(job total)"), value("(wall clock)"))
    else {
        return Err(format!("cannot parse the timing report: {cache}"));
    };
    Ok(Timings {
        hits,
        misses,
        busy_ratio: job_total / (wall * ctx.nproc as f64),
    })
}

/// Process starts measured as set-up; each is about 1 ms.
const SETUPS: usize = 21;

pub fn run(ctx: &Ctx, tracer: &Tracer, seconds: f64) -> Run {
    // `repro` runs its jobs on `nproc` threads.
    let mut run = Run::new(ctx.nproc);
    // Set-up is process start: spawning `repro` for its cheapest
    // experiment, which runs no workload.
    for _ in 0..SETUPS {
        let out = run.setup(|| repro(ctx, &["table2"]));
        if let Err(why) = out {
            run.fail(why);
        }
    }
    let mut pass = 0u64;
    while run.timed() < seconds {
        let sw = Stopwatch::start();
        let out = tracer.span("repro.process", None, pass, |_| repro(ctx, &["all"]));
        let s = sw.elapsed_seconds();
        run.pass(s, vec![s]);
        run.attempted += 1;
        match out {
            Ok(stdout) if stdout == EXPECTED_STDOUT => {}
            Ok(_) => run.fail(format!("pass {pass}: output differs from the record")),
            Err(why) => run.fail(format!("pass {pass}: {why}")),
        }
        pass += 1;
    }
    // The run-cache counters repeat exactly; check them once per run,
    // outside the timed window.
    run.attempted += 1;
    match timings(ctx) {
        Ok(t) if (t.hits, t.misses) == (EXPECTED_CACHE_HITS, EXPECTED_CACHE_MISSES) => {}
        Ok(t) => run.drift(format!(
            "run cache {} hits / {} misses, expected {EXPECTED_CACHE_HITS} / {EXPECTED_CACHE_MISSES}",
            t.hits, t.misses
        )),
        Err(why) => run.fail(why),
    }
    run
}
