//! Kernel-throughput benchmark for the proof-gated parallel launch
//! path: interpreted-sequential reference vs compiled-sequential vs
//! compiled-parallel launches of every stock kernel × stock config,
//! with a three-way bit-identity check folded into every measurement.
//! The compiled engine is the only production engine; the interpreter
//! (`WarpInterpreter::launch_sequential`) is the reference oracle.
//! Records `BENCH_kernel_throughput.json` (schema `ihw-racebench/3`).
//!
//! Schema 3 additions over schema 2:
//! - every row records the `"engine"` that served the measured
//!   launches — always `compiled`, which lowers the
//!   `(Program, IhwConfig)` pair once and runs lanes as tight loops;
//! - `"compile_seconds"`: the one-time plan-lowering cost the plan
//!   cache amortizes across launches, timed separately so it can be
//!   compared against the per-launch savings;
//! - `"interp_seconds"` and `"speedup_vs_interp"`: the
//!   interpreted-sequential reference time and the compiled-sequential
//!   speedup over it — the headline number of the compiled engine
//!   (gated in CI via `--min-compiled-speedup`, a geomean floor);
//! - `"sequential_seconds"` / `"parallel_seconds"` / `"speedup"` keep
//!   their schema-2 meaning but both sides run on the compiled engine,
//!   so the parallel speedup is measured against the compiled
//!   sequential body, not against a slower interpreter.
//!
//! Timing goes through [`Stopwatch`] — the workspace's single
//! sanctioned wall-clock read (`ihw-lint` rule L003) — so this module
//! must live in `ihw-bench` next to the timing report.

use crate::runner::report::Stopwatch;
use gpu_sim::deps::footprints;
use gpu_sim::isa::{
    CutoverPolicy, ExecEngine, Program, WarpInterpreter, DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS,
};
use ihw_core::config::IhwConfig;

/// Default output filename (workspace root, committed as a perf record).
pub const BENCH_FILE: &str = "BENCH_kernel_throughput.json";

/// Schema tag of the benchmark JSON document.
pub const SCHEMA: &str = "ihw-racebench/3";

/// Default worker budget before clamping to the host.
pub const DEFAULT_WORKERS: usize = 8;

/// One kernel × config measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Kernel name.
    pub kernel: String,
    /// Config label (as in `ihw_analyze::stock_configs`).
    pub config: String,
    /// Engine label the sequential and parallel measurements ran on
    /// (always `compiled`).
    pub engine: String,
    /// One-time `(Program, IhwConfig)` plan-lowering seconds.
    pub compile_seconds: f64,
    /// Best-of-N **interpreted**-sequential launch seconds — the
    /// engine-independent reference everything is compared against.
    pub interp_seconds: f64,
    /// Best-of-N compiled-sequential launch seconds.
    pub sequential_seconds: f64,
    /// Best-of-N compiled-parallel launch seconds (same thread count).
    pub parallel_seconds: f64,
    /// `sequential_seconds / parallel_seconds` — what fanning out buys.
    pub speedup: f64,
    /// `interp_seconds / sequential_seconds` — what the compiled
    /// engine buys over per-thread re-interpretation.
    pub speedup_vs_interp: f64,
    /// Whether the compiled-parallel launch actually took a parallel
    /// path (it falls back to sequential unless the direct-write proof
    /// holds and the cutover estimate favours fanning out).
    pub parallel_used: bool,
    /// Launch-path label from [`gpu_sim::isa::LaunchDecision::label`]:
    /// `direct` when parallel, `cutover` / `unproven` / `sequential`
    /// when the launch stayed on one thread.
    pub path: String,
    /// Whether all three runs (interpreted-sequential,
    /// compiled-sequential, compiled-parallel) matched bit-for-bit in
    /// buffers and count-for-count in op counters.
    pub bit_identical: bool,
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Engine label every row ran on.
    pub engine: String,
    /// Threads per launch.
    pub threads: u32,
    /// Worker budget of the parallel runs.
    pub workers: usize,
    /// Whether the default worker budget was reduced to the host's
    /// `available_parallelism()` (never true when `--workers` is
    /// explicit — an override is honoured verbatim).
    pub workers_clamped: bool,
    /// Repetitions per measurement (best-of).
    pub repeats: u32,
    /// `std::thread::available_parallelism()` of the measuring host —
    /// parallel speedup is bounded above by this, so a 1-core CI box
    /// recording ~1.0× is expected, not a regression.
    pub host_parallelism: usize,
    /// Adaptive-cutover threshold (estimated launch ops below which
    /// the interpreter stays sequential) used for every measurement.
    pub overhead_ops: u64,
    /// Per kernel × config rows.
    pub rows: Vec<ThroughputRow>,
}

/// Knobs for one [`measure`] call.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Threads per launch.
    pub threads: u32,
    /// Worker budget for the parallel interpreter.
    pub workers: usize,
    /// Best-of repetitions.
    pub repeats: u32,
    /// Cutover policy for the parallel interpreter (the CLI benchmarks
    /// the production `Adaptive` policy; unit tests force a side).
    pub cutover: CutoverPolicy,
    /// Adaptive-cutover threshold in estimated ops.
    pub overhead_ops: u64,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        Self {
            threads: 1 << 15,
            workers: DEFAULT_WORKERS,
            repeats: 3,
            cutover: CutoverPolicy::Adaptive,
            overhead_ops: DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS,
        }
    }
}

/// Deterministic well-conditioned inputs: every element in `[0.5, 1)`,
/// buffers sized by the kernel's own footprint
/// ([`gpu_sim::deps::Footprint::required_len`]) so strided reads stay
/// in bounds at any thread count.
pub fn seed_buffers(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
    let fps = footprints(prog);
    let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
    (0..n_bufs)
        .map(|b| {
            let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
            (0..len)
                .map(|i| 0.5 + ((i * 37 + b * 11) % 512) as f32 / 1024.0)
                .collect()
        })
        .collect()
}

/// Times one closure best-of-`repeats`.
fn best_of<F: FnMut()>(repeats: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let sw = Stopwatch::start();
        f();
        best = best.min(sw.elapsed_seconds());
    }
    best
}

/// Estimates the adaptive-cutover threshold for this host:
/// the number of launch ops whose sequential execution costs about as
/// much as one parallel fan-out.
///
/// Method: measure sequential ops/second on a large saxpy launch, then
/// measure how much longer a *tiny* forced-parallel launch takes than
/// the same launch run sequentially — at 64 threads the work is
/// negligible, so the difference is almost pure pool/merge overhead.
/// The product converts that overhead into the op-count denomination
/// `gpu-sim` uses (it may not read the clock itself, `ihw-lint` rule
/// L003 — so the calibration lives here and the result is handed over
/// via `set_parallel_overhead_ops`).
///
/// Falls back to [`DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS`] when
/// `workers <= 1` (nothing to calibrate) or the timings are degenerate.
pub fn calibrate_overhead_ops(workers: usize, repeats: u32) -> u64 {
    if workers <= 1 {
        return DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS;
    }
    let prog = gpu_sim::programs::saxpy(2.0);
    let cfg = IhwConfig::default();
    let reps = repeats.clamp(2, 5);

    // Sequential ops/second at a size large enough to swamp timer noise.
    let big: u32 = 1 << 14;
    let big_base = seed_buffers(&prog, big);
    let mut seq_big = WarpInterpreter::new(cfg);
    let seq_big_seconds = best_of(reps, || {
        let mut bufs = big_base.clone();
        seq_big.launch(&prog, big, &mut bufs).expect("saxpy runs");
    });
    let ops = prog.instrs().len() as f64 * f64::from(big);
    let ops_per_second = ops / seq_big_seconds.max(1e-9);

    // A tiny forced-parallel launch is almost pure fan-out overhead.
    let tiny: u32 = 64;
    let tiny_base = seed_buffers(&prog, tiny);
    let mut par = WarpInterpreter::new(cfg)
        .with_workers(workers)
        .with_cutover(CutoverPolicy::ForceParallel);
    let par_tiny_seconds = best_of(reps, || {
        let mut bufs = tiny_base.clone();
        par.launch(&prog, tiny, &mut bufs).expect("saxpy runs");
    });
    let mut seq_tiny = WarpInterpreter::new(cfg);
    let seq_tiny_seconds = best_of(reps, || {
        let mut bufs = tiny_base.clone();
        seq_tiny.launch(&prog, tiny, &mut bufs).expect("saxpy runs");
    });

    let overhead_seconds = (par_tiny_seconds - seq_tiny_seconds).max(0.0);
    let estimate = (overhead_seconds * ops_per_second).round();
    if estimate.is_finite() {
        estimate.max(1.0) as u64
    } else {
        DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS
    }
}

/// Measures one kernel under one config: the interpreted-sequential
/// reference, then compiled-sequential and compiled-parallel launches over
/// the same inputs, asserting nothing — the three-way bit-identity
/// verdict is recorded in the row (the differential test suite is the
/// enforcing gate; the benchmark only reports).
pub fn measure(prog: &Program, cfg: &IhwConfig, label: &str, opts: MeasureOpts) -> ThroughputRow {
    let MeasureOpts {
        threads,
        workers,
        repeats,
        cutover,
        overhead_ops,
    } = opts;
    let base = seed_buffers(prog, threads);

    // Interpreted-sequential reference (engine-independent semantics).
    let mut ref_bufs = Vec::new();
    let mut ref_interp = WarpInterpreter::new(*cfg).with_engine(ExecEngine::Interpreted);
    let interp_seconds = best_of(repeats, || {
        let mut bufs = base.clone();
        ref_interp.reset_counters();
        ref_interp
            .launch_sequential(prog, threads, &mut bufs)
            .expect("stock kernels run");
        ref_bufs = bufs;
    });

    // One-time lowering cost (the plan cache amortizes this away; it
    // is timed separately so the record keeps it honest).
    let sw = Stopwatch::start();
    let plan = gpu_sim::plan::compile(prog, cfg);
    let compile_seconds = sw.elapsed_seconds();
    assert_eq!(plan.len(), prog.instrs().len());

    // Compiled-sequential: worker budget 1 keeps `launch` on the
    // sequential body. One warm-up launch populates the plan cache so
    // the timed loop measures steady state.
    let mut seq_bufs = Vec::new();
    let mut seq_interp = WarpInterpreter::new(*cfg);
    {
        let mut bufs = base.clone();
        seq_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        seq_interp.reset_counters();
    }
    let sequential_seconds = best_of(repeats, || {
        let mut bufs = base.clone();
        seq_interp.reset_counters();
        seq_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        seq_bufs = bufs;
    });

    // Compiled-parallel: full worker budget.
    let mut par_bufs = Vec::new();
    let mut par_interp = WarpInterpreter::new(*cfg)
        .with_workers(workers)
        .with_cutover(cutover);
    par_interp.set_parallel_overhead_ops(overhead_ops);
    {
        let mut bufs = base.clone();
        par_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        par_interp.reset_counters();
    }
    let parallel_seconds = best_of(repeats, || {
        let mut bufs = base.clone();
        par_interp.reset_counters();
        par_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        par_bufs = bufs;
    });

    let bits = |bufs: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        bufs.iter()
            .map(|b| b.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let ctx_equal = |a: &WarpInterpreter, b: &WarpInterpreter| {
        a.ctx().counts() == b.ctx().counts()
            && a.ctx().int_ops() == b.ctx().int_ops()
            && a.ctx().mem_ops() == b.ctx().mem_ops()
            && a.ctx().precise_mul_ops() == b.ctx().precise_mul_ops()
    };
    let ref_bits = bits(&ref_bufs);
    let bit_identical = ref_bits == bits(&seq_bufs)
        && ref_bits == bits(&par_bufs)
        && ctx_equal(&ref_interp, &seq_interp)
        && ctx_equal(&ref_interp, &par_interp);

    let stats = par_interp.last_launch_stats();
    ThroughputRow {
        kernel: prog.name().to_string(),
        config: label.to_string(),
        engine: ExecEngine::Compiled.label().to_string(),
        compile_seconds,
        interp_seconds,
        sequential_seconds,
        parallel_seconds,
        speedup: sequential_seconds / parallel_seconds.max(1e-12),
        speedup_vs_interp: interp_seconds / sequential_seconds.max(1e-12),
        parallel_used: stats.decision.is_parallel(),
        path: stats.decision.label().to_string(),
        bit_identical,
    }
}

/// Runs the benchmark over every stock kernel × stock config under the
/// production `Adaptive` cutover, calibrating the overhead threshold
/// once up front.
pub fn run_stock(threads: u32, workers: usize, repeats: u32) -> ThroughputReport {
    let overhead_ops = calibrate_overhead_ops(workers, repeats);
    let mut rows = Vec::new();
    for prog in ihw_analyze::stock_kernels() {
        for (label, cfg) in ihw_analyze::stock_configs() {
            rows.push(measure(
                &prog,
                &cfg,
                label,
                MeasureOpts {
                    threads,
                    workers,
                    repeats,
                    cutover: CutoverPolicy::Adaptive,
                    overhead_ops,
                },
            ));
        }
    }
    ThroughputReport {
        engine: ExecEngine::Compiled.label().to_string(),
        threads,
        workers,
        workers_clamped: false,
        repeats,
        host_parallelism: host_parallelism(),
        overhead_ops,
        rows,
    }
}

/// `available_parallelism()` with a floor of 1.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ThroughputReport {
    /// Geometric mean of `speedup_vs_interp` across the rows — the
    /// headline engine-vs-interpreter number the CI floor gates.
    pub fn geomean_speedup_vs_interp(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .rows
            .iter()
            .map(|r| r.speedup_vs_interp.max(1e-12).ln())
            .sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== kernel throughput: {} engine, {} threads, {} workers{}, best of {}, \
             host parallelism {}, cutover {} ops ==\n",
            self.engine,
            self.threads,
            self.workers,
            if self.workers_clamped {
                " (clamped to host)"
            } else {
                ""
            },
            self.repeats,
            self.host_parallelism,
            self.overhead_ops,
        ));
        out.push_str(&format!(
            "{:<12} {:<16} {:>12} {:>12} {:>12} {:>9} {:>8} {:>10} {:>9}\n",
            "kernel",
            "config",
            "interp (s)",
            "seq (s)",
            "par (s)",
            "vs-interp",
            "speedup",
            "path",
            "bitexact"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:<16} {:>12.6} {:>12.6} {:>12.6} {:>8.2}x {:>7.2}x {:>10} {:>9}\n",
                r.kernel,
                r.config,
                r.interp_seconds,
                r.sequential_seconds,
                r.parallel_seconds,
                r.speedup_vs_interp,
                r.speedup,
                r.path,
                if r.bit_identical { "yes" } else { "NO" },
            ));
        }
        out.push_str(&format!(
            "geomean {} speedup vs interpreted-sequential: {:.2}x\n",
            self.engine,
            self.geomean_speedup_vs_interp()
        ));
        out
    }

    /// Stable JSON document (hand-rolled; the workspace `serde` shim is
    /// marker-only).
    pub fn to_json(&self) -> String {
        let f = |x: f64| {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "0.0".to_owned()
            }
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"engine\": \"{}\",\n", self.engine));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"workers_clamped\": {},\n",
            self.workers_clamped
        ));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!("  \"overhead_ops\": {},\n", self.overhead_ops));
        out.push_str(&format!(
            "  \"geomean_speedup_vs_interp\": {},\n",
            f(self.geomean_speedup_vs_interp())
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"kernel\": \"{}\", \"config\": \"{}\", \"engine\": \"{}\", \
                 \"compile_seconds\": {}, \"interp_seconds\": {}, \
                 \"sequential_seconds\": {}, \"parallel_seconds\": {}, \
                 \"speedup\": {}, \"speedup_vs_interp\": {}, \
                 \"parallel_used\": {}, \"path\": \"{}\", \
                 \"bit_identical\": {} }}{comma}\n",
                r.kernel,
                r.config,
                r.engine,
                f(r.compile_seconds),
                f(r.interp_seconds),
                f(r.sequential_seconds),
                f(r.parallel_seconds),
                f(r.speedup),
                f(r.speedup_vs_interp),
                r.parallel_used,
                r.path,
                r.bit_identical,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// CLI for `repro racecheck --bench`: runs the benchmark, prints the
/// table and writes the JSON record. Returns the process exit code
/// (non-zero when any row is not bit-identical; with `--min-speedup`,
/// when any row that fanned out failed to pay for itself; with
/// `--min-compiled-speedup`, when the geomean engine-vs-interpreted
/// speedup falls below the recorded floor).
pub fn run_cli(args: &[String]) -> i32 {
    let mut threads: u32 = 1 << 15;
    let mut workers: Option<usize> = None;
    let mut repeats: u32 = 3;
    let mut min_speedup: Option<f64> = None;
    let mut min_compiled_speedup: Option<f64> = None;
    let mut out_path = std::path::PathBuf::from(BENCH_FILE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {}
            "--threads"
            | "--workers"
            | "--repeats"
            | "--min-speedup"
            | "--min-compiled-speedup"
            | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} expects a value");
                    return 2;
                };
                // Counts are rejected at 0 with a diagnostic — never
                // silently clamped (`--workers 0` used to become 1
                // here while `repro serve` rejected it; the
                // subcommands now agree). The *default* budget is
                // still clamped to the host, and that clamp is
                // reported as `workers_clamped` in the record.
                let ok = match arg.as_str() {
                    "--threads" | "--workers" | "--repeats" => match value.parse::<u64>() {
                        Ok(v) if v >= 1 => {
                            match arg.as_str() {
                                "--threads" => threads = v.min(u64::from(u32::MAX)) as u32,
                                "--workers" => workers = Some(v as usize),
                                _ => repeats = v.min(u64::from(u32::MAX)) as u32,
                            }
                            true
                        }
                        _ => {
                            eprintln!("{arg} expects a positive integer, got '{value}'");
                            return 2;
                        }
                    },
                    "--min-speedup" => value
                        .parse()
                        .map(|v: f64| min_speedup = Some(v.max(0.0)))
                        .is_ok(),
                    "--min-compiled-speedup" => value
                        .parse()
                        .map(|v: f64| min_compiled_speedup = Some(v.max(0.0)))
                        .is_ok(),
                    _ => {
                        out_path = std::path::PathBuf::from(value);
                        true
                    }
                };
                if !ok {
                    eprintln!("{arg} expects a number, got '{value}'");
                    return 2;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro racecheck --bench [--threads N] [--workers N] \
                     [--repeats N] [--min-speedup X] [--min-compiled-speedup X] \
                     [--out FILE]\n\
                     \n\
                     The default worker budget ({DEFAULT_WORKERS}) is clamped to the host's\n\
                     available parallelism; pass --workers to override the clamp.\n\
                     All counts must be positive — 0 is rejected, not clamped.\n\
                     --min-speedup X fails the run (exit 1) when any row that took a\n\
                     parallel path recorded a speedup below X.\n\
                     --min-compiled-speedup X fails the run (exit 1) when the geomean\n\
                     compiled-vs-interpreted sequential speedup falls below X."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }
    let host = host_parallelism();
    let (workers, workers_clamped) = match workers {
        Some(w) => (w, false),
        None => (DEFAULT_WORKERS.min(host).max(1), host < DEFAULT_WORKERS),
    };
    let mut report = run_stock(threads, workers, repeats);
    report.workers_clamped = workers_clamped;
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return 2;
    }
    println!("throughput record written to {}", out_path.display());
    if !report.rows.iter().all(|r| r.bit_identical) {
        eprintln!("engine run diverged from the interpreted reference — see table above");
        return 1;
    }
    if let Some(min) = min_speedup {
        let losers: Vec<&ThroughputRow> = report
            .rows
            .iter()
            .filter(|r| r.parallel_used && r.speedup < min)
            .collect();
        if !losers.is_empty() {
            for r in &losers {
                eprintln!(
                    "bench-sanity: {} × {} took the {} path but only reached \
                     {:.2}x (< {min:.2}x)",
                    r.kernel, r.config, r.path, r.speedup
                );
            }
            eprintln!(
                "bench-sanity: {} parallel row(s) below --min-speedup {min:.2} — \
                 the proof-gated launch is not paying for itself",
                losers.len()
            );
            return 1;
        }
    }
    if let Some(min) = min_compiled_speedup {
        let geomean = report.geomean_speedup_vs_interp();
        if geomean < min {
            eprintln!(
                "bench-compiled: geomean {} speedup vs interpreted-sequential is \
                 {geomean:.2}x, below the recorded floor {min:.2}x — the \
                 config-compiled execution path has regressed",
                report.engine
            );
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    #[test]
    fn seed_buffers_cover_strided_footprints() {
        let prog = programs::dot_partial(4);
        let bufs = seed_buffers(&prog, 16);
        assert_eq!(bufs.len(), 3);
        assert_eq!(bufs[0].len(), 16 + 3, "x covers tid..tid+4 strips");
        assert_eq!(bufs[2].len(), 16);
        assert!(bufs[0].iter().all(|&v| (0.5..1.0).contains(&v)));
    }

    #[test]
    fn measure_is_bit_identical_and_parallel() {
        let prog = programs::saxpy(2.0);
        let row = measure(
            &prog,
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            MeasureOpts {
                threads: 256,
                workers: 4,
                repeats: 1,
                cutover: CutoverPolicy::ForceParallel,
                overhead_ops: 1,
            },
        );
        assert!(row.bit_identical, "all three runs must match");
        assert!(row.parallel_used, "saxpy is thread-independent");
        assert_eq!(row.path, "direct", "saxpy stores are affine own-slot");
        assert_eq!(row.engine, "compiled");
        assert!(row.compile_seconds >= 0.0);
        assert!(row.sequential_seconds >= 0.0 && row.parallel_seconds >= 0.0);
    }

    #[test]
    fn forced_sequential_records_the_cutover_path() {
        let prog = programs::saxpy(2.0);
        let row = measure(
            &prog,
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            MeasureOpts {
                threads: 64,
                workers: 4,
                repeats: 1,
                cutover: CutoverPolicy::ForceSequential,
                overhead_ops: 1,
            },
        );
        assert!(!row.parallel_used);
        assert_eq!(row.path, "cutover");
        assert!(row.bit_identical, "sequential fallback is trivially exact");
    }

    #[test]
    fn json_record_shape() {
        let report = run_stock(64, 2, 1);
        assert_eq!(report.rows.len(), 4 * 5, "kernels × configs");
        assert!(report.rows.iter().all(|r| r.bit_identical));
        assert!(report.geomean_speedup_vs_interp() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ihw-racebench/3\""));
        assert!(json.contains("\"engine\": \"compiled\""));
        assert!(json.contains("\"compile_seconds\""));
        assert!(json.contains("\"interp_seconds\""));
        assert!(json.contains("\"speedup_vs_interp\""));
        assert!(json.contains("\"geomean_speedup_vs_interp\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"workers_clamped\": false"));
        assert!(json.contains("\"overhead_ops\""));
        assert!(json.contains("\"path\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
