//! The repository's benchmark: four workloads, their end-to-end metrics,
//! and a traced run that breaks them down layer by layer.
//!
//! ```text
//! ihw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --repro <path to repro> --out-dir <dir>
//! ```
//!
//! `perfbench/run.py` builds this binary and `repro`, then runs it; see
//! `perfbench/README.md` for the workloads and metrics. The last line of
//! standard output is the result as one JSON object.

#![forbid(unsafe_code)]

mod calib;
mod layers;
mod repro_load;
mod rng;
mod serve_load;
mod solver_load;
mod stats;
mod trace;

use ihw_bench::runner::report::Stopwatch;
use stats::Samples;
use std::path::PathBuf;
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "paper-repro",
    "serve-distinct",
    "serve-coalesced",
    "solver-converge",
];

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    /// Host parallelism: tenant count, `--jobs` and worker budget.
    pub nproc: usize,
    pub repro: PathBuf,
    pub out_dir: PathBuf,
}

/// Measurements and checks of one workload run.
pub struct Run {
    /// Set-up repetitions, each without operations.
    pub setup: Vec<Pass>,
    /// Timed passes, in the order they ran.
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// A count that should repeat exactly did not: the program changed.
    pub drifted: bool,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// Threads the workload loads; the calibration runs on as many.
    load_threads: usize,
    /// Seconds of every calibration so far.
    calibrations: Vec<f64>,
    /// Seconds of passes since the latest calibration.
    since_calibration: f64,
}

/// One timed batch of the workload's work: a set-up or a pass.
pub struct Pass {
    pub seconds: f64,
    /// Seconds per operation: a request, or the whole pass where the
    /// workload has no finer operation.
    pub ops: Vec<f64>,
    /// Reference ÷ measured seconds of the calibration before it.
    pub scale: f64,
}

impl Run {
    pub fn new(load_threads: usize) -> Self {
        let mut run = Run {
            setup: Vec::new(),
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            drifted: false,
            problems: Vec::new(),
            notes: Vec::new(),
            load_threads,
            calibrations: Vec::new(),
            since_calibration: 0.0,
        };
        run.calibrate();
        run
    }

    fn calibrate(&mut self) {
        self.calibrations.push(calib::measure(self.load_threads));
        self.since_calibration = 0.0;
    }

    /// Reference ÷ measured seconds of the latest calibration.
    fn scale(&self) -> f64 {
        calib::REFERENCE_S / self.calibrations.last().expect("calibrated at creation")
    }

    /// Times one set-up repetition, right after a calibration.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calibrate();
        let sw = Stopwatch::start();
        let out = f();
        let seconds = sw.elapsed_seconds();
        let scale = self.scale();
        self.setup.push(Pass {
            seconds,
            ops: Vec::new(),
            scale,
        });
        out
    }

    /// Records a pass with the calibration before it, and calibrates
    /// again once `calib::INTERVAL_S` of passes have run.
    pub fn pass(&mut self, seconds: f64, ops: Vec<f64>) {
        let scale = self.scale();
        self.passes.push(Pass {
            seconds,
            ops,
            scale,
        });
        self.since_calibration += seconds;
        if self.since_calibration >= calib::INTERVAL_S {
            self.calibrate();
        }
    }

    /// Seconds spent inside timed passes so far.
    pub fn timed(&self) -> f64 {
        self.passes.iter().map(|p| p.seconds).sum()
    }

    pub fn fail(&mut self, why: String) {
        self.fail_n(1, why);
    }

    pub fn fail_n(&mut self, n: u64, why: String) {
        self.failed += n;
        self.problem(why);
    }

    pub fn drift(&mut self, why: String) {
        self.drifted = true;
        self.problem(why);
    }

    fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.drifted |= other.drifted;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.drifted
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run_workload(workload: &str, ctx: &Ctx, tracer: &Tracer, seconds: f64) -> Run {
    match workload {
        "paper-repro" => repro_load::run(ctx, tracer, seconds),
        "serve-distinct" => serve_load::run(ctx, true, tracer, seconds),
        "serve-coalesced" => serve_load::run(ctx, false, tracer, seconds),
        "solver-converge" => solver_load::run(tracer, seconds),
        other => unreachable!("workload {other} validated at parse time"),
    }
}

/// Seconds of a run's set-ups, passes and operations, each scaled to
/// the reference speed or, with `scaled` false, as measured.
fn summaries(run: &Run, scaled: bool) -> [Samples; 3] {
    let k = |p: &Pass| if scaled { p.scale } else { 1.0 };
    let seconds = |v: &[Pass]| Samples::new(v.iter().map(|p| p.seconds * k(p)).collect());
    let ops = run
        .passes
        .iter()
        .flat_map(|p| p.ops.iter().map(move |o| o * k(p)));
    [
        seconds(&run.setup),
        seconds(&run.passes),
        Samples::new(ops.collect()),
    ]
}

/// The end-to-end metrics of a run at the reference speed, printing
/// each sample summary as measured and as scaled.
fn end_to_end(run: &Run) -> Vec<Metric> {
    println!(
        "calibration {} (reference {} s)",
        Samples::new(run.calibrations.clone()).describe(1.0, "s"),
        calib::REFERENCE_S
    );
    for (label, scaled) in [("wall", false), ("reference", true)] {
        let [setup, passes, ops] = summaries(run, scaled);
        println!("{label:<9}  setup      {}", setup.describe(1.0, "s"));
        println!("{label:<9}  passes     {}", passes.describe(1.0, "s"));
        println!("{label:<9}  operations {}", ops.describe(1e3, "ms"));
    }
    let [setup, passes, ops] = summaries(run, true);
    let total: f64 = run.passes.iter().map(|p| p.seconds * p.scale).sum();
    vec![
        metric("setup_s", setup.median(), "s"),
        metric("pass_s", passes.median(), "s"),
        metric("req_per_s", ops.len() as f64 / total, "req/s"),
        metric("req_p50_ms", ops.median() * 1e3, "ms"),
        metric("req_p99_ms", ops.percentile(0.99) * 1e3, "ms"),
    ]
}

/// A JSON number; non-finite values (never expected) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(run: &Run, metrics: &[Metric]) {
    for p in &run.problems {
        println!("PROBLEM: {p}");
    }
    for n in &run.notes {
        println!("note: {n}");
    }
    println!(
        "failed_ratio {} ({} of {} operations failed)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    for m in metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
}

struct Args {
    workload: String,
    seconds: f64,
    trace: bool,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} expects a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}', expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed expects an unsigned integer, got '{seed}'"))?;
    let seconds = get("--seconds")?;
    let seconds = match seconds.parse::<u32>() {
        Ok(s) if s >= 1 => f64::from(s),
        _ => {
            return Err(format!(
                "--seconds expects a positive integer, got '{seconds}'"
            ))
        }
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seconds,
        trace,
        ctx: Ctx {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            repro: PathBuf::from(get("--repro")?),
            out_dir: PathBuf::from(get("--out-dir")?),
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ihw-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    ihw_bench::runner::set_jobs(ctx.nproc);
    println!(
        "workload {} seed {} seconds {} trace {} host parallelism {}",
        args.workload,
        ctx.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    if !args.trace {
        let run = run_workload(&args.workload, ctx, &Tracer::new(false), args.seconds);
        let metrics = end_to_end(&run);
        print_result(&run, &metrics);
        return;
    }

    // Traced run: the same loop untraced and traced for half the time
    // each (their difference is the tracing overhead), then the
    // per-layer probes, all recording into one span set.
    let half = args.seconds / 2.0;
    let mut run = run_workload(&args.workload, ctx, &Tracer::new(false), half);
    println!("-- untraced");
    let untraced = end_to_end(&run);
    let tracer = Tracer::new(true);
    let traced_run = run_workload(&args.workload, ctx, &tracer, half);
    println!("-- traced");
    let traced = end_to_end(&traced_run);
    run.absorb(traced_run);
    let mut metrics = layers::probe(ctx, &tracer, &mut run);
    for (t, u) in traced.iter().zip(&untraced) {
        if t.name == "pass_s" || t.name == "req_per_s" {
            let name = format!("trace.overhead_{}", t.name);
            metrics.push(metric(name, t.value - u.value, t.unit));
        }
    }
    let spans = tracer.into_spans();
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    let self_times = trace::self_times(&spans);
    println!("-- self time per span name");
    for (name, s) in &self_times {
        println!("self {name:<36} {:>12.3} ms", s * 1e3);
    }
    for layer in layers::LAYERS {
        let total: f64 = self_times
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s)
            .sum();
        metrics.push(metric(format!("self.{layer}_ms"), total * 1e3, "ms"));
    }
    let path = ctx
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, ctx.seed));
    match std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans)))
    {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => run.fail(format!("cannot write {}: {e}", path.display())),
    }
    print_result(&run, &metrics);
}
