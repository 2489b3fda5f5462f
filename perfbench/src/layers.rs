//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from the
//! outside, inside a span named `<layer>.<call>`, on fixed seeded
//! inputs. The probes are the same on every workload.

use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{metric, repro_load, serve_load, solver_load, Ctx, Metric, Run};
use gpu_sim::concurrent::SharedInterpreter;
use gpu_sim::dispatch::FpCtx;
use gpu_sim::isa::WarpInterpreter;
use ihw_analyze::contraction::{converge_configs, DEFAULT_TOL};
use ihw_analyze::{analyze_program, certify, AnalysisSettings, ConvergeVerdict};
use ihw_bench::experiments::{apps, ext, system, units};
use ihw_bench::runner::cache;
use ihw_bench::Scale;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::config::IhwConfig;
use ihw_power::library::Precision;
use ihw_workloads::solvers::{problem_for, run_solver, SolverParams};
use std::hint::black_box;

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 11] = [
    "core",
    "dispatch",
    "experiments",
    "runner",
    "pool",
    "plan",
    "launch",
    "shared",
    "serve",
    "analyze",
    "solver",
];

/// Operands per timed batch of the unit probes.
const OPERANDS: usize = 4096;

/// Times `f` at least `min_calls` times and until `budget_s` has
/// passed, each call a span tagged `op`; returns per-call seconds.
fn repeat(
    tracer: &Tracer,
    (name, parent, op): (&'static str, Option<u64>, u64),
    min_calls: usize,
    budget_s: f64,
    mut f: impl FnMut(),
) -> Samples {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < min_calls || spent < budget_s {
        let ((), s) = tracer.timed(name, parent, op, |_| f());
        spent += s;
        times.push(s);
    }
    Samples::new(times)
}

fn ns_per_op(s: &Samples) -> f64 {
    s.median() * 1e9 / OPERANDS as f64
}

/// Seeded operand pairs: both signs, exponents within ±8 binades.
fn operands(seed: u64) -> Vec<(f32, f32)> {
    let mut rng = Rng::new(seed);
    let draw = |rng: &mut Rng| {
        let m = 1.0 + rng.unit_f32();
        let e = (rng.next_u64() % 17) as i32 - 8;
        let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        sign * m * 2f32.powi(e)
    };
    (0..OPERANDS)
        .map(|_| (draw(&mut rng), draw(&mut rng)))
        .collect()
}

fn mantissa(x: f32) -> u64 {
    u64::from(x.to_bits() & 0x7f_ffff | 0x80_0000)
}

fn probe_units(ctx: &Ctx, tracer: &Tracer, out: &mut Vec<Metric>) {
    let ops = operands(ctx.seed);
    let th = match IhwConfig::all_imprecise().add {
        ihw_core::config::AddUnit::Imprecise { th } => th,
        _ => unreachable!("all_imprecise uses the imprecise adder"),
    };
    let ac = AcMulConfig::new(MulPath::Full, 19);
    tracer.span("probe.core", None, 0, |p| {
        let mut unit = |name: &'static str, metric_name: &str, f: &dyn Fn(f32, f32) -> u32| {
            let s = repeat(tracer, (name, p, 0), 20, 0.03, || {
                let acc = ops
                    .iter()
                    .fold(0u32, |acc, &(a, b)| acc ^ f(black_box(a), b));
                black_box(acc);
            });
            out.push(metric(metric_name, ns_per_op(&s), "ns/op"));
        };
        unit("core.iadd32", "core.iadd32_ns_op", &|a, b| {
            ihw_core::adder::iadd32(a, b, th).to_bits()
        });
        unit("core.imul32", "core.imul32_ns_op", &|a, b| {
            ihw_core::multiplier::imul32(a, b).to_bits()
        });
        unit("core.ac_mul32", "core.ac_mul32_t19_ns_op", &|a, b| {
            ac.mul32(a, b).to_bits()
        });
        unit("core.ircp32", "core.ircp32_ns_op", &|a, _| {
            ihw_core::sfu::ircp32(a).to_bits()
        });
        unit("core.irsqrt32", "core.irsqrt32_ns_op", &|a, _| {
            ihw_core::sfu::irsqrt32(a.abs()).to_bits()
        });
        unit("core.mitchell_mul", "core.mitchell_mul_ns_op", &|a, b| {
            ihw_core::mitchell::mitchell_mul(mantissa(a), mantissa(b)) as u32
        });
    });
    tracer.span("probe.dispatch", None, 0, |p| {
        let mut fp = FpCtx::new(IhwConfig::all_imprecise());
        let s = repeat(tracer, ("dispatch.fpctx_add32", p, 0), 20, 0.03, || {
            let acc = ops.iter().fold(0u32, |acc, &(a, b)| {
                acc ^ fp.add32(black_box(a), b).to_bits()
            });
            black_box(acc);
        });
        out.push(metric("dispatch.fpctx_add32_ns_op", ns_per_op(&s), "ns/op"));
        let s = repeat(tracer, ("dispatch.fpctx_mul32", p, 0), 20, 0.03, || {
            let acc = ops.iter().fold(0u32, |acc, &(a, b)| {
                acc ^ fp.mul32(black_box(a), b).to_bits()
            });
            black_box(acc);
        });
        out.push(metric("dispatch.fpctx_mul32_ns_op", ns_per_op(&s), "ns/op"));
    });
}

/// An experiment job of `repro all`: its span name and its calls.
type Job = (&'static str, fn(Scale));

/// The 27 experiment jobs of `repro all`.
const EXPERIMENTS: [Job; 27] = [
    ("experiments.table1", |_| drop(black_box(units::table1()))),
    ("experiments.table2", |_| drop(black_box(units::table2()))),
    ("experiments.table3", |_| drop(black_box(units::table3()))),
    ("experiments.table4", |_| drop(black_box(units::table4()))),
    ("experiments.table5", |s| {
        drop(black_box(system::table5_table(&system::table5(s))))
    }),
    ("experiments.table6", |s| drop(black_box(apps::table6(s)))),
    ("experiments.table7", |s| drop(black_box(apps::table7(s)))),
    ("experiments.fig2", |s| drop(black_box(system::fig2(s)))),
    ("experiments.fig4", |s| drop(black_box(units::fig4(s)))),
    ("experiments.fig8", |s| drop(black_box(units::fig8(s)))),
    ("experiments.fig9", |s| drop(black_box(units::fig9(s)))),
    ("experiments.fig13", |_| drop(black_box(units::fig13()))),
    ("experiments.fig14", |s| {
        drop(black_box(units::fig14(s, Precision::Single)));
        drop(black_box(units::fig14(s, Precision::Double)));
    }),
    ("experiments.fig15", |s| drop(black_box(system::fig15(s)))),
    ("experiments.fig16", |s| drop(black_box(system::fig16(s)))),
    ("experiments.fig17_18", |s| {
        drop(black_box(system::fig17_18(s)))
    }),
    ("experiments.fig19", |s| drop(black_box(apps::fig19(s)))),
    ("experiments.fig20", |s| drop(black_box(apps::fig20(s)))),
    ("experiments.fig21", |s| {
        drop(black_box(apps::fig21_art(s)));
        drop(black_box(apps::fig21_gromacs(s)));
    }),
    ("experiments.fig5", |_| drop(black_box(ext::fig5()))),
    ("experiments.dvfs", |_| {
        drop(black_box(ext::dvfs_composition()))
    }),
    ("experiments.segmented", |_| {
        drop(black_box(ext::segmented_sweep()))
    }),
    ("experiments.dualmode", |_| {
        drop(black_box(ext::dual_mode_ray()))
    }),
    ("experiments.sensitivity", |_| {
        drop(black_box(ext::sensitivity()))
    }),
    ("experiments.seeds", |_| drop(black_box(ext::seeds()))),
    ("experiments.tolerance", |_| {
        drop(black_box(ext::tolerance()))
    }),
    ("experiments.acadder", |_| {
        drop(black_box(ext::ac_adder_space()))
    }),
];

fn probe_experiments(ctx: &Ctx, tracer: &Tracer, run: &mut Run, out: &mut Vec<Metric>) {
    tracer.span("probe.experiments", None, 0, |p| {
        for (i, (name, job)) in EXPERIMENTS.iter().enumerate() {
            cache::global().clear();
            let ((), s) = tracer.timed(name, p, i as u64, |_| job(Scale::Quick));
            out.push(metric(format!("{name}_s"), s, "s"));
        }
        cache::global().clear();
    });
    // The run cache and pool as `repro all` drives them, from its own
    // timing report.
    let timings = tracer.span("probe.runner", None, 0, |p| {
        tracer.span("runner.repro_timings_all", p, 0, |_| {
            repro_load::timings(ctx)
        })
    });
    run.attempted += 1;
    let t = timings.unwrap_or_else(|why| {
        run.fail(why);
        repro_load::Timings {
            hits: 0,
            misses: 0,
            busy_ratio: f64::NAN,
        }
    });
    let total = (t.hits + t.misses).max(1) as f64;
    out.push(metric("runner.cache_hits", t.hits as f64, "count"));
    out.push(metric("runner.cache_misses", t.misses as f64, "count"));
    out.push(metric(
        "runner.cache_hit_ratio",
        t.hits as f64 / total,
        "ratio",
    ));
    out.push(metric("pool.busy_ratio", t.busy_ratio, "ratio"));
}

fn probe_pool_plan_launch(ctx: &Ctx, tracer: &Tracer, out: &mut Vec<Metric>) {
    let n = ctx.nproc;
    tracer.span("probe.pool", None, 0, |p| {
        let s = repeat(tracer, ("pool.sweep_with", p, 0), 500, 0.05, || {
            black_box(ihw_pool::sweep_with(n, vec![(); n], |()| ()));
        });
        out.push(metric("pool.fanout_us", s.median() * 1e6, "us"));
    });
    let pairs = serve_load::stock_pairs();
    tracer.span("probe.plan", None, 0, |p| {
        let per_pair: Vec<f64> = (0u64..)
            .zip(&pairs)
            .map(|(i, pair)| {
                repeat(tracer, ("plan.compile", p, i), 10, 0.0, || {
                    black_box(gpu_sim::plan::compile(&pair.program, &pair.config));
                })
                .median()
            })
            .collect();
        out.push(metric(
            "plan.compile_us",
            Samples::new(per_pair).median() * 1e6,
            "us",
        ));
    });
    tracer.span("probe.launch", None, 0, |p| {
        let mut rng = Rng::new(ctx.seed);
        let cfg = IhwConfig::all_imprecise();
        for program in ihw_analyze::stock_kernels() {
            for threads in [serve_load::SMALL, serve_load::LARGE] {
                // Relaunching over the previous outputs keeps buffer
                // copies out of the timing; the branch-free units cost
                // the same whatever the values.
                let mut buffers = serve_load::payload(&program, threads, &mut rng);
                let mut sim = WarpInterpreter::new(cfg).with_workers(n);
                let s = repeat(
                    tracer,
                    ("launch.warp", p, u64::from(threads)),
                    5,
                    0.02,
                    || {
                        sim.launch(&program, threads, &mut buffers)
                            .expect("stock kernel launches in bounds");
                    },
                );
                let est_ops = sim.last_launch_stats().est_ops as f64;
                out.push(metric(
                    format!("launch.{}_{threads}_ns_per_thread_instr", program.name()),
                    s.median() * 1e9 / est_ops,
                    "ns",
                ));
            }
        }
        let params = SolverParams {
            interior: solver_load::INTERIOR,
            ..SolverParams::default()
        };
        let problem = problem_for("jacobi_sweep", &params).expect("jacobi has a problem");
        let mut sim = WarpInterpreter::new(IhwConfig::precise());
        let mut b = problem.buffers.clone();
        let s = repeat(tracer, ("launch.small", p, 0), 500, 0.05, || {
            sim.launch(&problem.program, params.interior as u32, &mut b)
                .expect("solver launch stays in bounds");
        });
        out.push(metric("launch.small_us", s.median() * 1e6, "us"));
    });
    tracer.span("probe.shared", None, 0, |p| {
        let program = gpu_sim::programs::saxpy(2.0);
        let cfg = IhwConfig::all_imprecise();
        let buffers = serve_load::payload(&program, serve_load::SMALL, &mut Rng::new(ctx.seed));
        let shared = SharedInterpreter::from_interpreter(WarpInterpreter::new(cfg).with_workers(n));
        let call = || {
            black_box(shared.launch(&program, &cfg, serve_load::SMALL, buffers.clone()));
        };
        call();
        let alone = repeat(tracer, ("shared.launch", p, 0), 200, 0.0, call);
        // Under contention the mutex hands a caller whole runs of
        // launches, so the wait shows in the mean, not the median.
        let contended: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| repeat(tracer, ("shared.launch_contended", p, 0), 200, 0.0, call))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked").mean())
                .collect()
        });
        out.push(metric("shared.launch_us", alone.median() * 1e6, "us"));
        out.push(metric(
            "shared.wait_us",
            (Samples::new(contended).mean() - alone.mean()) * 1e6,
            "us",
        ));
    });
}

fn probe_analyze_solver(tracer: &Tracer, run: &mut Run, out: &mut Vec<Metric>) {
    let settings = AnalysisSettings::default();
    tracer.span("probe.analyze", None, 0, |p| {
        let per_pair: Vec<f64> = (0u64..)
            .zip(&serve_load::stock_pairs())
            .map(|(i, pair)| {
                repeat(tracer, ("analyze.program", p, i), 5, 0.0, || {
                    black_box(analyze_program(
                        &pair.program,
                        &pair.config,
                        pair.label,
                        &settings,
                    ));
                })
                .median()
            })
            .collect();
        out.push(metric(
            "analyze.program_us",
            Samples::new(per_pair).median() * 1e6,
            "us",
        ));
    });
    // The solverbench pass, one call at a time: certify, then solve to
    // the tolerance the certificate promises.
    tracer.span("probe.solver", None, 0, |p| {
        let base = SolverParams {
            interior: solver_load::INTERIOR,
            max_iters: solver_load::MAX_ITERS,
            ..SolverParams::default()
        };
        let (mut certify_s, mut run_s, mut launches) = (Vec::new(), Vec::new(), 0u64);
        let mut pair = 0u64;
        for kernel in ihw_analyze::solver_kernel_names() {
            let problem = problem_for(kernel, &base).expect("solver kernel has a problem");
            for (label, cfg) in converge_configs() {
                let (row, s) = tracer.timed("analyze.certify", p, pair, |_| {
                    certify(&problem.program, label, &cfg, &settings, DEFAULT_TOL)
                });
                certify_s.push(s);
                let tol = match &row.verdict {
                    ConvergeVerdict::Certified(c) => c.tol_eff,
                    ConvergeVerdict::DivergenceRisk { .. } => DEFAULT_TOL,
                };
                let params = SolverParams { tol, ..base };
                let (solved, s) = tracer.timed("solver.run_solver", p, pair, |_| {
                    run_solver(&problem, cfg, &params)
                });
                run_s.push(s);
                launches += solved.history.len() as u64 - 1;
                pair += 1;
            }
        }
        if launches != solver_load::EXPECTED_LAUNCHES {
            run.drift(format!(
                "solver pass made {launches} launches, expected {}",
                solver_load::EXPECTED_LAUNCHES
            ));
        }
        out.push(metric(
            "analyze.certify_us",
            Samples::new(certify_s).median() * 1e6,
            "us",
        ));
        out.push(metric("solver.launches", launches as f64, "count"));
        out.push(metric(
            "solver.run_ms",
            Samples::new(run_s).median() * 1e3,
            "ms",
        ));
    });
}

/// Runs every probe; returns the per-layer metrics.
pub fn probe(ctx: &Ctx, tracer: &Tracer, run: &mut Run) -> Vec<Metric> {
    let mut out = Vec::new();
    probe_units(ctx, tracer, &mut out);
    probe_experiments(ctx, tracer, run, &mut out);
    probe_pool_plan_launch(ctx, tracer, &mut out);
    out.extend(serve_load::probe(ctx, tracer, run));
    probe_analyze_solver(tracer, run, &mut out);
    out
}
