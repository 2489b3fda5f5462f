//! Three-way differential gate for the launch paths: every launch must
//! be **bit-for-bit** identical across
//!
//! 1. the interpreted-sequential reference (`launch_sequential`, the
//!    per-thread `exec_step` loop every other path is compared
//!    against),
//! 2. the compiled-sequential body (the config-compiled plan of
//!    `gpu_sim::plan` run on one worker), and
//! 3. the gated compiled launch under test (any worker budget and
//!    cutover policy, including the proof-gated parallel body)
//!
//! — output buffers, per-unit op counts, int/mem counters and dispatch
//! traces — for every stock kernel × stock config, at several worker
//! budgets, under both forced cutover policies. Kernels without the
//! direct-write proof must fall back to the sequential body, and the
//! error path (partial effects up to the faulting thread) must match
//! exactly as well. The interpreted engine is the reference oracle: it
//! never fans out, whatever the worker budget.

use imprecise_gpgpu::analyze::{stock_configs, stock_kernels};
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::deps::{footprints, racecheck, store_shape, Verdict};
use imprecise_gpgpu::sim::isa::{
    CutoverPolicy, ExecEngine, LaunchDecision, Program, WarpInterpreter,
};

/// Deterministic well-conditioned inputs sized by the kernel's own
/// footprint (mirrors `ihw_bench::racebench::seed_buffers`).
fn seed_buffers(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
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

fn bits(bufs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Asserts two interpreters agree on every accumulated counter.
fn assert_ctx_equal(a: &WarpInterpreter, b: &WarpInterpreter, tag: &str) {
    assert_eq!(
        a.ctx().counts(),
        b.ctx().counts(),
        "{tag}: op counts diverge"
    );
    assert_eq!(
        a.ctx().int_ops(),
        b.ctx().int_ops(),
        "{tag}: int ops diverge"
    );
    assert_eq!(
        a.ctx().mem_ops(),
        b.ctx().mem_ops(),
        "{tag}: mem ops diverge"
    );
    assert_eq!(
        a.ctx().precise_mul_ops(),
        b.ctx().precise_mul_ops(),
        "{tag}: precise-mul ops diverge"
    );
}

/// Runs `prog` three ways — interpreted-sequential reference,
/// compiled-sequential, and the gated compiled launch under `policy`
/// with `workers` — then asserts buffers, op counters and dispatch
/// traces are bit-identical across all three, and that the gated
/// launch recorded its engine in `LaunchStats`. Returns the decision
/// the gated launch recorded.
fn assert_differential(
    prog: &Program,
    cfg: &imprecise_gpgpu::core::config::IhwConfig,
    label: &str,
    threads: u32,
    workers: usize,
    policy: CutoverPolicy,
) -> LaunchDecision {
    let base = seed_buffers(prog, threads);
    let tag = format!("{}/{label} ({policy:?}, {workers} workers)", prog.name());

    // 1. Interpreted-sequential reference.
    let mut seq_bufs = base.clone();
    let mut seq = WarpInterpreter::new(cfg.to_owned());
    seq.enable_trace();
    seq.launch_sequential(prog, threads, &mut seq_bufs)
        .expect("sequential runs");
    let seq_trace = seq.take_trace();

    // 2. Compiled-sequential: worker budget 1 keeps `launch` on the
    // plan's sequential body.
    let mut cseq_bufs = base.clone();
    let mut cseq = WarpInterpreter::new(cfg.to_owned()).with_engine(ExecEngine::Compiled);
    cseq.enable_trace();
    cseq.launch(prog, threads, &mut cseq_bufs)
        .expect("compiled sequential runs");
    assert_eq!(
        cseq.last_launch_stats().engine,
        ExecEngine::Compiled,
        "{tag}: compiled-sequential run must record its engine"
    );
    assert_eq!(
        bits(&seq_bufs),
        bits(&cseq_bufs),
        "{tag}: compiled-sequential buffers diverge"
    );
    assert_ctx_equal(&seq, &cseq, &format!("{tag}: compiled-sequential"));
    assert_eq!(
        seq_trace,
        cseq.take_trace(),
        "{tag}: compiled-sequential traces diverge"
    );

    // 3. The gated launch under test.
    let mut par_bufs = base;
    let mut par = WarpInterpreter::new(cfg.to_owned())
        .with_workers(workers)
        .with_cutover(policy);
    par.enable_trace();
    par.launch(prog, threads, &mut par_bufs)
        .expect("gated launch runs");

    assert_eq!(bits(&seq_bufs), bits(&par_bufs), "{tag}: buffers diverge");
    assert_ctx_equal(&seq, &par, &tag);
    assert_eq!(seq_trace, par.take_trace(), "{tag}: traces diverge");
    let stats = par.last_launch_stats();
    assert_eq!(
        stats.engine,
        ExecEngine::Compiled,
        "{tag}: LaunchStats engine mismatch"
    );
    assert_eq!(
        stats.threads, threads,
        "{tag}: LaunchStats threads mismatch"
    );
    stats.decision
}

#[test]
fn parallel_is_bit_identical_for_every_stock_pair() {
    let threads = 513u32; // odd, so chunks are uneven
    for prog in stock_kernels() {
        let report = racecheck(&prog);
        assert_eq!(
            report.verdict,
            Verdict::ThreadIndependent,
            "{} must be provably parallel",
            prog.name()
        );
        assert!(
            store_shape(&report).is_some(),
            "{} stores are affine own-slot writes",
            prog.name()
        );
        for (label, cfg) in stock_configs() {
            for workers in [2usize, 3, 8] {
                let decision = assert_differential(
                    &prog,
                    &cfg,
                    label,
                    threads,
                    workers,
                    CutoverPolicy::ForceParallel,
                );
                assert_eq!(
                    decision,
                    LaunchDecision::ParallelDirect,
                    "{}/{label} at {workers} workers should take the direct path",
                    prog.name()
                );
            }
        }
    }
}

#[test]
fn forced_sequential_matches_for_every_stock_pair() {
    // The other half of the cutover matrix: with ForceSequential the
    // gated launch must behave exactly like launch_sequential even for
    // proven-independent kernels, and say why in its stats.
    let threads = 257u32;
    for prog in stock_kernels() {
        for (label, cfg) in stock_configs() {
            let decision = assert_differential(
                &prog,
                &cfg,
                label,
                threads,
                8,
                CutoverPolicy::ForceSequential,
            );
            assert_eq!(
                decision,
                LaunchDecision::SequentialCutover,
                "{}/{label} under ForceSequential",
                prog.name()
            );
        }
    }
}

#[test]
fn adaptive_cutover_keeps_tiny_launches_sequential() {
    // 64 threads × a handful of instructions is far below the default
    // overhead threshold, so Adaptive must refuse to fan out on any
    // host — and still match the reference bit-for-bit.
    for prog in stock_kernels() {
        let (label, cfg) = &stock_configs()[0];
        let decision = assert_differential(&prog, cfg, label, 64, 8, CutoverPolicy::Adaptive);
        assert!(
            !decision.is_parallel(),
            "{}: tiny launch must not pay the fan-out overhead",
            prog.name()
        );
    }
}

#[test]
fn carried_kernel_falls_back_to_sequential_and_matches() {
    // A prefix-propagation kernel: thread `t` reads what thread `t−1`
    // stored into `b1[t]` — legal sequentially, not parallelisable.
    let src = "\
.buffers 2
ld r0, b0[tid]
ld r1, b1[tid]
fadd r0, r0, r1
st b1[tid+1], r0
";
    let prog = assemble("prefix", src).expect("assembles");
    assert_eq!(racecheck(&prog).verdict, Verdict::SequentialCarried);

    let threads = 64u32;
    let base = vec![vec![0.25f32; 64], {
        let mut b = vec![0.0f32; 65];
        b[0] = 1.0;
        b
    }];
    let (_, cfg) = &stock_configs()[1];

    let mut seq_bufs = base.clone();
    let mut seq = WarpInterpreter::new(cfg.to_owned());
    seq.launch_sequential(&prog, threads, &mut seq_bufs)
        .expect("sequential runs");
    // The chain really is order-dependent: the last output accumulates
    // every earlier thread's contribution.
    assert!(seq_bufs[1][64] > 1.0);

    let mut par_bufs = base;
    let mut par = WarpInterpreter::new(cfg.to_owned())
        .with_workers(8)
        .with_cutover(CutoverPolicy::ForceParallel);
    par.launch(&prog, threads, &mut par_bufs)
        .expect("falls back and runs");

    assert!(
        !par.last_launch_was_parallel(),
        "carried kernel must stay sequential even under ForceParallel"
    );
    assert_eq!(
        par.last_launch_stats().decision,
        LaunchDecision::SequentialUnproven
    );
    assert_eq!(bits(&seq_bufs), bits(&par_bufs));
    assert_eq!(seq.ctx().counts(), par.ctx().counts());
}

#[test]
fn journal_shape_kernel_is_bit_identical() {
    // Forward shift: thread `t` reads `b0[t+1]` and writes `b0[t]`.
    // Every read belongs to a *different* thread's write slot, so the
    // kernel is proven independent but its footprint overlaps across
    // threads — there is no direct-write proof, and the launch must
    // stay on the compiled sequential body even under ForceParallel.
    let src = "\
.buffers 1
ld r0, b0[tid+1]
st b0[tid], r0
";
    let prog = assemble("fwd_shift", src).expect("assembles");
    let report = racecheck(&prog);
    assert_eq!(report.verdict, Verdict::ThreadIndependent);
    assert_eq!(store_shape(&report), None);

    let threads = 301u32;
    for (label, cfg) in stock_configs() {
        for workers in [2usize, 8] {
            let decision = assert_differential(
                &prog,
                &cfg,
                label,
                threads,
                workers,
                CutoverPolicy::ForceParallel,
            );
            assert_eq!(
                decision,
                LaunchDecision::SequentialUnproven,
                "fwd_shift/{label} at {workers} workers"
            );
        }
    }
}

#[test]
fn error_path_partial_state_is_identical() {
    // Strided read one past the end: the last thread faults. Every
    // path — compiled-sequential and the compiled parallel body —
    // must reproduce the sequential partial state: every thread before
    // the faulting one applied, nothing after.
    let src = "\
.buffers 2
ld r0, b0[tid+1]
st b1[tid], r0
";
    let prog = assemble("stride_oob", src).expect("assembles");
    assert_eq!(racecheck(&prog).verdict, Verdict::ThreadIndependent);

    let threads = 97u32;
    // b0 exactly `threads` long → thread `threads-1` reads index
    // `threads`, out of bounds.
    let base = vec![
        (0..threads).map(|i| i as f32 + 0.5).collect::<Vec<f32>>(),
        vec![0.0f32; threads as usize],
    ];
    for (label, cfg) in stock_configs() {
        let mut seq_bufs = base.clone();
        let mut seq = WarpInterpreter::new(cfg.to_owned());
        let seq_err = seq
            .launch_sequential(&prog, threads, &mut seq_bufs)
            .expect_err("last thread faults");

        // Compiled-sequential fault: precheck + scalar prefix replay.
        let mut cseq_bufs = base.clone();
        let mut cseq = WarpInterpreter::new(cfg.to_owned()).with_engine(ExecEngine::Compiled);
        let cseq_err = cseq
            .launch(&prog, threads, &mut cseq_bufs)
            .expect_err("last thread faults");
        assert_eq!(
            seq_err, cseq_err,
            "{label} compiled-sequential error diverges"
        );
        assert_eq!(
            bits(&seq_bufs),
            bits(&cseq_bufs),
            "{label} compiled-sequential partial effects diverge"
        );
        assert_eq!(seq.ctx().counts(), cseq.ctx().counts(), "{label}");

        let mut par_bufs = base.clone();
        let mut par = WarpInterpreter::new(cfg.to_owned())
            .with_workers(8)
            .with_cutover(CutoverPolicy::ForceParallel);
        let par_err = par
            .launch(&prog, threads, &mut par_bufs)
            .expect_err("last thread faults");

        assert!(par.last_launch_was_parallel(), "{label}");
        assert_eq!(seq_err, par_err, "{label} error values diverge");
        assert_eq!(
            bits(&seq_bufs),
            bits(&par_bufs),
            "{label} partial effects diverge"
        );
        assert_eq!(seq.ctx().counts(), par.ctx().counts(), "{label}");
        assert_eq!(seq.ctx().mem_ops(), par.ctx().mem_ops(), "{label}");
    }
}

#[test]
fn journal_error_path_partial_state_is_identical() {
    // Same faulting setup on the forward shift, which has no
    // direct-write proof: the compiled sequential body it falls back
    // to must also reproduce the sequential partial state.
    let src = "\
.buffers 1
ld r0, b0[tid+1]
st b0[tid], r0
";
    let prog = assemble("fwd_shift_oob", src).expect("assembles");
    let report = racecheck(&prog);
    assert_eq!(store_shape(&report), None);

    let threads = 53u32;
    // Exactly `threads` elements → the last thread's read faults.
    let base = vec![(0..threads).map(|i| i as f32 + 0.25).collect::<Vec<f32>>()];
    let (label, cfg) = &stock_configs()[2];

    let mut seq_bufs = base.clone();
    let mut seq = WarpInterpreter::new(cfg.to_owned());
    let seq_err = seq
        .launch_sequential(&prog, threads, &mut seq_bufs)
        .expect_err("last thread faults");

    let mut par_bufs = base;
    let mut par = WarpInterpreter::new(cfg.to_owned())
        .with_workers(8)
        .with_cutover(CutoverPolicy::ForceParallel);
    let par_err = par
        .launch(&prog, threads, &mut par_bufs)
        .expect_err("last thread faults");

    assert_eq!(
        par.last_launch_stats().decision,
        LaunchDecision::SequentialUnproven,
        "{label}"
    );
    assert_eq!(seq_err, par_err, "{label} error values diverge");
    assert_eq!(bits(&seq_bufs), bits(&par_bufs), "{label}");
    assert_eq!(seq.ctx().counts(), par.ctx().counts(), "{label}");
}

#[test]
fn zero_and_single_thread_launches_match() {
    // Degenerate launches must stay on the serial fast path (no pool
    // involvement) and still be differentially exact.
    let prog = stock_kernels().remove(0);
    let (label, cfg) = &stock_configs()[0];
    for threads in [0u32, 1] {
        let decision =
            assert_differential(&prog, cfg, label, threads, 8, CutoverPolicy::ForceParallel);
        assert_eq!(
            decision,
            LaunchDecision::SequentialBudget,
            "{threads}-thread launch has no parallelism to spend"
        );
    }
}

#[test]
fn worker_budget_larger_than_launch_still_matches() {
    let prog = stock_kernels().remove(0);
    let (_, cfg) = stock_configs().remove(1);
    let base = seed_buffers(&prog, 3);

    let mut seq_bufs = base.clone();
    WarpInterpreter::new(cfg.to_owned())
        .launch_sequential(&prog, 3, &mut seq_bufs)
        .expect("runs");

    let mut par_bufs = base;
    let mut par = WarpInterpreter::new(cfg.to_owned())
        .with_workers(64)
        .with_cutover(CutoverPolicy::ForceParallel);
    par.launch(&prog, 3, &mut par_bufs).expect("runs");
    assert_eq!(bits(&seq_bufs), bits(&par_bufs));
}

#[test]
fn interpreted_engine_never_fans_out() {
    // The reference engine ignores the worker budget and the cutover
    // policy: even a proven direct-write kernel under ForceParallel
    // runs `launch_sequential`, bit for bit.
    let threads = 129u32;
    for prog in stock_kernels() {
        for (label, cfg) in stock_configs() {
            let base = seed_buffers(&prog, threads);
            let mut seq_bufs = base.clone();
            let mut seq = WarpInterpreter::new(cfg.to_owned());
            seq.enable_trace();
            seq.launch_sequential(&prog, threads, &mut seq_bufs)
                .expect("sequential runs");

            let mut ref_bufs = base;
            let mut reference = WarpInterpreter::new(cfg.to_owned())
                .with_engine(ExecEngine::Interpreted)
                .with_workers(8)
                .with_cutover(CutoverPolicy::ForceParallel);
            reference.enable_trace();
            reference
                .launch(&prog, threads, &mut ref_bufs)
                .expect("reference runs");

            let tag = format!("{}/{label}", prog.name());
            let stats = reference.last_launch_stats();
            assert!(!stats.decision.is_parallel(), "{tag}: never fans out");
            assert_eq!(stats.decision, LaunchDecision::SequentialBudget, "{tag}");
            assert_eq!(stats.engine, ExecEngine::Interpreted, "{tag}");
            assert_eq!(bits(&seq_bufs), bits(&ref_bufs), "{tag}: buffers diverge");
            assert_ctx_equal(&seq, &reference, &tag);
            assert_eq!(seq.take_trace(), reference.take_trace(), "{tag}: traces");
        }
    }
}
