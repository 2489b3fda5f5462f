//! Concurrency gate for `SharedInterpreter`'s lock-free launches:
//! tenants launch through one shared core at the same time, so the
//! plan cache must compile a cold plan exactly once however many
//! tenants race for it, and every launch must get back its own stats
//! and buffers — never a sibling's — matching a sequential
//! `WarpInterpreter` doing the same launch alone.

use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::concurrent::{LaunchOutcome, SharedInterpreter};
use imprecise_gpgpu::sim::deps::footprints;
use imprecise_gpgpu::sim::isa::{AddrMode, Instr, LaunchDecision, Program, Reg, WarpInterpreter};
use imprecise_gpgpu::sim::programs;
use std::sync::Barrier;

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

fn bits(buffers: &[Vec<f32>]) -> Vec<Vec<u32>> {
    buffers
        .iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn concurrent_cold_launches_compile_once() {
    const TENANTS: usize = 8;
    let shared = SharedInterpreter::new();
    let prog = programs::distance();
    let cfg = IhwConfig::ray_basic();
    let threads = 256;
    let start = Barrier::new(TENANTS);
    let outcomes: Vec<LaunchOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    shared.launch(&prog, &cfg, threads, seed_buffers(&prog, threads))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let stats = shared.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.len),
        (1, TENANTS as u64 - 1, 1),
        "one compile, every other tenant a hit: {stats:?}"
    );
    for o in &outcomes {
        assert!(o.result.is_ok());
        assert_eq!(bits(&o.buffers), bits(&outcomes[0].buffers));
    }
}

#[test]
fn per_launch_stats_stay_with_their_own_launch() {
    const WORKERS: usize = 4;
    const REPEATS: usize = 6;
    // Reads its right neighbour, then overwrites its own element: no
    // direct-write proof, so it never fans out.
    let shift = Program::new(
        "shift",
        1,
        vec![
            Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
            Instr::St(0, AddrMode::Tid, Reg(0)),
        ],
    )
    .expect("valid");
    // Distinct thread counts, configs and decisions per tenant: a
    // small launch below the cutover, a large one above it, an
    // unproven kernel, and a single-thread launch.
    let tenants: Vec<(Program, IhwConfig, u32)> = vec![
        (programs::saxpy(2.0), IhwConfig::precise(), 64),
        (programs::distance(), IhwConfig::all_imprecise(), 65_536),
        (shift, IhwConfig::ray_basic(), 300),
        (programs::rsqrt_norm(), IhwConfig::ray_with_ac_mul(19), 1),
    ];
    let reference: Vec<_> = tenants
        .iter()
        .map(|(prog, cfg, threads)| {
            let mut sim = WarpInterpreter::new(*cfg).with_workers(WORKERS);
            let mut buffers = seed_buffers(prog, *threads);
            sim.launch(prog, *threads, &mut buffers).expect("in bounds");
            (sim.last_launch_stats(), bits(&buffers))
        })
        .collect();
    let decisions: Vec<LaunchDecision> = reference.iter().map(|(s, _)| s.decision).collect();
    assert_eq!(decisions[0], LaunchDecision::SequentialCutover);
    assert_eq!(decisions[2], LaunchDecision::SequentialUnproven);
    assert_eq!(decisions[3], LaunchDecision::SequentialBudget);

    let shared = SharedInterpreter::from_interpreter(
        WarpInterpreter::new(IhwConfig::precise()).with_workers(WORKERS),
    );
    let start = Barrier::new(tenants.len());
    std::thread::scope(|s| {
        for ((prog, cfg, threads), (want_stats, want_bits)) in tenants.iter().zip(&reference) {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..REPEATS {
                    let out = shared.launch(prog, cfg, *threads, seed_buffers(prog, *threads));
                    assert!(out.result.is_ok(), "{}: {:?}", prog.name(), out.result);
                    assert_eq!(out.stats, *want_stats, "{}: stats", prog.name());
                    assert_eq!(bits(&out.buffers), *want_bits, "{}: buffers", prog.name());
                }
            });
        }
    });
}
