//! Property test for the racecheck verdicts: on random affine kernels
//! the symbolic analysis must agree with a brute-force concrete
//! footprint intersection at small thread counts.
//!
//! With access offsets drawn from `tid−2 … tid+3` and broadcast
//! elements `0 … 4`, every symbolic dependence has a concrete witness
//! among the first 16 threads (the witness tid difference is bounded by
//! the offset spread), so at `T = 16` the two sides are *equivalent*,
//! not just one-sided:
//!
//! * `ThreadIndependent` ⇔ the brute-force intersection is empty;
//! * the brute-force WW / carried flags match the dependence kinds the
//!   analysis reports.

use imprecise_gpgpu::analyze::deps::{brute_force_conflicts, racecheck, DepKind, Verdict};
use imprecise_gpgpu::sim::isa::{AddrMode, Instr, Program, Reg};
use proptest::collection::vec;
use proptest::prelude::*;

/// One random memory access: load or store, buffer 0–2, affine mode.
fn access() -> impl Strategy<Value = (bool, usize, AddrMode)> {
    (any::<bool>(), 0usize..3, 0u8..3, -2i64..4, 0usize..5).prop_map(
        |(store, buf, kind, off, abs)| {
            let mode = match kind {
                0 => AddrMode::Tid,
                1 => AddrMode::TidPlus(off),
                _ => AddrMode::Abs(abs),
            };
            (store, buf, mode)
        },
    )
}

/// Straight-line kernel from an access list: loads into `r1`, stores
/// from the constant in `r0`.
fn build(accesses: &[(bool, usize, AddrMode)]) -> Program {
    let mut instrs = vec![Instr::Movi(Reg(0), 1.0)];
    for &(store, buf, mode) in accesses {
        instrs.push(if store {
            Instr::St(buf, mode, Reg(0))
        } else {
            Instr::Ld(Reg(1), buf, mode)
        });
    }
    Program::new("affine_rand", 2, instrs).expect("valid program")
}

proptest! {
    #[test]
    fn symbolic_verdict_matches_brute_force(accesses in vec(access(), 1..8)) {
        let prog = build(&accesses);
        let report = racecheck(&prog);

        // The whole AddrMode language is affine: Unknown is unreachable.
        prop_assert_ne!(report.verdict, Verdict::Unknown);

        let brute = brute_force_conflicts(&prog, 16);
        prop_assert_eq!(
            report.verdict == Verdict::ThreadIndependent,
            !brute.any(),
            "verdict {} vs brute {:?}", report.verdict, brute
        );

        // Kind-level agreement at the witness thread count.
        let has_ww = report.dependences.iter().any(|d| matches!(d.kind, DepKind::WriteWrite { .. }));
        let has_rw = report.dependences.iter().any(|d| matches!(d.kind, DepKind::ReadWrite { .. }));
        prop_assert_eq!(has_ww, brute.write_write);
        prop_assert_eq!(has_rw, brute.carried);

        // Soundness at every smaller thread count: anything the brute
        // force sees must be covered by a reported dependence.
        for threads in 1..=8u32 {
            if brute_force_conflicts(&prog, threads).any() {
                prop_assert_ne!(report.verdict, Verdict::ThreadIndependent);
            }
        }
    }

    #[test]
    fn thread_independent_kernels_take_the_parallel_path(accesses in vec(access(), 1..6)) {
        use imprecise_gpgpu::core::prelude::IhwConfig;
        use imprecise_gpgpu::sim::deps::{footprints, store_shape};
        use imprecise_gpgpu::sim::isa::{CutoverPolicy, WarpInterpreter};

        let prog = build(&accesses);
        let report = racecheck(&prog);
        // Skip statically-OOB kernels: they fault identically either
        // way, but here we want the happy-path bit-identity too.
        prop_assume!(report.oob.is_empty());

        let threads = 12u32;
        let fps = footprints(&prog);
        let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
        let base: Vec<Vec<f32>> = (0..n_bufs)
            .map(|b| {
                let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
                (0..len).map(|i| 0.5 + (i as f32 % 7.0) / 16.0).collect()
            })
            .collect();

        let mut seq_bufs = base.clone();
        let mut seq = WarpInterpreter::new(IhwConfig::all_imprecise());
        seq.launch_sequential(&prog, threads, &mut seq_bufs).expect("in bounds");

        let mut par_bufs = base.clone();
        // ForceParallel pins the cutover decision: under Adaptive the
        // 12-thread launch is below the overhead threshold (and a
        // 1-core host never fans out), which would make the
        // proof ⇔ parallel-path equivalence below vacuous.
        let mut par = WarpInterpreter::new(IhwConfig::all_imprecise())
            .with_workers(4)
            .with_cutover(CutoverPolicy::ForceParallel);
        par.launch(&prog, threads, &mut par_bufs).expect("in bounds");

        // The direct-write proof refines a thread-independence proof;
        // independent kernels without it (write-after-read shapes)
        // stay on the sequential body.
        let direct_write = store_shape(&report).is_some();
        prop_assert!(!direct_write || report.verdict == Verdict::ThreadIndependent);
        prop_assert_eq!(
            par.last_launch_was_parallel(),
            direct_write,
            "parallel path must be taken exactly on kernels with the direct-write proof"
        );
        let bits = |bufs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            bufs.iter().map(|b| b.iter().map(|x| x.to_bits()).collect()).collect()
        };
        prop_assert_eq!(bits(&seq_bufs), bits(&par_bufs));
        prop_assert_eq!(seq.ctx().counts(), par.ctx().counts());
    }
}
