//! # ihw-error — error analysis and characterization (Chapter 4)
//!
//! Empirical error characterization of imprecise arithmetic units: the
//! log₂-binned error probability mass functions of Figures 8 and 9, plus
//! the summary statistics the paper uses to guide quality tuning (error
//! rate, maximum/mean error percentage, mean and worst error distance).
//!
//! Inputs are generated with the quasi-Monte Carlo sequences from
//! [`ihw_qmc`], exactly as §4.2 prescribes; sampling is parallelised with
//! `std::thread::scope` workers so the paper's 200-million-input runs
//! remain tractable.
//!
//! ```
//! use ihw_error::{characterize, CharTarget};
//!
//! let pmf = characterize(CharTarget::IfpMul, 10_000);
//! // The Table 1 multiplier errs on almost every input…
//! assert!(pmf.error_rate() > 0.9);
//! // …but never by more than 25%.
//! assert!(pmf.max_error_pct() <= 25.0 + 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pmf;
pub mod targets;

pub use pmf::ErrorPmf;
pub use targets::{
    characterize, characterize64, characterize_with_offset, convergence, CharTarget,
};

use ihw_qmc::Halton;

/// Characterizes an arbitrary binary `f32` operation against a reference.
///
/// `approx` is the unit under test; `exact` is the reference computed in
/// double precision from the same (single precision) inputs. Operands are
/// drawn quasi-randomly from `(0, 1)`, the coverage range §4.2 argues is
/// sufficient because the imprecise algorithms do not disturb exponent
/// arithmetic.
pub fn characterize_binary_f32(
    approx: impl Fn(f32, f32) -> f32 + Sync,
    exact: impl Fn(f64, f64) -> f64 + Sync,
    samples: u64,
    seq_offset: u64,
) -> ErrorPmf {
    characterize_points::<2>(samples, seq_offset, |pmf, p| {
        let a = p[0] as f32;
        let b = p[1] as f32;
        if a == 0.0 || b == 0.0 {
            return;
        }
        let e = exact(a as f64, b as f64);
        pmf.record(approx(a, b) as f64, e);
    })
}

/// Characterizes an arbitrary unary `f32` operation against a reference;
/// see [`characterize_binary_f32`].
pub fn characterize_unary_f32(
    approx: impl Fn(f32) -> f32 + Sync,
    exact: impl Fn(f64) -> f64 + Sync,
    samples: u64,
    seq_offset: u64,
) -> ErrorPmf {
    characterize_points::<1>(samples, seq_offset, |pmf, p| {
        let x = p[0] as f32;
        if x == 0.0 {
            return;
        }
        pmf.record(approx(x) as f64, exact(x as f64));
    })
}

/// Characterizes an arbitrary binary `f64` operation against an `f64`
/// reference (for the double precision units of Figure 14b / §5.3.2).
///
/// The reference is taken as correct: for the f64 units the paper also
/// compares against the IEEE double result, whose own rounding error is
/// ~16 orders of magnitude below the imprecise units' errors.
pub fn characterize_binary_f64(
    approx: impl Fn(f64, f64) -> f64 + Sync,
    exact: impl Fn(f64, f64) -> f64 + Sync,
    samples: u64,
    seq_offset: u64,
) -> ErrorPmf {
    characterize_points::<2>(samples, seq_offset, |pmf, p| {
        let (a, b) = (p[0], p[1]);
        if a == 0.0 || b == 0.0 {
            return;
        }
        pmf.record(approx(a, b), exact(a, b));
    })
}

/// Feeds Halton points `1 + seq_offset ..` (`samples` of them) to
/// `record`. The points are split into one contiguous chunk per worker
/// (the last chunk takes the remainder), each chunk fills its own PMF on
/// a scoped thread, and the partials are merged in chunk order, so
/// equal inputs and worker counts give bit-identical PMFs.
fn characterize_points<const D: usize>(
    samples: u64,
    seq_offset: u64,
    record: impl Fn(&mut ErrorPmf, [f64; D]) + Sync,
) -> ErrorPmf {
    let threads = worker_count(samples);
    let chunk = samples / threads as u64;
    let record = &record;
    let partials: Vec<ErrorPmf> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let start = 1 + seq_offset + t as u64 * chunk;
                    let n = if t == threads - 1 {
                        samples - chunk * (threads as u64 - 1)
                    } else {
                        chunk
                    };
                    let mut pmf = ErrorPmf::new();
                    for p in Halton::<D>::new().starting_at(start).take(n as usize) {
                        record(&mut pmf, p);
                    }
                    pmf
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("characterization worker panicked"))
            .collect()
    });
    let mut acc = ErrorPmf::new();
    for p in partials {
        acc.merge(&p);
    }
    acc
}

fn worker_count(samples: u64) -> usize {
    if samples < 50_000 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_op_has_zero_error_rate() {
        let pmf = characterize_binary_f32(
            |a, b| a * b,
            |a, b| (a as f32 as f64) * (b as f32 as f64),
            5_000,
            0,
        );
        // f32 multiply of f32 inputs vs f64 reference of the same inputs
        // differs only by the final rounding, far below the 2^-40 % floor.
        assert!(pmf.max_error_pct() < 1e-4, "max {}", pmf.max_error_pct());
    }

    #[test]
    fn parallel_matches_serial() {
        // 60k samples trigger the parallel path; compare against one chunk.
        let f = |a: f32, b: f32| ihw_core::multiplier::imul32(a, b);
        let e = |a: f64, b: f64| a * b;
        let par = characterize_binary_f32(f, e, 60_000, 0);
        let mut ser = ErrorPmf::new();
        for p in ihw_qmc::Halton::<2>::new().take(60_000) {
            let (a, b) = (p[0] as f32, p[1] as f32);
            if a == 0.0 || b == 0.0 {
                continue;
            }
            ser.record(f(a, b) as f64, a as f64 * b as f64);
        }
        assert_eq!(par.total(), ser.total());
        assert!((par.max_error_pct() - ser.max_error_pct()).abs() < 1e-12);
    }
}
