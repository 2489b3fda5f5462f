//! Host-speed calibration.
//!
//! The shared host the benchmark was defined on changes speed by up to 2×
//! over seconds to minutes as outside load comes and goes, and the change
//! shows as user time, not as steal time. A run's wall times then follow
//! the host more than the program. So the benchmark times a fixed kernel
//! of its own, which no change to the program can move, between passes on
//! as many threads as the workload loads, and reports every end-to-end
//! timing scaled by `REFERENCE_S` ÷ the kernel's latest time: the time the
//! work would have taken at the reference speed.

use ihw_bench::runner::report::Stopwatch;
use std::hint::black_box;

/// The kernel's time at the reference speed. It only sets the scale; it
/// is about the kernel's typical time on the 2-vCPU host (Intel Xeon,
/// KVM) the benchmark was defined on.
pub const REFERENCE_S: f64 = 0.020;

/// Seconds of timed passes between calibrations.
pub const INTERVAL_S: f64 = 0.25;

/// Steps of the kernel's four streams together.
const STEPS: u64 = 2_400_000;

/// Four independent random streams with data-dependent branches over a
/// 64 KiB table: like the interpreters and simulators it stands in for,
/// it competes for issue ports, the branch predictor and L1/L2, so it
/// slows with them when another machine shares the core. A single
/// dependent chain tracked less: divided by it, the medians of 5-s windows
/// of solver passes spread 0.13 of their value, against 0.08.
fn kernel(seed: u64) -> u64 {
    let mut x = [1, 3, 5, 7].map(|k: u64| seed.wrapping_mul(k) | 1);
    let mut acc = [0f32; 4];
    let mut table = vec![0u32; 16384];
    for _ in 0..STEPS / 4 {
        for (v, a) in x.iter_mut().zip(&mut acc) {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let i = (*v as usize >> 3) & (table.len() - 1);
            let t = table[i];
            match t & 3 {
                0 => *a = a.mul_add(0.999_999, (*v & 0xff) as f32),
                1 => *a += (t & 0xff) as f32,
                _ => *v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
            table[i] = t.wrapping_add(*v as u32);
        }
    }
    let state = x.iter().fold(0, |h, v| h ^ v);
    let sums = acc.iter().map(|a| u64::from(a.to_bits())).sum::<u64>();
    state ^ sums ^ table.iter().map(|&v| u64::from(v)).sum::<u64>()
}

/// Wall seconds of the kernel run once on each of `threads` threads at
/// the same time.
pub fn measure(threads: usize) -> f64 {
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|t| s.spawn(move || kernel(black_box(t + 1))))
            .collect();
        for h in handles {
            black_box(h.join().expect("calibration thread panicked"));
        }
    });
    sw.elapsed_seconds()
}
