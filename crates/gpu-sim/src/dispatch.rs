//! Functional-simulation context: the counting dispatcher every workload
//! routes its arithmetic through.
//!
//! This is the software analogue of GPGPU-Sim's functional execution with
//! the IHW functional models linked in (§5.1): each call executes the
//! operation on the precise or imprecise unit selected by the
//! [`IhwConfig`] knob **and** increments the per-opcode performance
//! counter that the Figure 12 power estimator and the GPUWattch-style
//! model later consume.

use crate::simt::UnitClass;
use ihw_core::config::{FpOp, IhwConfig};
use ihw_power::system::OpCounts;

/// Counting arithmetic dispatcher ("the knob" plus performance counters).
///
/// Every counted op runs its unit and bumps one slot of the dense
/// [`OpCounts`] array (plus a trace push when tracing), so the counter
/// costs an increment, not a lookup, on the functional simulator's
/// innermost path.
///
/// ```
/// use gpu_sim::dispatch::FpCtx;
/// use ihw_core::config::{FpOp, IhwConfig};
///
/// let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
/// let y = ctx.mul32(1.5, 1.5);
/// assert_eq!(y, 2.0);
/// assert_eq!(ctx.counts().get(FpOp::Mul), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FpCtx {
    cfg: IhwConfig,
    counts: OpCounts,
    int_ops: u64,
    mem_ops: u64,
    /// Ops forced through the precise multiplier regardless of `cfg`
    /// (the CP benchmark keeps ≈20% of its multiplications precise).
    precise_mul_ops: u64,
    /// When tracing is enabled, the issue-port sequence of every
    /// dispatched operation (for trace-exact replay on the detailed
    /// timing model).
    trace: Option<Vec<UnitClass>>,
}

impl FpCtx {
    /// Creates a context with the given datapath configuration.
    pub fn new(cfg: IhwConfig) -> Self {
        FpCtx {
            cfg,
            counts: OpCounts::new(),
            int_ops: 0,
            mem_ops: 0,
            precise_mul_ops: 0,
            trace: None,
        }
    }

    /// Enables issue-port tracing: every subsequent operation appends its
    /// unit class to the trace returned by [`FpCtx::take_trace`].
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Whether issue-port tracing is currently enabled.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes the captured trace, leaving tracing enabled with an empty
    /// buffer. Returns an empty vector if tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<UnitClass> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    #[inline]
    fn trace_push(&mut self, unit: UnitClass) {
        if let Some(t) = &mut self.trace {
            t.push(unit);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IhwConfig {
        &self.cfg
    }

    /// Accumulated floating point performance counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Accumulated integer-ALU operation count.
    pub fn int_ops(&self) -> u64 {
        self.int_ops
    }

    /// Accumulated memory (load/store) operation count.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    /// Count of multiplications that bypassed the imprecise unit.
    pub fn precise_mul_ops(&self) -> u64 {
        self.precise_mul_ops
    }

    /// Resets every counter (and any captured trace), keeping the
    /// configuration.
    pub fn reset_counters(&mut self) {
        self.counts = OpCounts::new();
        self.int_ops = 0;
        self.mem_ops = 0;
        self.precise_mul_ops = 0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Credits a precomputed batch of counters in one shot — the
    /// compiled engine's replacement for per-instruction recording. A
    /// straight-line kernel costs the same for every thread, so the
    /// launch driver multiplies the plan's per-thread table up front
    /// and lands it here as a merge instead of `threads × instrs`
    /// individual counter updates.
    pub(crate) fn record_static(&mut self, counts: &OpCounts, int_ops: u64, mem_ops: u64) {
        self.counts.merge(counts);
        self.int_ops += int_ops;
        self.mem_ops += mem_ops;
    }

    /// Appends `repeats` full copies of a per-thread `UnitClass`
    /// pattern plus a `prefix`-length partial copy (the faulting
    /// thread's truncated trace) to the captured trace, if tracing.
    /// One thread's pattern is position-identical to what `exec_step`
    /// would have pushed, so a compiled launch's trace is
    /// indistinguishable from an interpreted one's.
    pub(crate) fn extend_trace_pattern(
        &mut self,
        pattern: &[UnitClass],
        repeats: u64,
        prefix: usize,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.reserve(pattern.len() * repeats as usize + prefix);
            for _ in 0..repeats {
                trace.extend_from_slice(pattern);
            }
            trace.extend_from_slice(&pattern[..prefix]);
        }
    }

    /// Records `n` integer ALU operations (address math, loop control).
    #[inline]
    pub fn int_op(&mut self, n: u64) {
        self.int_ops += n;
        if let Some(trace) = &mut self.trace {
            trace.reserve(n as usize);
            trace.extend(std::iter::repeat_n(UnitClass::Alu, n as usize));
        }
    }

    /// Records `n` memory accesses.
    #[inline]
    pub fn mem_op(&mut self, n: u64) {
        self.mem_ops += n;
        if let Some(trace) = &mut self.trace {
            trace.reserve(n as usize);
            trace.extend(std::iter::repeat_n(UnitClass::Lsu, n as usize));
        }
    }

    // ---- single precision ----

    /// Counted addition.
    #[inline]
    pub fn add32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Add, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Add));
        self.cfg.add32(a, b)
    }

    /// Counted subtraction.
    #[inline]
    pub fn sub32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Add, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Add));
        self.cfg.sub32(a, b)
    }

    /// Counted multiplication.
    #[inline]
    pub fn mul32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Mul, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Mul));
        self.cfg.mul32(a, b)
    }

    /// Counted multiplication that always uses the precise unit — the
    /// paper's CP benchmark keeps coordinate computations precise.
    #[inline]
    pub fn mul32_precise(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Mul, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Mul));
        self.precise_mul_ops += 1;
        a * b
    }

    /// Counted division.
    #[inline]
    pub fn div32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Div, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Div));
        self.cfg.div32(a, b)
    }

    /// Counted reciprocal.
    #[inline]
    pub fn rcp32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Rcp, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Rcp));
        self.cfg.rcp32(x)
    }

    /// Counted inverse square root.
    #[inline]
    pub fn rsqrt32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Rsqrt, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Rsqrt));
        self.cfg.rsqrt32(x)
    }

    /// Counted square root.
    #[inline]
    pub fn sqrt32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Sqrt, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Sqrt));
        self.cfg.sqrt32(x)
    }

    /// Counted log₂.
    #[inline]
    pub fn log2_32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Log2, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Log2));
        self.cfg.log2_32(x)
    }

    /// Counted base-2 exponential.
    #[inline]
    pub fn exp2_32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Exp2, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Exp2));
        self.cfg.exp2_32(x)
    }

    /// Counted fused multiply–add.
    #[inline]
    pub fn fma32(&mut self, a: f32, b: f32, c: f32) -> f32 {
        self.counts.record(FpOp::Fma, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Fma));
        self.cfg.fma32(a, b, c)
    }

    /// Counted 3-component dot product (3 muls + 2 adds on the configured
    /// units — the RayTracing kernel's workhorse).
    #[inline]
    pub fn dot3_32(&mut self, a: [f32; 3], b: [f32; 3]) -> f32 {
        let xx = self.mul32(a[0], b[0]);
        let yy = self.mul32(a[1], b[1]);
        let zz = self.mul32(a[2], b[2]);
        let s = self.add32(xx, yy);
        self.add32(s, zz)
    }

    // ---- double precision ----

    /// Counted addition (double).
    #[inline]
    pub fn add64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Add, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Add));
        self.cfg.add64(a, b)
    }

    /// Counted subtraction (double).
    #[inline]
    pub fn sub64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Add, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Add));
        self.cfg.sub64(a, b)
    }

    /// Counted multiplication (double).
    #[inline]
    pub fn mul64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Mul, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Mul));
        self.cfg.mul64(a, b)
    }

    /// Counted division (double).
    #[inline]
    pub fn div64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Div, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Div));
        self.cfg.div64(a, b)
    }

    /// Counted square root (double).
    #[inline]
    pub fn sqrt64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Sqrt, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Sqrt));
        self.cfg.sqrt64(x)
    }

    /// Counted reciprocal (double).
    #[inline]
    pub fn rcp64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Rcp, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Rcp));
        self.cfg.rcp64(x)
    }

    /// Counted inverse square root (double).
    #[inline]
    pub fn rsqrt64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Rsqrt, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Rsqrt));
        self.cfg.rsqrt64(x)
    }

    /// Counted log₂ (double).
    #[inline]
    pub fn log2_64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Log2, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Log2));
        self.cfg.log2_64(x)
    }

    /// Counted fused multiply–add (double).
    #[inline]
    pub fn fma64(&mut self, a: f64, b: f64, c: f64) -> f64 {
        self.counts.record(FpOp::Fma, 1);
        self.trace_push(UnitClass::for_fp_op(FpOp::Fma));
        self.cfg.fma64(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_class() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let _ = ctx.add32(1.0, 2.0);
        let _ = ctx.sub32(1.0, 2.0);
        let _ = ctx.mul32(1.0, 2.0);
        let _ = ctx.div32(1.0, 2.0);
        let _ = ctx.rcp32(2.0);
        let _ = ctx.rsqrt32(2.0);
        let _ = ctx.sqrt32(2.0);
        let _ = ctx.log2_32(2.0);
        let _ = ctx.fma32(1.0, 2.0, 3.0);
        assert_eq!(ctx.counts().get(FpOp::Add), 2);
        assert_eq!(ctx.counts().get(FpOp::Mul), 1);
        assert_eq!(ctx.counts().get(FpOp::Fma), 1);
        assert_eq!(ctx.counts().total(), 9);
    }

    #[test]
    fn dispatch_respects_config() {
        let mut p = FpCtx::new(IhwConfig::precise());
        let mut i = FpCtx::new(IhwConfig::all_imprecise());
        assert_eq!(p.mul32(1.5, 1.5), 2.25);
        assert_eq!(i.mul32(1.5, 1.5), 2.0);
        assert_eq!(i.mul64(1.5, 1.5), 2.0);
    }

    #[test]
    fn precise_mul_bypass() {
        let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
        assert_eq!(ctx.mul32_precise(1.5, 1.5), 2.25);
        assert_eq!(ctx.precise_mul_ops(), 1);
        assert_eq!(ctx.counts().get(FpOp::Mul), 1, "still counted as a mul");
    }

    #[test]
    fn dot3_counts_three_muls_two_adds() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let d = ctx.dot3_32([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]);
        assert_eq!(d, 32.0);
        assert_eq!(ctx.counts().get(FpOp::Mul), 3);
        assert_eq!(ctx.counts().get(FpOp::Add), 2);
    }

    #[test]
    fn trace_capture() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        assert!(ctx.take_trace().is_empty(), "no trace before enabling");
        ctx.enable_trace();
        let _ = ctx.mul32(1.0, 2.0);
        let _ = ctx.rcp32(2.0);
        ctx.mem_op(2);
        ctx.int_op(1);
        let trace = ctx.take_trace();
        assert_eq!(
            trace,
            vec![
                UnitClass::Fpu,
                UnitClass::Sfu,
                UnitClass::Lsu,
                UnitClass::Lsu,
                UnitClass::Alu
            ]
        );
        // Buffer drained but tracing still on.
        let _ = ctx.add32(1.0, 1.0);
        assert_eq!(ctx.take_trace(), vec![UnitClass::Fpu]);
    }

    #[test]
    fn reset_keeps_config() {
        let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
        let _ = ctx.mul32(1.0, 1.0);
        ctx.int_op(5);
        ctx.mem_op(3);
        ctx.reset_counters();
        assert_eq!(ctx.counts().total(), 0);
        assert_eq!(ctx.int_ops(), 0);
        assert_eq!(ctx.mem_ops(), 0);
        assert!(ctx.config().any_imprecise());
    }
}
