//! Per-unit imprecise/precise configuration and dispatch — the software
//! analogue of the simulator "knob" described in §5.1: *"a knob was created
//! for allowing the simulation to run in either the precise or the
//! imprecise mode; each imprecise hardware unit can be enabled or disabled
//! individually, along with the tunable structural parameter."*
//!
//! Workloads route every floating point operation through an
//! [`IhwConfig`], which selects the precise host operation or one of the
//! imprecise units from this crate per operation class.
//!
//! ```
//! use ihw_core::config::IhwConfig;
//!
//! let precise = IhwConfig::precise();
//! let ihw = IhwConfig::all_imprecise();
//! assert_eq!(precise.mul32(1.5, 1.5), 2.25);
//! assert_eq!(ihw.mul32(1.5, 1.5), 2.0); // Table 1 multiplier
//! ```

use crate::ac_multiplier::AcMulConfig;
use crate::adder::{iadd32, iadd64, isub32, isub64};
use crate::multiplier::{imul32, imul64};
use crate::sfu::{
    idiv32, idiv64, ilog2_32, ilog2_64, ircp32, ircp64, irsqrt32, irsqrt64, isqrt32, isqrt64,
};
use crate::truncated::TruncatedMul;
use serde::{Deserialize, Serialize};

/// Classes of floating point operations the paper instruments (Table 2).
///
/// These are the keys of the synthesis-library matrix and of the
/// performance counters collected by the GPU simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FpOp {
    /// Floating point addition / subtraction (`ifpadd`).
    Add,
    /// Floating point multiplication (`ifpmul`).
    Mul,
    /// Floating point division (`ifpdiv`).
    Div,
    /// Reciprocal `1/x` (`ircp`).
    Rcp,
    /// Inverse square root (`irsqrt`).
    Rsqrt,
    /// Square root (`isqrt`).
    Sqrt,
    /// Base-2 logarithm (`ilog2`).
    Log2,
    /// Base-2 exponential (`iexp2`, extension unit).
    Exp2,
    /// Fused multiply–add (`ifma`).
    Fma,
}

impl FpOp {
    /// All operation classes, in Table 2 order (plus the `iexp2`
    /// extension).
    pub const ALL: [FpOp; 9] = [
        FpOp::Add,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Rcp,
        FpOp::Rsqrt,
        FpOp::Sqrt,
        FpOp::Log2,
        FpOp::Exp2,
        FpOp::Fma,
    ];

    /// Position of the op in [`FpOp::ALL`] (its declaration order, so
    /// also its `Ord` rank): the slot of a dense per-op counter array.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the op executes on the FPU (add/mul/fma) or the SFU
    /// (elementary functions), matching the paper's split.
    pub fn is_sfu(self) -> bool {
        matches!(
            self,
            FpOp::Div | FpOp::Rcp | FpOp::Rsqrt | FpOp::Sqrt | FpOp::Log2 | FpOp::Exp2
        )
    }

    /// The paper's component mnemonic (`ifpadd`, `ircp`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "ifpadd",
            FpOp::Mul => "ifpmul",
            FpOp::Div => "ifpdiv",
            FpOp::Rcp => "ircp",
            FpOp::Rsqrt => "irsqrt",
            FpOp::Sqrt => "isqrt",
            FpOp::Log2 => "ilog2",
            FpOp::Exp2 => "iexp2",
            FpOp::Fma => "ifma",
        }
    }
}

impl std::fmt::Display for FpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Adder implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AddUnit {
    /// IEEE-754 host addition.
    Precise,
    /// Imprecise threshold adder with structural parameter `th`.
    Imprecise {
        /// Alignment/adder width threshold, `1..=27`.
        th: u32,
    },
}

/// Multiplier implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MulUnit {
    /// IEEE-754 host multiplication.
    Precise,
    /// The Table 1 imprecise multiplier (`Mz ≈ 1+Ma+Mb`, 25% max error).
    Imprecise,
    /// The accuracy-configurable Mitchell multiplier (§3.2).
    AcMul(AcMulConfig),
    /// The intuitive bit-truncation baseline.
    Truncated(TruncatedMul),
}

/// Selector for units that are either fully precise or fully imprecise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UnitMode {
    /// IEEE-754 / libm host implementation.
    Precise,
    /// The Table 1 linear-approximation unit.
    Imprecise,
}

impl UnitMode {
    /// True when the imprecise unit is selected.
    pub fn is_imprecise(self) -> bool {
        matches!(self, UnitMode::Imprecise)
    }
}

/// Complete per-unit configuration of the GPU's arithmetic datapath.
///
/// One value of this type corresponds to one point in the paper's
/// power-quality design space (one row of Table 5, one image of
/// Figures 15–18, …).
///
/// The full derive set (`Eq`/`Ord`/`Hash` — every field is a plain
/// integer-backed enum) lets a configuration serve directly as a typed
/// map key, e.g. in the kernel plan cache of `gpu-sim`, instead of
/// being folded through a stringly label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IhwConfig {
    /// Adder/subtractor implementation.
    pub add: AddUnit,
    /// Multiplier implementation.
    pub mul: MulUnit,
    /// Divider mode.
    pub div: UnitMode,
    /// Reciprocal mode.
    pub rcp: UnitMode,
    /// Inverse square root mode.
    pub rsqrt: UnitMode,
    /// Square root mode.
    pub sqrt: UnitMode,
    /// log₂ mode.
    pub log2: UnitMode,
    /// exp₂ mode (extension unit).
    pub exp2: UnitMode,
}

impl IhwConfig {
    /// Default structural threshold used throughout the paper's evaluation.
    pub const DEFAULT_TH: u32 = 8;

    /// Fully precise (baseline / reference) configuration.
    pub const fn precise() -> Self {
        IhwConfig {
            add: AddUnit::Precise,
            mul: MulUnit::Precise,
            div: UnitMode::Precise,
            rcp: UnitMode::Precise,
            rsqrt: UnitMode::Precise,
            sqrt: UnitMode::Precise,
            log2: UnitMode::Precise,
            exp2: UnitMode::Precise,
        }
    }

    /// Every proposed IHW component enabled (Table 1 set plus the iexp2
    /// extension, `TH = 8`) — the configuration used for HotSpot and SRAD
    /// in §5.3.1.
    pub const fn all_imprecise() -> Self {
        IhwConfig {
            add: AddUnit::Imprecise {
                th: Self::DEFAULT_TH,
            },
            mul: MulUnit::Imprecise,
            div: UnitMode::Imprecise,
            rcp: UnitMode::Imprecise,
            rsqrt: UnitMode::Imprecise,
            sqrt: UnitMode::Imprecise,
            log2: UnitMode::Imprecise,
            exp2: UnitMode::Imprecise,
        }
    }

    /// RayTracing configuration of Figure 17(b): only reciprocal,
    /// addition/subtraction and square root imprecise (SSIM 0.95).
    pub const fn ray_basic() -> Self {
        IhwConfig {
            add: AddUnit::Imprecise {
                th: Self::DEFAULT_TH,
            },
            mul: MulUnit::Precise,
            div: UnitMode::Precise,
            rcp: UnitMode::Imprecise,
            rsqrt: UnitMode::Precise,
            sqrt: UnitMode::Imprecise,
            log2: UnitMode::Precise,
            exp2: UnitMode::Precise,
        }
    }

    /// RayTracing configuration of Figure 17(c): adds the imprecise
    /// inverse square root (SSIM 0.83).
    pub const fn ray_with_rsqrt() -> Self {
        let mut c = Self::ray_basic();
        c.rsqrt = UnitMode::Imprecise;
        c
    }

    /// RayTracing configuration of Figure 18(b): [`Self::ray_basic`] plus
    /// the accuracy-configurable multiplier on the full path (SSIM 0.85,
    /// 13.56% system power saving).
    pub const fn ray_with_ac_mul(truncation: u32) -> Self {
        let mut c = Self::ray_basic();
        c.mul = MulUnit::AcMul(AcMulConfig::new(
            crate::ac_multiplier::MulPath::Full,
            truncation,
        ));
        c
    }

    /// Returns a copy with the multiplier unit replaced.
    pub fn with_mul(mut self, mul: MulUnit) -> Self {
        self.mul = mul;
        self
    }

    /// Returns a copy with the adder unit replaced.
    pub fn with_add(mut self, add: AddUnit) -> Self {
        self.add = add;
        self
    }

    /// True if any unit is imprecise.
    pub fn any_imprecise(&self) -> bool {
        !matches!(self.add, AddUnit::Precise)
            || !matches!(self.mul, MulUnit::Precise)
            || self.div.is_imprecise()
            || self.rcp.is_imprecise()
            || self.rsqrt.is_imprecise()
            || self.sqrt.is_imprecise()
            || self.log2.is_imprecise()
            || self.exp2.is_imprecise()
    }

    /// Whether the unit serving `op` is configured imprecise.
    pub fn is_op_imprecise(&self, op: FpOp) -> bool {
        match op {
            FpOp::Add => !matches!(self.add, AddUnit::Precise),
            FpOp::Mul => !matches!(self.mul, MulUnit::Precise),
            FpOp::Div => self.div.is_imprecise(),
            FpOp::Rcp => self.rcp.is_imprecise(),
            FpOp::Rsqrt => self.rsqrt.is_imprecise(),
            FpOp::Sqrt => self.sqrt.is_imprecise(),
            FpOp::Log2 => self.log2.is_imprecise(),
            FpOp::Exp2 => self.exp2.is_imprecise(),
            FpOp::Fma => {
                !matches!(self.add, AddUnit::Precise) || !matches!(self.mul, MulUnit::Precise)
            }
        }
    }

    // ---- single precision dispatch ----

    /// Addition under the configured adder.
    #[inline]
    pub fn add32(&self, a: f32, b: f32) -> f32 {
        match self.add {
            AddUnit::Precise => a + b,
            AddUnit::Imprecise { th } => iadd32(a, b, th),
        }
    }

    /// Subtraction under the configured adder.
    #[inline]
    pub fn sub32(&self, a: f32, b: f32) -> f32 {
        match self.add {
            AddUnit::Precise => a - b,
            AddUnit::Imprecise { th } => isub32(a, b, th),
        }
    }

    /// Multiplication under the configured multiplier.
    #[inline]
    pub fn mul32(&self, a: f32, b: f32) -> f32 {
        match self.mul {
            MulUnit::Precise => a * b,
            MulUnit::Imprecise => imul32(a, b),
            MulUnit::AcMul(cfg) => cfg.mul32(a, b),
            MulUnit::Truncated(tm) => tm.mul32(a, b),
        }
    }

    /// Division under the configured divider.
    #[inline]
    pub fn div32(&self, a: f32, b: f32) -> f32 {
        match self.div {
            UnitMode::Precise => a / b,
            UnitMode::Imprecise => idiv32(a, b),
        }
    }

    /// Reciprocal under the configured SFU.
    #[inline]
    pub fn rcp32(&self, x: f32) -> f32 {
        match self.rcp {
            UnitMode::Precise => 1.0 / x,
            UnitMode::Imprecise => ircp32(x),
        }
    }

    /// Inverse square root under the configured SFU.
    #[inline]
    pub fn rsqrt32(&self, x: f32) -> f32 {
        match self.rsqrt {
            UnitMode::Precise => 1.0 / x.sqrt(),
            UnitMode::Imprecise => irsqrt32(x),
        }
    }

    /// Square root under the configured SFU.
    #[inline]
    pub fn sqrt32(&self, x: f32) -> f32 {
        match self.sqrt {
            UnitMode::Precise => x.sqrt(),
            UnitMode::Imprecise => isqrt32(x),
        }
    }

    /// Base-2 logarithm under the configured SFU.
    #[inline]
    pub fn log2_32(&self, x: f32) -> f32 {
        match self.log2 {
            UnitMode::Precise => x.log2(),
            UnitMode::Imprecise => ilog2_32(x),
        }
    }

    /// Base-2 exponential under the configured SFU.
    #[inline]
    pub fn exp2_32(&self, x: f32) -> f32 {
        match self.exp2 {
            UnitMode::Precise => x.exp2(),
            UnitMode::Imprecise => crate::sfu::iexp2_32(x),
        }
    }

    /// Fused multiply–add composed from the configured multiplier and adder.
    #[inline]
    pub fn fma32(&self, a: f32, b: f32, c: f32) -> f32 {
        self.add32(self.mul32(a, b), c)
    }

    // ---- double precision dispatch ----

    /// Addition under the configured adder (double precision).
    #[inline]
    pub fn add64(&self, a: f64, b: f64) -> f64 {
        match self.add {
            AddUnit::Precise => a + b,
            AddUnit::Imprecise { th } => iadd64(a, b, th),
        }
    }

    /// Subtraction under the configured adder (double precision).
    #[inline]
    pub fn sub64(&self, a: f64, b: f64) -> f64 {
        match self.add {
            AddUnit::Precise => a - b,
            AddUnit::Imprecise { th } => isub64(a, b, th),
        }
    }

    /// Multiplication under the configured multiplier (double precision).
    #[inline]
    pub fn mul64(&self, a: f64, b: f64) -> f64 {
        match self.mul {
            MulUnit::Precise => a * b,
            MulUnit::Imprecise => imul64(a, b),
            MulUnit::AcMul(cfg) => cfg.mul64(a, b),
            MulUnit::Truncated(tm) => tm.mul64(a, b),
        }
    }

    /// Division under the configured divider (double precision).
    #[inline]
    pub fn div64(&self, a: f64, b: f64) -> f64 {
        match self.div {
            UnitMode::Precise => a / b,
            UnitMode::Imprecise => idiv64(a, b),
        }
    }

    /// Reciprocal under the configured SFU (double precision).
    #[inline]
    pub fn rcp64(&self, x: f64) -> f64 {
        match self.rcp {
            UnitMode::Precise => 1.0 / x,
            UnitMode::Imprecise => ircp64(x),
        }
    }

    /// Inverse square root under the configured SFU (double precision).
    #[inline]
    pub fn rsqrt64(&self, x: f64) -> f64 {
        match self.rsqrt {
            UnitMode::Precise => 1.0 / x.sqrt(),
            UnitMode::Imprecise => irsqrt64(x),
        }
    }

    /// Square root under the configured SFU (double precision).
    #[inline]
    pub fn sqrt64(&self, x: f64) -> f64 {
        match self.sqrt {
            UnitMode::Precise => x.sqrt(),
            UnitMode::Imprecise => isqrt64(x),
        }
    }

    /// Base-2 logarithm under the configured SFU (double precision).
    #[inline]
    pub fn log2_64(&self, x: f64) -> f64 {
        match self.log2 {
            UnitMode::Precise => x.log2(),
            UnitMode::Imprecise => ilog2_64(x),
        }
    }

    /// Base-2 exponential under the configured SFU (double precision).
    #[inline]
    pub fn exp2_64(&self, x: f64) -> f64 {
        match self.exp2 {
            UnitMode::Precise => x.exp2(),
            UnitMode::Imprecise => crate::sfu::iexp2_64(x),
        }
    }

    /// Fused multiply–add (double precision).
    #[inline]
    pub fn fma64(&self, a: f64, b: f64, c: f64) -> f64 {
        self.add64(self.mul64(a, b), c)
    }
}

impl Default for IhwConfig {
    /// The default configuration is fully precise.
    fn default() -> Self {
        Self::precise()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac_multiplier::MulPath;

    #[test]
    fn precise_matches_host() {
        let c = IhwConfig::precise();
        assert_eq!(c.add32(0.1, 0.2), 0.1f32 + 0.2f32);
        assert_eq!(c.mul32(0.1, 0.2), 0.1f32 * 0.2f32);
        assert_eq!(c.div32(1.0, 3.0), 1.0f32 / 3.0f32);
        assert_eq!(c.sqrt32(2.0), 2.0f32.sqrt());
        assert_eq!(c.rsqrt64(2.0), 1.0 / 2.0f64.sqrt());
        assert!(!c.any_imprecise());
    }

    #[test]
    fn all_imprecise_dispatches_ihw() {
        let c = IhwConfig::all_imprecise();
        assert!(c.any_imprecise());
        assert_eq!(c.mul32(1.5, 1.5), 2.0);
        assert_eq!(c.add32(1024.0, 1.0), 1024.0);
        for op in FpOp::ALL {
            assert!(c.is_op_imprecise(op), "{op} should be imprecise");
        }
    }

    #[test]
    fn ray_presets() {
        let b = IhwConfig::ray_basic();
        assert!(b.is_op_imprecise(FpOp::Rcp));
        assert!(b.is_op_imprecise(FpOp::Add));
        assert!(b.is_op_imprecise(FpOp::Sqrt));
        assert!(!b.is_op_imprecise(FpOp::Rsqrt));
        assert!(!b.is_op_imprecise(FpOp::Mul));
        let r = IhwConfig::ray_with_rsqrt();
        assert!(r.is_op_imprecise(FpOp::Rsqrt));
        let m = IhwConfig::ray_with_ac_mul(0);
        assert!(matches!(m.mul, MulUnit::AcMul(cfg) if cfg.path == MulPath::Full));
    }

    #[test]
    fn with_builders() {
        let c = IhwConfig::precise()
            .with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 19)))
            .with_add(AddUnit::Imprecise { th: 4 });
        assert!(c.is_op_imprecise(FpOp::Mul));
        assert!(c.is_op_imprecise(FpOp::Add));
        assert!(c.is_op_imprecise(FpOp::Fma));
        assert!(!c.is_op_imprecise(FpOp::Div));
    }

    #[test]
    fn fma_composes() {
        let c = IhwConfig::all_imprecise();
        assert_eq!(c.fma32(1.5, 1.5, 0.5), 2.5);
        let p = IhwConfig::precise();
        assert_eq!(p.fma32(2.0, 3.0, 4.0), 10.0);
    }

    #[test]
    fn fp_op_metadata() {
        assert!(FpOp::Rcp.is_sfu());
        assert!(FpOp::Sqrt.is_sfu());
        assert!(!FpOp::Add.is_sfu());
        assert!(!FpOp::Fma.is_sfu());
        assert_eq!(FpOp::Rsqrt.mnemonic(), "irsqrt");
        assert!(FpOp::Exp2.is_sfu());
        assert_eq!(FpOp::ALL.len(), 9);
        assert_eq!(format!("{}", FpOp::Log2), "ilog2");
    }
}
