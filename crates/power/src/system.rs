//! System-level power savings estimator — a faithful implementation of
//! the Figure 12 pseudo-code (§5.1).
//!
//! Inputs: per-opcode performance counters from the GPU simulator, the
//! datapath configuration (which units run imprecise), the synthesis
//! matrix, and the benchmark's FPU/SFU shares of total GPU power (from
//! the GPUWattch-style model, Figure 2). The estimator assumes a
//! continuously operating pipeline with no stalls at the 700 MHz core
//! clock, power-gated idle units, and computes:
//!
//! ```text
//! avg_fpu_pwr_impr = |dw_fpu_pwr − ihw_fpu_pwr| / dw_fpu_pwr
//! sys_pwr_impr     = fpu_share·avg_fpu_pwr_impr + sfu_share·avg_sfu_pwr_impr
//! ```

use crate::library::{Precision, SynthesisLibrary};
use crate::mul_power::mul_power_mw;
use ihw_core::config::{FpOp, IhwConfig, MulUnit};
use serde::{Deserialize, Serialize};

/// Core clock of the execution pipeline used by GPUWattch and this model.
pub const CORE_CLOCK_GHZ: f64 = 0.7;

/// Per-opcode dynamic instruction counts (the "performance counters" read
/// by `init_perf_acc` in Figure 12).
///
/// One `u64` per [`FpOp`], indexed by [`FpOp::index`]: recording an op is
/// a single array increment, cheap enough to sit in the functional
/// simulator's innermost loop. Equality compares counts, so a counter
/// that was touched with `n = 0` equals one that never was.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    counts: [u64; FpOp::ALL.len()],
}

impl OpCounts {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` executions of `op`.
    #[inline]
    pub fn record(&mut self, op: FpOp, n: u64) {
        self.counts[op.index()] += n;
    }

    /// Count for one op class.
    pub fn get(&self, op: FpOp) -> u64 {
        self.counts[op.index()]
    }

    /// Total dynamic op count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total count of FPU-class ops (add/mul/fma).
    pub fn fpu_total(&self) -> u64 {
        self.iter()
            .filter(|(op, _)| !op.is_sfu())
            .map(|(_, c)| c)
            .sum()
    }

    /// Total count of SFU-class ops.
    pub fn sfu_total(&self) -> u64 {
        self.iter()
            .filter(|(op, _)| op.is_sfu())
            .map(|(_, c)| c)
            .sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }

    /// Iterates `(op, count)` pairs with non-zero counts, in [`FpOp`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (FpOp, u64)> + '_ {
        FpOp::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, c)| c != 0)
    }
}

impl FromIterator<(FpOp, u64)> for OpCounts {
    fn from_iter<I: IntoIterator<Item = (FpOp, u64)>>(iter: I) -> Self {
        let mut c = OpCounts::new();
        for (op, n) in iter {
            c.record(op, n);
        }
        c
    }
}

/// A benchmark's FPU and SFU shares of *total* GPU power (the Figure 2
/// breakdown produced by the GPUWattch-style model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerShares {
    /// Fraction of total GPU power consumed by the FPUs.
    pub fpu: f64,
    /// Fraction of total GPU power consumed by the SFUs.
    pub sfu: f64,
}

impl PowerShares {
    /// Creates a share pair.
    ///
    /// # Panics
    ///
    /// Panics unless both shares are in `[0, 1]` and sum to at most 1.
    pub fn new(fpu: f64, sfu: f64) -> Self {
        assert!((0.0..=1.0).contains(&fpu), "fpu share out of range");
        assert!((0.0..=1.0).contains(&sfu), "sfu share out of range");
        assert!(fpu + sfu <= 1.0 + 1e-9, "shares exceed total power");
        PowerShares { fpu, sfu }
    }

    /// Combined arithmetic (FPU + SFU) share.
    pub fn arithmetic(&self) -> f64 {
        self.fpu + self.sfu
    }
}

/// Result of one Figure 12 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemPowerEstimate {
    /// `avg_fpu_pwr_impr`: relative FPU power reduction.
    pub fpu_improvement: f64,
    /// `avg_sfu_pwr_impr`: relative SFU power reduction.
    pub sfu_improvement: f64,
    /// Combined arithmetic power savings (Table 5, "Arith. Power Savings").
    pub arithmetic_savings: f64,
    /// `sys_pwr_impr`: holistic GPU power savings (Table 5, first column).
    pub system_savings: f64,
}

/// Absolute energy/delay/EDP of one kernel launch under one config —
/// the scoring quantity used by `ihw-analyze`'s autotuner to rank
/// statically-admissible configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyEstimate {
    /// Total arithmetic energy in pJ (mW × ns summed over op classes).
    pub energy_pj: f64,
    /// Total pipeline delay in ns (sum of per-class pipeline latencies).
    pub delay_ns: f64,
    /// Energy-delay product in pJ·ns.
    pub edp: f64,
}

/// The Figure 12 estimator bound to a synthesis library and clock.
#[derive(Debug, Clone)]
pub struct SystemPowerModel {
    lib: SynthesisLibrary,
    clk_ghz: f64,
    precision: Precision,
}

impl SystemPowerModel {
    /// Creates the estimator with the calibrated 45 nm library at 700 MHz.
    pub fn new() -> Self {
        SystemPowerModel {
            lib: SynthesisLibrary::cmos45(),
            clk_ghz: CORE_CLOCK_GHZ,
            precision: Precision::Single,
        }
    }

    /// Overrides the operating precision used for multiplier-power lookup.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Replaces the synthesis library (for sensitivity studies on the
    /// unpublished DWIP absolute estimates).
    pub fn with_library(mut self, lib: SynthesisLibrary) -> Self {
        self.lib = lib;
        self
    }

    /// Access to the underlying synthesis library.
    pub fn library(&self) -> &SynthesisLibrary {
        &self.lib
    }

    /// Runs the Figure 12 algorithm.
    ///
    /// Every op class executes `counts[op]` times on a fully pipelined
    /// unit; IHW metrics are used for classes the configuration marks
    /// imprecise, DWIP metrics otherwise.
    pub fn estimate(
        &self,
        counts: &OpCounts,
        cfg: &IhwConfig,
        shares: PowerShares,
    ) -> SystemPowerEstimate {
        let mut ihw_fpu_eng = 0.0; // pJ (mW × ns)
        let mut dw_fpu_eng = 0.0;
        let mut ihw_sfu_eng = 0.0;
        let mut dw_sfu_eng = 0.0;
        let mut ihw_fpu_lat = 0.0; // ns
        let mut dw_fpu_lat = 0.0;
        let mut ihw_sfu_lat = 0.0;
        let mut dw_sfu_lat = 0.0;

        for (op, acc) in counts.iter() {
            let dw = self.lib.dwip(op);
            let (ihw_pwr, ihw_lat) = self.unit_metrics(op, cfg);
            let i_pipe = self.pipe_latency_ns(acc, ihw_lat);
            let d_pipe = self.pipe_latency_ns(acc, dw.latency_ns);
            if op.is_sfu() {
                ihw_sfu_eng += ihw_pwr * i_pipe;
                dw_sfu_eng += dw.power_mw * d_pipe;
                ihw_sfu_lat += i_pipe;
                dw_sfu_lat += d_pipe;
            } else {
                ihw_fpu_eng += ihw_pwr * i_pipe;
                dw_fpu_eng += dw.power_mw * d_pipe;
                ihw_fpu_lat += i_pipe;
                dw_fpu_lat += d_pipe;
            }
        }

        let avg = |eng: f64, lat: f64| if lat > 0.0 { eng / lat } else { 0.0 };
        let ihw_fpu_pwr = avg(ihw_fpu_eng, ihw_fpu_lat);
        let dw_fpu_pwr = avg(dw_fpu_eng, dw_fpu_lat);
        let ihw_sfu_pwr = avg(ihw_sfu_eng, ihw_sfu_lat);
        let dw_sfu_pwr = avg(dw_sfu_eng, dw_sfu_lat);

        let impr = |dw: f64, ihw: f64| if dw > 0.0 { (dw - ihw).abs() / dw } else { 0.0 };
        let fpu_improvement = impr(dw_fpu_pwr, ihw_fpu_pwr);
        let sfu_improvement = impr(dw_sfu_pwr, ihw_sfu_pwr);

        // Combined arithmetic savings: energy-weighted over both classes.
        let dw_arith = dw_fpu_eng + dw_sfu_eng;
        let ihw_arith = ihw_fpu_eng + ihw_sfu_eng;
        let arithmetic_savings = if dw_arith > 0.0 {
            (dw_arith - ihw_arith) / dw_arith
        } else {
            0.0
        };

        let system_savings = shares.fpu * fpu_improvement + shares.sfu * sfu_improvement;

        SystemPowerEstimate {
            fpu_improvement,
            sfu_improvement,
            arithmetic_savings,
            system_savings,
        }
    }

    /// Absolute arithmetic energy, delay and EDP of executing `counts`
    /// under `cfg`: each op class runs `counts[op]` times on a fully
    /// pipelined unit (the same Figure 12 pipeline model as
    /// [`SystemPowerModel::estimate`], but reporting absolute pJ instead
    /// of relative savings, so configs are mutually comparable).
    pub fn energy(&self, counts: &OpCounts, cfg: &IhwConfig) -> EnergyEstimate {
        let mut energy_pj = 0.0;
        let mut delay_ns = 0.0;
        for (op, acc) in counts.iter() {
            let (pwr, lat) = self.unit_metrics(op, cfg);
            let pipe = self.pipe_latency_ns(acc, lat);
            energy_pj += pwr * pipe;
            delay_ns += pipe;
        }
        EnergyEstimate {
            energy_pj,
            delay_ns,
            edp: energy_pj * delay_ns,
        }
    }

    /// `(power_mw, latency_ns)` of the unit serving `op` under `cfg`.
    fn unit_metrics(&self, op: FpOp, cfg: &IhwConfig) -> (f64, f64) {
        if !cfg.is_op_imprecise(op) {
            let dw = self.lib.dwip(op);
            return (dw.power_mw, dw.latency_ns);
        }
        match op {
            FpOp::Mul => {
                let power = mul_power_mw(&cfg.mul, self.precision);
                let latency = match cfg.mul {
                    MulUnit::Precise => self.lib.dwip(op).latency_ns,
                    // The dedicated Table 1 unit has its own (much shorter)
                    // critical path; the AC multiplier and the truncation
                    // baseline are same-delay designs.
                    MulUnit::Imprecise => self.lib.ihw(op).latency_ns,
                    MulUnit::AcMul(_) | MulUnit::Truncated(_) => self.lib.dwip(op).latency_ns,
                };
                (power, latency)
            }
            _ => {
                let m = self.lib.ihw(op);
                (m.power_mw, m.latency_ns)
            }
        }
    }

    /// Pipeline latency in ns: `acc − 1` throughput cycles plus the unit's
    /// latency rounded up to whole cycles (Figure 12's `i_pipe_lat`).
    /// `acc` is at least 1: callers take it from `OpCounts::iter`, which
    /// yields non-zero counts only.
    fn pipe_latency_ns(&self, acc: u64, unit_latency_ns: f64) -> f64 {
        let cycles = (unit_latency_ns * self.clk_ghz).ceil();
        ((acc - 1) as f64 + cycles) / self.clk_ghz
    }
}

impl Default for SystemPowerModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};

    fn mixed_counts() -> OpCounts {
        [
            (FpOp::Add, 400_000u64),
            (FpOp::Mul, 500_000),
            (FpOp::Fma, 50_000),
            (FpOp::Rcp, 30_000),
            (FpOp::Sqrt, 20_000),
            (FpOp::Div, 10_000),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn op_counts_accounting() {
        let c = mixed_counts();
        assert_eq!(c.total(), 1_010_000);
        assert_eq!(c.fpu_total(), 950_000);
        assert_eq!(c.sfu_total(), 60_000);
        assert_eq!(c.get(FpOp::Log2), 0);
        let mut d = c.clone();
        d.merge(&c);
        assert_eq!(d.total(), 2 * c.total());
    }

    #[test]
    fn precise_config_saves_nothing() {
        let model = SystemPowerModel::new();
        let est = model.estimate(
            &mixed_counts(),
            &IhwConfig::precise(),
            PowerShares::new(0.25, 0.10),
        );
        assert_eq!(est.fpu_improvement, 0.0);
        assert_eq!(est.sfu_improvement, 0.0);
        assert_eq!(est.system_savings, 0.0);
    }

    #[test]
    fn all_imprecise_reaches_published_scale() {
        // With a compute-intensive mix and ≈35% arithmetic share, savings
        // land near the paper's 24–32% (Table 5).
        let model = SystemPowerModel::new();
        let est = model.estimate(
            &mixed_counts(),
            &IhwConfig::all_imprecise(),
            PowerShares::new(0.25, 0.10),
        );
        assert!(est.fpu_improvement > 0.7, "fpu {}", est.fpu_improvement);
        assert!(
            est.arithmetic_savings > 0.6,
            "arith {}",
            est.arithmetic_savings
        );
        assert!(
            est.system_savings > 0.2 && est.system_savings < 0.35,
            "system {}",
            est.system_savings
        );
    }

    #[test]
    fn system_savings_scale_with_shares() {
        let model = SystemPowerModel::new();
        let cfg = IhwConfig::all_imprecise();
        let small = model.estimate(&mixed_counts(), &cfg, PowerShares::new(0.10, 0.05));
        let large = model.estimate(&mixed_counts(), &cfg, PowerShares::new(0.30, 0.10));
        assert!(large.system_savings > small.system_savings);
        // Unit-level improvements are share-independent.
        assert_eq!(large.fpu_improvement, small.fpu_improvement);
    }

    #[test]
    fn partial_config_saves_less() {
        let model = SystemPowerModel::new();
        let shares = PowerShares::new(0.20, 0.08);
        let all = model.estimate(&mixed_counts(), &IhwConfig::all_imprecise(), shares);
        let partial = model.estimate(&mixed_counts(), &IhwConfig::ray_basic(), shares);
        assert!(partial.system_savings < all.system_savings);
        assert!(partial.system_savings > 0.0);
    }

    #[test]
    fn ac_multiplier_truncation_increases_savings() {
        let model = SystemPowerModel::new();
        let shares = PowerShares::new(0.2, 0.08);
        let mk = |t| {
            IhwConfig::precise().with_mul(ihw_core::config::MulUnit::AcMul(AcMulConfig::new(
                MulPath::Log,
                t,
            )))
        };
        let t0 = model.estimate(&mixed_counts(), &mk(0), shares);
        let t19 = model.estimate(&mixed_counts(), &mk(19), shares);
        assert!(t19.system_savings > t0.system_savings);
    }

    #[test]
    fn pipe_latency_formula() {
        let model = SystemPowerModel::new();
        // 1.7 ns at 0.7 GHz → ceil(1.19) = 2 cycles; 10 ops → 11 cycles.
        let ns = model.pipe_latency_ns(10, 1.7);
        assert!((ns - 11.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shares exceed total power")]
    fn share_validation() {
        let _ = PowerShares::new(0.7, 0.5);
    }

    #[test]
    fn energy_is_cheaper_for_imprecise_configs() {
        let model = SystemPowerModel::new();
        let counts = mixed_counts();
        let precise = model.energy(&counts, &IhwConfig::precise());
        let ihw = model.energy(&counts, &IhwConfig::all_imprecise());
        assert!(precise.energy_pj > 0.0);
        assert!(ihw.energy_pj < precise.energy_pj);
        assert!((precise.edp - precise.energy_pj * precise.delay_ns).abs() < 1e-9);
    }

    #[test]
    fn energy_of_empty_counts_is_zero() {
        let model = SystemPowerModel::new();
        let e = model.energy(&OpCounts::new(), &IhwConfig::all_imprecise());
        assert_eq!(e.energy_pj, 0.0);
        assert_eq!(e.delay_ns, 0.0);
        assert_eq!(e.edp, 0.0);
    }

    #[test]
    fn truncated_mul_energy_decreases_with_truncation() {
        let model = SystemPowerModel::new();
        let counts: OpCounts = [(FpOp::Mul, 100_000u64)].into_iter().collect();
        let mk = |t| {
            IhwConfig::precise().with_mul(ihw_core::config::MulUnit::Truncated(
                ihw_core::truncated::TruncatedMul::new(t),
            ))
        };
        let t0 = model.energy(&counts, &mk(0));
        let t23 = model.energy(&counts, &mk(23));
        assert!(t23.energy_pj < t0.energy_pj);
    }

    #[test]
    fn empty_counts_are_harmless() {
        let model = SystemPowerModel::new();
        let est = model.estimate(
            &OpCounts::new(),
            &IhwConfig::all_imprecise(),
            PowerShares::new(0.2, 0.1),
        );
        assert_eq!(est.system_savings, 0.0);
    }

    /// `BTreeMap` reference model of the counters: every reader of the
    /// array must agree with it.
    mod reference_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// `(op, n)` records; a third of the counts are zero, which the
        /// map materialised as explicit entries.
        fn arb_records() -> impl Strategy<Value = Vec<(FpOp, u64)>> {
            proptest::collection::vec((0..FpOp::ALL.len(), 0u64..3, 1u64..1_000_000), 0..40)
                .prop_map(|v| {
                    v.into_iter()
                        .map(|(i, zero, n)| (FpOp::ALL[i], if zero == 0 { 0 } else { n }))
                        .collect()
                })
        }

        fn model(records: &[(FpOp, u64)]) -> BTreeMap<FpOp, u64> {
            let mut m = BTreeMap::new();
            for &(op, n) in records {
                *m.entry(op).or_insert(0) += n;
            }
            m
        }

        fn counts(records: &[(FpOp, u64)]) -> OpCounts {
            let mut c = OpCounts::new();
            for &(op, n) in records {
                c.record(op, n);
            }
            c
        }

        fn assert_matches(c: &OpCounts, m: &BTreeMap<FpOp, u64>) {
            for op in FpOp::ALL {
                assert_eq!(c.get(op), m.get(&op).copied().unwrap_or(0), "{op:?}");
            }
            assert_eq!(c.total(), m.values().sum::<u64>());
            let class = |sfu: bool| -> u64 {
                m.iter()
                    .filter(|(op, _)| op.is_sfu() == sfu)
                    .map(|(_, &n)| n)
                    .sum()
            };
            assert_eq!(c.fpu_total(), class(false));
            assert_eq!(c.sfu_total(), class(true));
            let nonzero: Vec<(FpOp, u64)> = m
                .iter()
                .filter(|(_, &n)| n != 0)
                .map(|(&op, &n)| (op, n))
                .collect();
            assert_eq!(
                c.iter().collect::<Vec<_>>(),
                nonzero,
                "iter order and zero skipping"
            );
        }

        #[test]
        fn index_is_position_in_all_and_in_ord() {
            for (i, op) in FpOp::ALL.into_iter().enumerate() {
                assert_eq!(op.index(), i);
            }
            assert!(FpOp::ALL.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn explicit_zero_records_are_invisible() {
            let mut c = OpCounts::new();
            c.record(FpOp::Mul, 0);
            c.record(FpOp::Log2, 0);
            assert_eq!(c, OpCounts::new());
            assert_eq!(c.iter().count(), 0);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn record_and_readers_match_the_map(records in arb_records()) {
                assert_matches(&counts(&records), &model(&records));
            }

            #[test]
            fn merge_matches_the_map(a in arb_records(), b in arb_records()) {
                let mut merged = counts(&a);
                merged.merge(&counts(&b));
                let all: Vec<_> = a.iter().chain(&b).copied().collect();
                assert_matches(&merged, &model(&all));
                prop_assert_eq!(merged, counts(&all));
                prop_assert_eq!(counts(&all), all.iter().copied().collect::<OpCounts>());
            }
        }
    }
}
