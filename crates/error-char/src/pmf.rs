//! Log₂-binned error probability mass function (Figures 8–9).
//!
//! Each recorded sample compares an imprecise result against its precise
//! reference. Non-zero relative errors are binned by
//! `x = ⌈log₂ |ERR%|⌉` — the paper's Figure 8 axis — so a bar at `x = −2`
//! is the probability that the error percentage lies in `(2⁻³%, 2⁻²%]`.
//!
//! The bins are one dense counter array, indexed by bin, so recording a
//! sample is an array increment rather than a map update.

use serde::{Deserialize, Serialize};

/// Smallest finite bin: `⌈log₂ p⌉` of the smallest positive `f64`
/// (`2⁻¹⁰⁷⁴`).
const MIN_FINITE_BIN: i32 = -1074;
/// Largest finite bin: `⌈log₂ p⌉` of any finite `f64` is at most 1024.
const MAX_FINITE_BIN: i32 = 1024;
/// One slot per finite bin plus the two saturated edges of the
/// `as i32` cast: `i32::MIN` (a percentage of 0, where `log₂` is −∞)
/// first and `i32::MAX` (an infinite percentage) last. A NaN error
/// casts to bin 0, a finite bin.
const SLOTS: usize = (MAX_FINITE_BIN - MIN_FINITE_BIN) as usize + 3;

/// Counter slot of `bin`, or `None` for a bin no sample can land in.
fn slot(bin: i32) -> Option<usize> {
    match bin {
        i32::MIN => Some(0),
        i32::MAX => Some(SLOTS - 1),
        MIN_FINITE_BIN..=MAX_FINITE_BIN => Some((bin - MIN_FINITE_BIN) as usize + 1),
        _ => None,
    }
}

/// Inverse of [`slot`].
fn bin_at(slot: usize) -> i32 {
    match slot {
        0 => i32::MIN,
        s if s == SLOTS - 1 => i32::MAX,
        s => s as i32 - 1 + MIN_FINITE_BIN,
    }
}

/// Error distribution of an imprecise unit under a given input
/// distribution, with the summary statistics of §4.2.
///
/// Bin counts live in a dense array spanning every bin an `f64` sample
/// can produce, so readers that walk the bins ([`ErrorPmf::iter`],
/// [`ErrorPmf::mode_bin`], [`ErrorPmf::tail_probability`]) visit the
/// non-empty ones in ascending bin order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorPmf {
    bins: Vec<u64>,
    exact_matches: u64,
    total: u64,
    max_err: f64,
    sum_err: f64,
    max_dist: f64,
    sum_dist: f64,
}

impl Default for ErrorPmf {
    fn default() -> Self {
        ErrorPmf {
            bins: vec![0; SLOTS],
            exact_matches: 0,
            total: 0,
            max_err: 0.0,
            sum_err: 0.0,
            max_dist: 0.0,
            sum_dist: 0.0,
        }
    }
}

impl ErrorPmf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(approx, exact)` sample pair.
    ///
    /// Samples whose reference is exactly zero are counted as exact when
    /// the approximation is also zero and are otherwise attributed to the
    /// largest bin (relative error is undefined there, but the error
    /// distance statistics still accumulate).
    pub fn record(&mut self, approx: f64, exact: f64) {
        self.total += 1;
        let dist = (approx - exact).abs();
        self.sum_dist += dist;
        self.max_dist = self.max_dist.max(dist);
        if dist == 0.0 {
            self.exact_matches += 1;
            return;
        }
        let rel = if exact != 0.0 {
            dist / exact.abs()
        } else {
            f64::INFINITY
        };
        self.max_err = self.max_err.max(rel);
        self.sum_err += rel;
        let pct = rel * 100.0;
        let bin = pct.log2().ceil() as i32;
        self.bins[slot(bin).expect("every f64 percentage has a bin")] += 1;
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &ErrorPmf) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.exact_matches += other.exact_matches;
        self.total += other.total;
        self.max_err = self.max_err.max(other.max_err);
        self.sum_err += other.sum_err;
        self.max_dist = self.max_dist.max(other.max_dist);
        self.sum_dist += other.sum_dist;
    }

    /// Non-empty `(bin, count)` pairs in ascending bin order.
    fn counts(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(s, &c)| (bin_at(s), c))
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of samples with any error at all ("the sum of all bars").
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.exact_matches) as f64 / self.total as f64
        }
    }

    /// Maximum observed relative error, in percent.
    pub fn max_error_pct(&self) -> f64 {
        self.max_err * 100.0
    }

    /// Mean relative error over *all* samples (exact ones contribute 0),
    /// in percent.
    pub fn mean_error_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_err / self.total as f64 * 100.0
        }
    }

    /// Mean error distance (MED): mean of `|approx − exact|`.
    pub fn med(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_dist / self.total as f64
        }
    }

    /// Worst-case error distance (WED): max of `|approx − exact|`.
    pub fn wed(&self) -> f64 {
        self.max_dist
    }

    /// Probability mass of one `⌈log₂ ERR%⌉` bin.
    pub fn bin_probability(&self, bin: i32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            slot(bin).map_or(0, |s| self.bins[s]) as f64 / self.total as f64
        }
    }

    /// Iterates `(bin, probability)` pairs of the non-empty bins in
    /// ascending bin order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.counts().map(move |(b, c)| (b, c as f64 / total))
    }

    /// The bin holding the largest probability mass, if any error
    /// occurred (the highest such bin on a tie).
    pub fn mode_bin(&self) -> Option<i32> {
        self.counts().max_by_key(|&(_, c)| c).map(|(b, _)| b)
    }

    /// Probability that the error percentage exceeds `threshold_pct`.
    ///
    /// Used in §4.2 to show that the adder's error-magnitude explosion
    /// "has a probability very close to zero when the error magnitude is
    /// larger than 8%".
    pub fn tail_probability(&self, threshold_pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cut = threshold_pct.log2();
        let count: u64 = self
            .counts()
            .filter(|&(b, _)| (b as f64) > cut) // bins strictly above the threshold bin
            .map(|(_, c)| c)
            .sum();
        count as f64 / self.total as f64
    }

    /// Serialises the distribution as CSV: `bin,probability` rows plus a
    /// trailing summary comment — convenient for external plotting.
    pub fn to_csv(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::from("bin_log2_err_pct,probability\n");
        for (bin, p) in self.iter() {
            let _ = writeln!(out, "{bin},{p}");
        }
        let _ = writeln!(
            out,
            "# {label}: error_rate={} max_pct={} mean_pct={} med={} wed={}",
            self.error_rate(),
            self.max_error_pct(),
            self.mean_error_pct(),
            self.med(),
            self.wed()
        );
        out
    }

    /// Renders an ASCII bar-chart in the style of Figure 8.
    pub fn to_ascii_chart(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{label}: error rate {:.2}%, max {:.3}%, mean {:.4}%",
            self.error_rate() * 100.0,
            self.max_error_pct(),
            self.mean_error_pct()
        );
        for (bin, p) in self.iter() {
            let bar = "#".repeat((p * 200.0).round() as usize);
            let _ = writeln!(out, "  2^{bin:>4} % | {bar} {:.3}%", p * 100.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pmf() {
        let p = ErrorPmf::new();
        assert_eq!(p.total(), 0);
        assert_eq!(p.error_rate(), 0.0);
        assert_eq!(p.max_error_pct(), 0.0);
        assert_eq!(p.mode_bin(), None);
    }

    #[test]
    fn exact_samples_only() {
        let mut p = ErrorPmf::new();
        for _ in 0..10 {
            p.record(1.0, 1.0);
        }
        assert_eq!(p.error_rate(), 0.0);
        assert_eq!(p.total(), 10);
        assert_eq!(p.med(), 0.0);
        assert_eq!(p.wed(), 0.0);
    }

    #[test]
    fn binning_matches_formula() {
        let mut p = ErrorPmf::new();
        // 3% error: log2(3) ≈ 1.58 → bin 2 (between 2% and 4%).
        p.record(1.03, 1.0);
        assert!(p.bin_probability(2) > 0.99);
        // 0.2% error: log2(0.2) ≈ -2.32 → bin -2 (between 2^-3 and 2^-2 %).
        let mut q = ErrorPmf::new();
        q.record(1.002, 1.0);
        assert!(q.bin_probability(-2) > 0.99);
    }

    #[test]
    fn large_error_bins() {
        // 50% error: log2(50) ≈ 5.64 → bin 6 (between 32% and 64%).
        let mut p = ErrorPmf::new();
        p.record(1.5, 1.0);
        assert!(p.bin_probability(6) > 0.99);
        assert_eq!(p.mode_bin(), Some(6));
    }

    #[test]
    fn stats_accumulate() {
        let mut p = ErrorPmf::new();
        p.record(1.1, 1.0); // 10% err, dist 0.1
        p.record(2.0, 2.0); // exact
        p.record(3.3, 3.0); // 10% err, dist 0.3
        assert_eq!(p.total(), 3);
        assert!((p.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.max_error_pct() - 10.0).abs() < 1e-9);
        assert!((p.med() - (0.1 + 0.3) / 3.0).abs() < 1e-12);
        assert!((p.wed() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ErrorPmf::new();
        a.record(1.05, 1.0);
        let mut b = ErrorPmf::new();
        b.record(1.0, 1.0);
        b.record(0.9, 1.0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total(), 3);
        assert!((m.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.max_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_probability() {
        let mut p = ErrorPmf::new();
        p.record(1.01, 1.0); // ≈1% → bin ≤ 1, below the 8% threshold
        p.record(1.2, 1.0); // ≈20% → bin 5, above it
        assert!((p.tail_probability(8.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.tail_probability(100.0), 0.0);
    }

    #[test]
    fn zero_reference_nonzero_approx_counts_as_error() {
        let mut p = ErrorPmf::new();
        p.record(0.5, 0.0);
        assert_eq!(p.error_rate(), 1.0);
        assert!(p.max_error_pct().is_infinite());
    }

    #[test]
    fn csv_export() {
        let mut p = ErrorPmf::new();
        p.record(1.05, 1.0);
        let csv = p.to_csv("unit");
        assert!(csv.starts_with("bin_log2_err_pct,probability"));
        assert!(csv.contains("# unit:"));
        assert!(csv.lines().count() >= 3);
    }

    #[test]
    fn ascii_chart_renders() {
        let mut p = ErrorPmf::new();
        p.record(1.05, 1.0);
        let chart = p.to_ascii_chart("demo");
        assert!(chart.contains("demo"));
        assert!(chart.contains("2^"));
    }

    /// `BTreeMap` reference model of the bins: every bin reader must
    /// agree with it.
    mod reference_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::fmt::Write;

        #[derive(Default)]
        struct MapBins {
            bins: BTreeMap<i32, u64>,
            total: u64,
        }

        impl MapBins {
            fn record(&mut self, approx: f64, exact: f64) {
                self.total += 1;
                let dist = (approx - exact).abs();
                if dist == 0.0 {
                    return;
                }
                let rel = if exact != 0.0 {
                    dist / exact.abs()
                } else {
                    f64::INFINITY
                };
                let bin = (rel * 100.0).log2().ceil() as i32;
                *self.bins.entry(bin).or_insert(0) += 1;
            }

            fn iter(&self) -> Vec<(i32, f64)> {
                let total = self.total.max(1) as f64;
                self.bins
                    .iter()
                    .map(|(&b, &c)| (b, c as f64 / total))
                    .collect()
            }

            fn bin_probability(&self, bin: i32) -> f64 {
                if self.total == 0 {
                    0.0
                } else {
                    *self.bins.get(&bin).unwrap_or(&0) as f64 / self.total as f64
                }
            }

            fn mode_bin(&self) -> Option<i32> {
                self.bins.iter().max_by_key(|(_, &c)| c).map(|(&b, _)| b)
            }

            fn tail_probability(&self, threshold_pct: f64) -> f64 {
                if self.total == 0 {
                    return 0.0;
                }
                let cut = threshold_pct.log2();
                let count: u64 = self
                    .bins
                    .iter()
                    .filter(|(&b, _)| (b as f64) > cut)
                    .map(|(_, &c)| c)
                    .sum();
                count as f64 / self.total as f64
            }

            /// The CSV bin rows; the trailing summary line is built from
            /// `pmf`'s scalar statistics, which the bin layout does not
            /// touch.
            fn to_csv(&self, label: &str, pmf: &ErrorPmf) -> String {
                let mut out = String::from("bin_log2_err_pct,probability\n");
                for (bin, p) in self.iter() {
                    let _ = writeln!(out, "{bin},{p}");
                }
                let _ = writeln!(
                    out,
                    "# {label}: error_rate={} max_pct={} mean_pct={} med={} wed={}",
                    pmf.error_rate(),
                    pmf.max_error_pct(),
                    pmf.mean_error_pct(),
                    pmf.med(),
                    pmf.wed()
                );
                out
            }
        }

        /// A sample operand: the IEEE edge values (zeros, infinities,
        /// NaN, the smallest subnormal, random subnormals, `f64::MAX`),
        /// arbitrary bit patterns, and ordinary magnitudes.
        fn operand(kind: u64, bits: u64) -> f64 {
            match kind % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => f64::from_bits(1),
                6 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
                7 => f64::MAX,
                8 => f64::from_bits(bits),
                _ => 0.5 + (bits >> 11) as f64 / (1u64 << 53) as f64,
            }
        }

        /// An `(approx, exact)` pair: an exact match, a nearby
        /// approximation (relative error from 2⁻⁵² up to ~2⁸), or two
        /// independent operands.
        fn arb_pair() -> impl Strategy<Value = (f64, f64)> {
            (
                0u64..4,
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            )
                .prop_map(|(shape, ka, ba, ke, be)| {
                    let exact = operand(ke, be);
                    let approx = match shape {
                        0 => exact,
                        1 => {
                            let eps = f64::from_bits(((0x3cb + ba % 61) << 52) | (ba >> 12));
                            exact * (1.0 + eps)
                        }
                        _ => operand(ka, ba),
                    };
                    (approx, exact)
                })
        }

        fn assert_matches(pmf: &ErrorPmf, map: &MapBins, probes: &[i32]) {
            assert_eq!(pmf.total(), map.total);
            assert_eq!(pmf.iter().collect::<Vec<_>>(), map.iter());
            for &bin in map.bins.keys().chain(probes) {
                assert_eq!(
                    pmf.bin_probability(bin),
                    map.bin_probability(bin),
                    "bin {bin}"
                );
            }
            assert_eq!(pmf.mode_bin(), map.mode_bin());
            for t in [
                0.0,
                1e-300,
                1e-6,
                0.3,
                8.0,
                100.0,
                1e300,
                f64::INFINITY,
                f64::NAN,
            ] {
                assert_eq!(
                    pmf.tail_probability(t),
                    map.tail_probability(t),
                    "threshold {t}"
                );
            }
            assert_eq!(pmf.to_csv("unit"), map.to_csv("unit", pmf));
        }

        const PROBES: [i32; 9] = [i32::MIN, -2000, -1075, -1074, -1, 0, 1024, 1025, i32::MAX];

        #[test]
        fn slots_cover_every_bin_including_the_saturated_edges() {
            for bin in [i32::MIN, MIN_FINITE_BIN, -2, 0, 6, MAX_FINITE_BIN, i32::MAX] {
                let s = slot(bin).expect("bin has a slot");
                assert_eq!(bin_at(s), bin);
            }
            assert_eq!(slot(i32::MIN), Some(0));
            assert_eq!(slot(i32::MAX), Some(SLOTS - 1));
            for bin in [
                i32::MIN + 1,
                MIN_FINITE_BIN - 1,
                MAX_FINITE_BIN + 1,
                i32::MAX - 1,
            ] {
                assert_eq!(slot(bin), None, "bin {bin}");
            }
            // The cast saturates exactly onto the edge slots and the
            // finite extremes stay in range.
            assert_eq!(0f64.log2().ceil() as i32, i32::MIN);
            assert_eq!(f64::INFINITY.log2().ceil() as i32, i32::MAX);
            assert_eq!(f64::NAN.log2().ceil() as i32, 0);
            assert_eq!(f64::from_bits(1).log2().ceil() as i32, MIN_FINITE_BIN);
            assert_eq!(f64::MAX.log2().ceil() as i32, MAX_FINITE_BIN);
        }

        #[test]
        fn edge_samples_land_in_their_bins() {
            let mut pmf = ErrorPmf::new();
            pmf.record(0.5, 0.0); // zero reference: i32::MAX
            pmf.record(f64::INFINITY, 1.0); // infinite error: i32::MAX
            pmf.record(f64::NAN, 1.0); // NaN error: bin 0
            pmf.record(1.0, f64::INFINITY); // ∞/∞: NaN, bin 0
            pmf.record(f64::MAX, f64::from_bits(1)); // overflowing ratio: i32::MAX
            assert_eq!(pmf.bin_probability(i32::MAX), 3.0 / 5.0);
            assert_eq!(pmf.bin_probability(0), 2.0 / 5.0);
            assert_eq!(pmf.mode_bin(), Some(i32::MAX));
            let bins: Vec<i32> = pmf.iter().map(|(b, _)| b).collect();
            assert_eq!(bins, [0, i32::MAX]);
        }

        #[test]
        fn mode_ties_resolve_to_the_highest_bin() {
            let mut pmf = ErrorPmf::new();
            pmf.record(1.03, 1.0); // bin 2
            pmf.record(1.5, 1.0); // bin 6
            pmf.record(0.5, 0.0); // i32::MAX
            pmf.record(1.002, 1.0); // bin -2
            assert_eq!(pmf.mode_bin(), Some(i32::MAX));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn serial_and_merged_records_match_the_map(
                pairs in proptest::collection::vec(arb_pair(), 0..200),
                parts in 1usize..6
            ) {
                let mut map = MapBins::default();
                let mut serial = ErrorPmf::new();
                for &(a, e) in &pairs {
                    map.record(a, e);
                    serial.record(a, e);
                }
                assert_matches(&serial, &map, &PROBES);

                let mut merged = ErrorPmf::new();
                for chunk in pairs.chunks(pairs.len().div_ceil(parts).max(1)) {
                    let mut partial = ErrorPmf::new();
                    for &(a, e) in chunk {
                        partial.record(a, e);
                    }
                    merged.merge(&partial);
                }
                assert_matches(&merged, &map, &PROBES);
            }
        }
    }
}
