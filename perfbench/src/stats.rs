//! Sample summaries: medians, percentiles and the tail the sample
//! supports.

/// Sorted samples of one timing (any unit).
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`; NaN when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => 0.5 * (self.0[n / 2 - 1] + self.0[n / 2]),
        }
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest of p90, p99, p99.9 and p99.99 with at least ten
    /// samples beyond it, as `(label, value)`.
    pub fn supported_tail(&self) -> Option<(&'static str, f64)> {
        [
            ("p99.99", 0.9999),
            ("p99.9", 0.999),
            ("p99", 0.99),
            ("p90", 0.90),
        ]
        .into_iter()
        .find(|&(_, q)| (self.0.len() as f64) * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, self.percentile(q)))
    }

    /// `median=… <tail>=… n=…`, scaled by `scale` for display.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let mut out = format!("median {:.4} {unit}", self.median() * scale);
        if let Some((label, v)) = self.supported_tail() {
            out.push_str(&format!(", {label} {:.4} {unit}", v * scale));
        }
        out.push_str(&format!(", n={}", self.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_supported_tail() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 500.5);
        assert_eq!(s.percentile(0.99), 990.0);
        assert_eq!(s.supported_tail(), Some(("p99", 990.0)));
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).supported_tail(), None);
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
    }
}
