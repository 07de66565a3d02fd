//! Sample statistics and the output digest.

/// The value at quantile `q` of `samples` by the nearest-rank rule
/// (the smallest sample with at least `q` of the samples at or below
/// it). `samples` need not be sorted; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 0.5 quantile).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether a timing quantile is supported by the sample: at least ten
/// samples lie beyond it. A p90 needs 100 samples.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// The work rate that a share `share` of the passes reach: the
/// `1 - share` quantile of the per-pass `work / seconds`. At `share`
/// 0.5 this is the work of one pass over the median pass time; rating
/// pass by pass also serves passes of unequal work (a workload whose
/// op list continues rather than replays).
pub fn rate_reached(passes: &[(u64, f64)], share: f64) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|&(work, secs)| work as f64 / secs)
        .collect();
    quantile(&rates, 1.0 - share)
}

/// The mean over op-list positions of each position's quantile `q`:
/// an op time that weights every op of the list equally, however much
/// the ops differ from each other. Empty positions are skipped.
pub fn quantile_per_position(positions: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = positions
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| quantile(p, q))
        .collect();
    if per.is_empty() {
        return 0.0;
    }
    per.iter().sum::<f64>() / per.len() as f64
}

/// 64-bit FNV-1a over everything fed to it: the digest of the
/// simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds one integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Feeds the `Debug` rendering of a value: every field of a plain
    /// data report, floats printed exactly.
    pub fn debug(&mut self, value: &impl std::fmt::Debug) -> &mut Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_quantile_needs_ten_samples_beyond_it() {
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        // p99 needs a thousand.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
    }

    #[test]
    fn throughput_comes_from_the_pass_at_the_share() {
        // Five equal-work passes: the median pass (2 s) sets the rate
        // half the passes reach, the 2.5 s pass the rate three in four
        // reach.
        let passes = [(100, 2.0), (100, 9.0), (100, 2.5), (100, 0.5), (100, 2.0)];
        assert_eq!(rate_reached(&passes, 0.5), 50.0);
        assert_eq!(rate_reached(&passes, 0.75), 40.0);
        // Unequal work is rated pass by pass.
        assert_eq!(rate_reached(&[(10, 1.0), (40, 2.0), (90, 3.0)], 0.5), 20.0);
    }

    #[test]
    fn op_time_weights_every_position_equally() {
        // A cheap op with many samples does not outweigh a dear one.
        let cheap: Vec<f64> = (1..=8).map(f64::from).collect();
        let dear = vec![100.0, 300.0, 200.0, 400.0];
        assert_eq!(
            quantile_per_position(&[cheap, dear, vec![]], 0.75),
            (6.0 + 300.0) / 2.0
        );
        assert_eq!(quantile_per_position(&[], 0.75), 0.0);
    }

    #[test]
    fn digest_depends_on_every_byte_and_its_order() {
        let d = |xs: &[u64]| {
            let mut d = Digest::default();
            for &x in xs {
                d.u64(x);
            }
            d.value()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1, 2]), d(&[1, 3]));
    }
}
