//! Summary arithmetic shared by every workload: percentiles under the
//! "at least ten samples beyond" rule, medians, the ratios the per-layer
//! metrics are built from, and the request-stream digest.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, returned only
/// when at least [`MIN_BEYOND`] samples lie beyond it; `None` otherwise
/// (a tail estimate resting on fewer samples is noise).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank: the smallest k with k/n >= q.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work
/// of this kind in the workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hits over lookups.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Largest over mean of per-shard job counts (1.0 = perfectly even).
pub fn skew(per_shard: &[u64]) -> f64 {
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    ratio(
        max,
        mean(&per_shard.iter().map(|&j| j as f64).collect::<Vec<_>>()),
    )
}

/// Share of an end-to-end time the layer times do not account for:
/// `|1 - attributed / total|`, so both under- and over-attribution
/// count against the tolerance.
pub fn unattributed_share(attributed: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        (1.0 - attributed / total).abs()
    }
}

/// Traced wall over untraced wall, minus one.
pub fn overhead(traced: f64, untraced: f64) -> f64 {
    ratio(traced, untraced) - 1.0
}

/// 64-bit FNV-1a, the digest the benchmark prints for its request
/// streams (equal seeds send equal bytes).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten beyond it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None, "only nine beyond");
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        // The median of 20 samples leaves ten beyond; of 19, nine.
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn ratio_arithmetic() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(hit_ratio(199, 1), 0.995);
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(skew(&[30, 10]), 1.5);
        assert_eq!(skew(&[7, 7]), 1.0);
        assert_eq!(skew(&[]), 0.0);
        assert!((unattributed_share(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((unattributed_share(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_share(5.0, 0.0), 0.0);
        assert!((overhead(10.5, 10.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv(b"foobar"));
    }
}
