//! Seeded randomness, FNV digests and the percentile arithmetic every
//! reported number goes through.

use std::time::Instant;

/// splitmix64: the workspace's standard cheap deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run, so the streams of one
    /// `--seed` (schedules per thread, node seeds, probe keys) never
    /// overlap.
    pub fn stream(seed: u64, label: &str, index: u64) -> Rng {
        let mut rng = Rng(seed ^ fnv1a(FNV_OFFSET, label.as_bytes()) ^ index.wrapping_mul(GOLDEN));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Zipfian popularity over `0..n`: rank `r` (0 = hottest) is drawn with
/// probability ∝ 1/(r+1)^s, by binary search in the cumulative table.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for entry in &mut cdf {
            *entry /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p <= u).min(self.cdf.len() - 1)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest element with at least `q·n` elements at or below it. An empty
/// slice has no quantiles.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// The conventional median: the mean of the two middle elements for an
/// even count.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(samples[n / 2]),
        _ => Some((samples[n / 2 - 1] + samples[n / 2]) / 2.0),
    }
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The interquartile mean: the mean of what is left of `samples` once the
/// lowest and the highest quarter are dropped. It averages over half the
/// samples where a median rests on one or two, and like a median it does
/// not move with what happens in the dropped quarters.
pub fn midmean(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let cut = samples.len() / 4;
    mean(&samples[cut..samples.len() - cut])
}

/// Consecutive slices a window's samples are cut into for the figures a
/// short slow spell of the shared host would otherwise own. A p99 is one:
/// if the host doubles every latency for a tenth of the window, half of
/// that tenth lands beyond the window's true p99 and the p99 of all samples
/// reads a third higher. Taken slice by slice and reported as the
/// [`midmean`] over the slices, the spell spoils the slices it falls on and
/// those are dropped — as long as spells cover under a quarter of the
/// window. (Not the median over the slices: latencies rise through a window
/// as metadata grows, so the median slice is always the middle one and the
/// figure would rest on that one slice's luck. And not for a p50 or a
/// throughput, which such a spell moves by a few percent only: there the
/// whole window is the steadier estimate, measured in the README.) Twenty
/// keeps a slice of the rarest sample kind (`node-read`'s puts) above a
/// thousand samples, so a slice's p99 still has ten samples beyond it.
pub const SLICES: usize = 20;

/// The [`midmean`] over `slices` consecutive slices of `samples` — in the
/// order they were taken — of `stat` of each slice. Sorts inside the slices
/// only, so calling it again with another `stat` sees the same slices.
pub fn sliced(
    samples: &mut [f64],
    slices: usize,
    stat: impl Fn(&mut [f64]) -> Option<f64>,
) -> Option<f64> {
    let len = samples.len().div_ceil(slices.max(1)).max(1);
    let mut stats: Vec<f64> = samples.chunks_mut(len).filter_map(stat).collect();
    midmean(&mut stats)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method) — the driver judges run-to-run spread
/// with exactly this, so `--compare` must too. Needs two values.
pub fn quartiles(samples: &mut [f64]) -> Option<(f64, f64, f64)> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn spread(samples: &mut [f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| ((q3 - q1) / q2).abs())
}

/// Failures of a run (or of one thread of it): how many, and the first
/// few spelled out for stderr.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    const NOTES_KEPT: usize = 16;

    pub fn fail(&mut self, note: impl Into<String>) {
        self.count += 1;
        self.note(note);
    }

    /// A remark that is not a failure (the traced pass's self times).
    pub fn note(&mut self, note: impl Into<String>) {
        if self.notes.len() < Self::NOTES_KEPT {
            self.notes.push(note.into());
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        other.notes.into_iter().for_each(|note| self.note(note));
    }
}

/// Nanoseconds since `epoch`, the one clock all spans and oracle events of
/// a run share.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&sorted, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        // Eight values: the two lowest and the two highest go.
        let mut values = [900.0, 1.0, 2.0, 10.0, 20.0, 30.0, 40.0, 800.0];
        assert_eq!(midmean(&mut values), Some(25.0));
        assert_eq!(midmean(&mut [7.0]), Some(7.0));
        assert_eq!(midmean(&mut [1.0, 2.0, 4.0]), Some(7.0 / 3.0));
        assert_eq!(midmean(&mut []), None);
    }

    #[test]
    fn sliced_figures_shrug_off_a_slow_spell() {
        // 20 slices of 100 samples at 10.0; a spell doubles four of them.
        let mut samples = vec![10.0; 2000];
        samples[300..700].iter_mut().for_each(|s| *s = 20.0);
        assert_eq!(sliced(&mut samples, SLICES, |slice| quantile(slice, 0.5)), Some(10.0));
        // Slices are consecutive in the order given, not sorted across.
        let mut ramp: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(sliced(&mut ramp, 4, |slice| quantile(slice, 1.0)), Some((19.0 + 29.0) / 2.0));
        assert_eq!(sliced(&mut [], SLICES, |slice| quantile(slice, 0.5)), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&mut [160.0, 10.0, 80.0, 20.0, 40.0]), Some((15.0, 40.0, 120.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&mut [1.0]), None);
        let spread = spread(&mut [10.0, 20.0, 40.0, 80.0, 160.0]).unwrap();
        assert!((spread - 105.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn streams_are_seeded_and_distinct() {
        let draw = |seed, label, index| Rng::stream(seed, label, index).next_u64();
        assert_eq!(draw(7, "schedule", 0), draw(7, "schedule", 0));
        assert_ne!(draw(7, "schedule", 0), draw(8, "schedule", 0));
        assert_ne!(draw(7, "schedule", 0), draw(7, "schedule", 1));
        assert_ne!(draw(7, "schedule", 0), draw(7, "nodes", 0));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::stream(1, "zipf-test", 0);
        let mut hits = [0usize; 1000];
        for _ in 0..100_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99] && hits[99] > 0);
        // Rank 0 carries 1/H(1000, 0.99) ≈ 13% of the mass.
        assert!((11_000..16_000).contains(&hits[0]), "rank 0 drew {}", hits[0]);
    }
}
