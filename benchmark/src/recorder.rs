//! The benchmark's own exact-sample recorder: every latency is kept (ns
//! as `u32`, saturating at 4.29 s; an op slower than that has hit the
//! reply time-out and is a failure, not a sample) and percentiles are
//! nearest-rank over all samples of a time slice of the measured
//! interval. A run reports one of two summaries of its slice values:
//!
//! * the **median** of ten slices (virtual-time runs and every per-layer
//!   number), and
//! * the **calm** value of twenty slices — the lower quintile for a
//!   latency, the upper quintile for a rate — for the end-to-end metrics
//!   of real-thread runs. This host's interference comes in episodes of
//!   seconds to a minute and only ever slows the program down, so the
//!   calm fifth of a run is the program's own speed; measured over the
//!   same runs it repeats up to twice as closely as the median (README,
//!   "Measured on this host").
//!
//! **The percentile trap.** `p` is in `[0, 100]` here, as it is in the
//! program's `sched::Histogram::percentile`. Passing a fraction (`0.99`)
//! asks for the 0.99th percentile — essentially the minimum — which is
//! how `BENCH_server.json` came to report a "p99" below its own median.
//! The unit tests pin the difference.

/// How many equal time slices a measured interval is cut into.
pub const SLICES: usize = 10;

/// Slices for the calm summary, and the percentile of the slice values it
/// reports for a latency (a rate takes the mirror image).
pub const CALM_SLICES: usize = 20;
const CALM_PERCENTILE: f64 = 20.0;

/// One reported number with its sample count and, where it has one, its
/// own relative spread (interquartile range ÷ median).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: u64,
    pub spread: Option<f64>,
}

impl Stat {
    /// A count or ratio that has no spread of its own.
    pub fn plain(value: f64, n: u64) -> Stat {
        Stat {
            value,
            n,
            spread: None,
        }
    }

    /// Median and relative interquartile spread of repeated measurements.
    pub fn of_batches(values: &[f64], n: u64) -> Stat {
        Stat {
            value: median(values),
            n,
            spread: spread(values),
        }
    }

    pub fn scaled(self, k: f64) -> Stat {
        Stat {
            value: self.value * k,
            ..self
        }
    }
}

/// A statistic of ns samples, reported in µs.
pub fn us(stat: Option<Stat>) -> Option<Stat> {
    stat.map(|s| s.scaled(1e-3))
}

/// Latency samples with the time each one completed, relative to the
/// start of the measured interval.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    at_us: Vec<u32>,
    ns: Vec<u32>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            at_us: Vec::with_capacity(n),
            ns: Vec::with_capacity(n),
        }
    }

    /// Records one sample that completed `at_us` into the interval.
    /// Values beyond `u32::MAX` saturate.
    pub fn push(&mut self, at_us: u64, ns: u64) {
        self.at_us.push(u32::try_from(at_us).unwrap_or(u32::MAX));
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// When each sample completed, in recording order.
    pub fn at_us(&self) -> &[u32] {
        &self.at_us
    }

    /// Appends `other`'s samples, moved `shift_us` later.
    pub fn extend_shifted(&mut self, other: &Samples, shift_us: u64) {
        let shift = u32::try_from(shift_us).unwrap_or(u32::MAX);
        self.at_us
            .extend(other.at_us.iter().map(|&at| at.saturating_add(shift)));
        self.ns.extend_from_slice(&other.ns);
    }

    /// Nearest-rank percentile over every sample, in ns.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, p).map(f64::from)
    }

    /// Largest sample, in ns.
    pub fn max(&self) -> Option<f64> {
        self.ns.iter().max().map(|&v| f64::from(v))
    }

    /// The percentile of each of [`SLICES`] equal time slices of
    /// `[0, span_us)`, in ns; empty slices are skipped.
    pub fn slice_percentiles(&self, span_us: u64, p: f64) -> Vec<f64> {
        self.percentiles_of(SLICES, span_us, p)
    }

    fn percentiles_of(&self, slices: usize, span_us: u64, p: f64) -> Vec<f64> {
        let mut sliced: Vec<Vec<u32>> = vec![Vec::new(); slices];
        for (&at, &ns) in self.at_us.iter().zip(&self.ns) {
            sliced[slice_of(at, span_us, slices)].push(ns);
        }
        sliced
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.sort_unstable();
                f64::from(percentile_sorted(s, p).expect("slice is not empty"))
            })
            .collect()
    }

    /// The reported form of a percentile: the median of the slice
    /// percentiles, with the slices' interquartile spread beside it.
    /// `None` when there are no samples.
    pub fn slice_median(&self, span_us: u64, p: f64) -> Option<Stat> {
        let per_slice = self.slice_percentiles(span_us, p);
        if per_slice.is_empty() {
            return None;
        }
        Some(Stat::of_batches(&per_slice, self.len() as u64))
    }

    /// The calm form of a latency percentile: the lower quintile of the
    /// percentiles of [`CALM_SLICES`] slices (the fourth lowest of
    /// twenty), with the slices' interquartile spread beside it.
    pub fn slice_calm(&self, span_us: u64, p: f64) -> Option<Stat> {
        let mut per_slice = self.percentiles_of(CALM_SLICES, span_us, p);
        let spread = spread(&per_slice);
        per_slice.sort_by(f64::total_cmp);
        let value = *per_slice.get(rank(CALM_PERCENTILE, per_slice.len())?)?;
        Some(Stat {
            value,
            n: self.len() as u64,
            spread,
        })
    }
}

/// The calm form of a completion rate: samples of all `streams` counted
/// per slice of [`CALM_SLICES`], as a rate per second; the upper quintile
/// of the slice rates (the fourth highest of twenty).
pub fn calm_rate(span_us: u64, streams: &[&Samples]) -> Stat {
    let mut counts = [0u64; CALM_SLICES];
    for s in streams {
        for &at in &s.at_us {
            counts[slice_of(at, span_us, CALM_SLICES)] += 1;
        }
    }
    let slice_s = span_us.max(1) as f64 / 1e6 / CALM_SLICES as f64;
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_s).collect();
    let spread = spread(&rates);
    // Fastest first: the mirror image of a latency's lower quintile.
    rates.sort_by(|a, b| b.total_cmp(a));
    Stat {
        value: rates[rank(CALM_PERCENTILE, CALM_SLICES).expect("there are slices")],
        n: counts.iter().sum(),
        spread,
    }
}

/// Which of `slices` equal slices of `[0, span_us)` a sample that
/// completed at `at_us` falls in; late samples land in the last.
fn slice_of(at_us: u32, span_us: u64, slices: usize) -> usize {
    (u64::from(at_us) * slices as u64 / span_us.max(1)).min(slices as u64 - 1) as usize
}

/// Index of the nearest-rank `p`-th percentile in an ascending sequence
/// of `len` values; `p` in `[0, 100]` (values outside are clamped).
fn rank(p: f64, len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    // The epsilon keeps products such as 0.8 * 5 from rounding up a rank.
    let rank = (p / 100.0 * len as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, len) - 1)
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 100]`
/// (values outside are clamped). `None` on an empty slice.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    Some(sorted[rank(p, sorted.len())?])
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver's spread check uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, ld) = (4usize, v.len());
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `None` with fewer than
/// two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_hand_computed_vector() {
        // 1..=100: the p-th percentile is exactly p.
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50));
        assert_eq!(percentile_sorted(&v, 90.0), Some(90));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        // Five samples: ranks ceil(p/100 * 5).
        let w = [10, 20, 30, 40, 1000];
        assert_eq!(percentile_sorted(&w, 50.0), Some(30));
        assert_eq!(percentile_sorted(&w, 80.0), Some(40));
        assert_eq!(percentile_sorted(&w, 81.0), Some(1000));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn a_fraction_is_not_a_percentile() {
        // The trap: 0.99 is the 0.99th percentile (next to the minimum),
        // 99 is the tail.
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.99), Some(10));
        assert_eq!(percentile_sorted(&v, 99.0), Some(990));
        assert_eq!(percentile_sorted(&v, 0.50), Some(5));
        assert_eq!(percentile_sorted(&v, 50.0), Some(500));
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Ten slices of 1 ms each; slice 3 is a stall (all samples 900 µs),
        // the rest sit at 40 µs. A whole-run p99 would report the stall;
        // the slice median does not.
        let mut s = Samples::default();
        for slice in 0..10u64 {
            for k in 0..100u64 {
                let ns = if slice == 3 { 900_000 } else { 40_000 + k };
                s.push(slice * 1_000 + k * 10, ns);
            }
        }
        let per = s.slice_percentiles(10_000, 99.0);
        assert_eq!(per.len(), 10);
        assert_eq!(per[3], 900_000.0);
        assert_eq!(per[0], 40_098.0);
        let stat = s.slice_median(10_000, 99.0).unwrap();
        assert_eq!(stat.value, 40_098.0);
        assert_eq!(stat.n, 1000);
        assert_eq!(s.percentile(99.0), Some(900_000.0));
        assert_eq!(s.max(), Some(900_000.0));
    }

    #[test]
    fn calm_value_is_the_fourth_lowest_of_twenty_slices() {
        // Twenty slices of 1 ms; slice i holds one sample of (i + 1) µs,
        // written in reverse so order in time is not order in value.
        let mut s = Samples::default();
        for slice in 0..20u64 {
            s.push(slice * 1_000 + 500, (20 - slice) * 1_000);
        }
        let stat = s.slice_calm(20_000, 50.0).unwrap();
        assert_eq!(stat.value, 4_000.0);
        assert_eq!(stat.n, 20);
        // An interference episode over half the run does not move it.
        let mut noisy = Samples::default();
        for slice in 0..20u64 {
            let ns = if slice < 10 { 90_000 } else { 5_000 + slice };
            noisy.push(slice * 1_000 + 500, ns);
        }
        assert_eq!(noisy.slice_calm(20_000, 50.0).unwrap().value, 5_013.0);
        assert_eq!(noisy.slice_median(20_000, 50.0).unwrap().value, 47_509.0);
        assert_eq!(Samples::default().slice_calm(20_000, 50.0), None);
    }

    #[test]
    fn calm_rate_is_the_fourth_highest_of_twenty_slices() {
        // Slice i of twenty 1 ms slices completes i + 1 operations, split
        // over two streams.
        let (mut a, mut b) = (Samples::default(), Samples::default());
        for slice in 0..20u64 {
            for k in 0..=slice {
                let stream = if k % 2 == 0 { &mut a } else { &mut b };
                stream.push(slice * 1_000 + k, 1);
            }
        }
        let stat = calm_rate(20_000, &[&a, &b]);
        // 17 operations in 1 ms.
        assert_eq!(stat.value, 17_000.0);
        assert_eq!(stat.n, 210);
    }

    #[test]
    fn samples_past_the_span_land_in_the_last_slice() {
        let mut s = Samples::default();
        s.push(5, 1);
        s.push(99, 2);
        s.push(250, 3); // late: clamped into slice 9
        let per = s.slice_percentiles(100, 100.0);
        assert_eq!(per, vec![1.0, 3.0]);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut s = Samples::default();
        s.push(u64::MAX, u64::MAX);
        assert_eq!(s.max(), Some(f64::from(u32::MAX)));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }
}
