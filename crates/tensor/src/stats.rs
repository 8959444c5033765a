//! Observer statistics: the measurements PTQ calibration is built on.
//!
//! Range calibration in the paper (§3, Appendix A.1) uses the calibrated
//! absmax by default and compares against percentile, KL-divergence and
//! MSE-sweep methods. All of those reduce to the statistics implemented
//! here: running min/max/absmax, percentiles and histograms.

use serde::{Deserialize, Serialize};

/// Running range of everything an observer has seen: what the recipes
/// read (thresholds read `absmax`, asymmetric INT8 codecs `min`/`max`).
///
/// `update` and `merge` are exactly associative: ties between −0 and +0
/// go to −0 for `min` and +0 for `max` (the IEEE total order), so any
/// split of the data into batches yields the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorStats {
    /// Minimum finite value observed.
    pub min: f32,
    /// Maximum finite value observed.
    pub max: f32,
    /// Largest absolute value observed.
    pub absmax: f32,
    /// Number of finite elements observed.
    pub count: usize,
}

impl Default for TensorStats {
    fn default() -> Self {
        TensorStats {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            absmax: 0.0,
            count: 0,
        }
    }
}

/// Lanes of the [`TensorStats::update`] fold.
const LANES: usize = 8;

/// `x`'s rank in the IEEE total order as an `i32`: its sign-magnitude
/// bits turned two's complement, so −0 ranks just below +0 and integer
/// min/max order finite floats and infinities.
fn key(x: f32) -> i32 {
    let b = x.to_bits() as i32;
    b ^ ((b >> 31) & i32::MAX)
}

/// The float of rank `k` (the inverse of [`key`], itself an involution on
/// the bits).
fn of_key(k: i32) -> f32 {
    f32::from_bits((k ^ ((k >> 31) & i32::MAX)) as u32)
}

/// One step of the [`TensorStats::update`] fold: lane `i` takes `xs[i]`
/// into its least and greatest rank if finite and counts it skipped if not.
#[inline(always)]
fn fold_lanes(
    xs: &[f32; LANES],
    lo: &mut [i32; LANES],
    hi: &mut [i32; LANES],
    skipped: &mut [u32; LANES],
) {
    const EXP: u32 = 0x7f80_0000;
    for lane in 0..LANES {
        // All ones for a finite element, zero otherwise.
        let finite = -i32::from(xs[lane].to_bits() & EXP != EXP);
        let k = key(xs[lane]);
        lo[lane] = lo[lane].min((k & finite) | (i32::MAX & !finite));
        hi[lane] = hi[lane].max((k & finite) | (i32::MIN & !finite));
        skipped[lane] += (finite + 1) as u32;
    }
}

impl TensorStats {
    /// Stats of a single slice.
    pub fn of(data: &[f32]) -> Self {
        let mut s = TensorStats::default();
        s.update(data);
        s
    }

    /// Fold a batch of values into the running stats (NaN and ±Inf are
    /// skipped).
    ///
    /// One branch-free pass over eight lane accumulators, which LLVM
    /// vectorises: per lane the least and greatest total-order rank of the
    /// finite elements (a non-finite one folds in the identity) and the
    /// count of skipped ones; the lanes are reduced at the end, with
    /// `absmax = max(|min|, |max|)`.
    pub fn update(&mut self, data: &[f32]) {
        let (lo_id, hi_id) = (key(f32::INFINITY), key(f32::NEG_INFINITY));
        let mut lo = [lo_id; LANES];
        let mut hi = [hi_id; LANES];
        let mut count = 0;
        // Blocks of at most 2^24 elements per lane keep the lane counts
        // in `u32`.
        for block in data.chunks(LANES << 24) {
            let mut skipped = [0u32; LANES];
            let mut chunks = block.chunks_exact(LANES);
            for chunk in chunks.by_ref() {
                let mut xs = [0.0; LANES];
                xs.copy_from_slice(chunk);
                fold_lanes(&xs, &mut lo, &mut hi, &mut skipped);
            }
            // The tail, padded with NaN (skipped, and not counted).
            let tail = chunks.remainder();
            let mut xs = [f32::NAN; LANES];
            xs[..tail.len()].copy_from_slice(tail);
            fold_lanes(&xs, &mut lo, &mut hi, &mut skipped);
            let pad = LANES - tail.len();
            count += block.len() + pad - skipped.iter().map(|&n| n as usize).sum::<usize>();
        }
        if count > 0 {
            let min = of_key(lo.into_iter().fold(lo_id, i32::min));
            let max = of_key(hi.into_iter().fold(hi_id, i32::max));
            let absmax = min.abs().max(max.abs());
            self.merge(&TensorStats {
                min,
                max,
                absmax,
                count,
            });
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &TensorStats) {
        self.min = of_key(key(self.min).min(key(other.min)));
        self.max = of_key(key(self.max).max(key(other.max)));
        self.absmax = self.absmax.max(other.absmax);
        self.count += other.count;
    }

    /// True if any finite value has been observed.
    pub fn is_calibrated(&self) -> bool {
        self.count > 0
    }
}

/// A fixed-width histogram over `[-bound, bound]`, the data structure
/// behind the KL and percentile calibrators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bins: Vec<u64>,
    bound: f32,
}

impl Histogram {
    /// Create a histogram of |x| values with `bins` buckets covering
    /// `[0, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `bound <= 0`.
    pub fn new(bins: usize, bound: f32) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(bound > 0.0, "bound must be positive");
        Histogram {
            bins: vec![0; bins],
            bound,
        }
    }

    /// Histogram of the absolute values of `data` with `bins` buckets,
    /// bound set to the data's absmax.
    pub fn of_abs(data: &[f32], bins: usize) -> Self {
        let absmax = data
            .iter()
            .filter(|x| x.is_finite())
            .fold(0.0f32, |m, &x| m.max(x.abs()));
        let mut h = Histogram::new(bins, if absmax > 0.0 { absmax } else { 1.0 });
        h.update_abs(data);
        h
    }

    /// Add |x| values (values above the bound clamp into the last bin).
    pub fn update_abs(&mut self, data: &[f32]) {
        let n = self.bins.len();
        let scale = n as f32 / self.bound;
        for &x in data {
            if !x.is_finite() {
                continue;
            }
            let b = ((x.abs() * scale) as usize).min(n - 1);
            self.bins[b] += 1;
        }
    }

    /// The bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Upper bound of the histogram's range.
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Upper edge of bin `i`.
    pub fn edge(&self, i: usize) -> f32 {
        self.bound * (i + 1) as f32 / self.bins.len() as f32
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Smallest threshold `t` such that at least `q` fraction of |x| mass
    /// lies at or below `t` (the percentile calibrator).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f32 {
        assert!(q > 0.0 && q <= 1.0, "percentile must be in (0, 1]");
        let total = self.total();
        if total == 0 {
            return self.bound;
        }
        let target = (q * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.edge(i);
            }
        }
        self.bound
    }
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let mut s = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = (x - y) as f64;
        s += d * d;
    }
    s / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Per-channel stats for a tensor viewed as `[channels, inner]` (weights)
    /// or `[outer, channels, inner]` (activations).
    #[derive(Default)]
    struct ChannelStats {
        /// One accumulator per channel.
        channels: Vec<TensorStats>,
    }

    impl ChannelStats {
        /// Observe a tensor with channels on `axis`.
        ///
        /// # Panics
        ///
        /// Panics if `axis >= t.ndim()`.
        fn observe(&mut self, t: &Tensor, axis: usize) {
            let shape = t.shape();
            assert!(axis < shape.len(), "axis out of range");
            let c = shape[axis];
            let inner: usize = shape[axis + 1..].iter().product();
            let outer: usize = shape[..axis].iter().product();
            if self.channels.len() < c {
                self.channels.resize_with(c, TensorStats::default);
            }
            let data = t.data();
            for o in 0..outer {
                for ch in 0..c {
                    let base = (o * c + ch) * inner;
                    self.channels[ch].update(&data[base..base + inner]);
                }
            }
        }

        /// Per-channel absmax values.
        fn absmax(&self) -> Vec<f32> {
            self.channels.iter().map(|s| s.absmax).collect()
        }
    }

    /// Signal-to-quantization-noise ratio in dB: `10 log10(E[x²] / MSE)`.
    /// Returns +inf for a perfect reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn sqnr_db(reference: &[f32], quantized: &[f32]) -> f64 {
        let err = mse(reference, quantized);
        if err == 0.0 {
            return f64::INFINITY;
        }
        let power: f64 = reference
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            / reference.len().max(1) as f64;
        10.0 * (power / err).log10()
    }

    #[test]
    fn stats_basic() {
        let s = TensorStats::of(&[1.0, -3.0, 2.0]);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.absmax, 3.0);
        assert!(s.is_calibrated());
    }

    #[test]
    fn stats_ignore_nonfinite() {
        let s = TensorStats::of(&[1.0, f32::NAN, f32::INFINITY, -2.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.absmax, 2.0);
    }

    /// The fields as bits, so ±0 and every other value compare exactly.
    fn bits(s: &TensorStats) -> (u32, u32, u32, usize) {
        (
            s.min.to_bits(),
            s.max.to_bits(),
            s.absmax.to_bits(),
            s.count,
        )
    }

    #[test]
    fn stats_merge_equals_single_pass() {
        let all = [0.5f32, -1.5, 2.5, 0.0, 3.0, -0.25];
        let mut a = TensorStats::of(&all[..3]);
        let b = TensorStats::of(&all[3..]);
        a.merge(&b);
        assert_eq!(bits(&a), bits(&TensorStats::of(&all)));
    }

    /// The fold the lanes must reproduce: one element at a time, finite
    /// elements only, ties between ±0 to −0 for `min` and +0 for `max`.
    fn reference(data: &[f32]) -> TensorStats {
        let mut s = TensorStats::default();
        for &x in data.iter().filter(|x| x.is_finite()) {
            if x < s.min || (x == s.min && x.is_sign_negative()) {
                s.min = x;
            }
            if x > s.max || (x == s.max && x.is_sign_positive()) {
                s.max = x;
            }
            s.absmax = s.absmax.max(x.abs());
            s.count += 1;
        }
        s
    }

    /// Random finite values salted with every special the fold must skip
    /// or rank: NaN, ±Inf, ±0, subnormals and the extremes.
    fn salted(n: usize, seed: u64) -> Vec<f32> {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MAX,
            f32::MIN,
        ];
        let mut rng = crate::rng::TensorRng::seed(seed);
        let base = rng.normal(&[n.max(1)], 0.0, 10.0);
        let picks = rng.uniform(&[n.max(1)], 0.0, 4.0 * specials.len() as f32);
        (0..n)
            .map(|i| match specials.get(picks.data()[i] as usize) {
                Some(&s) => s,
                None => base.data()[i],
            })
            .collect()
    }

    #[test]
    fn lane_fold_matches_the_scalar_reference_at_every_length_and_offset() {
        let nan = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
        let zeros = [0.0f32, -0.0, 0.0, -0.0, 0.0];
        for seed in 0..4 {
            let pool = salted(48, seed);
            let non_finite: Vec<f32> = (0..48).map(|i| nan[i % nan.len()]).collect();
            let signed_zeros: Vec<f32> = (0..48).map(|i| zeros[i % zeros.len()]).collect();
            for data in [&pool, &non_finite, &signed_zeros] {
                for start in 0..8 {
                    for len in 0..=40 {
                        let slice = &data[start..start + len];
                        let (got, want) = (TensorStats::of(slice), reference(slice));
                        assert_eq!(bits(&got), bits(&want), "seed {seed} [{start}..+{len}]");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_of_any_split_equals_the_whole() {
        // Salted data, and signed zeros (either one first) beside only
        // positive or only negative values, so each half's `min` (or
        // `max`) can be either zero.
        let zeros = |z: f32, sign: f32| (0..64).map(move |i| [z, -z, sign * i as f32][i % 3]);
        let signed_zeros = [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0)];
        let zeros = signed_zeros.map(|(z, sign)| zeros(z, sign).collect::<Vec<_>>());
        for data in [vec![salted(64, 9)], zeros.to_vec()].concat() {
            for len in [0, 1, 7, 8, 9, 33, 64] {
                let slice = &data[..len];
                let whole = bits(&TensorStats::of(slice));
                for cut in 0..=len {
                    let mut a = TensorStats::of(&slice[..cut]);
                    a.merge(&TensorStats::of(&slice[cut..]));
                    assert_eq!(bits(&a), whole, "len {len} cut {cut}");
                    // Folding the second half into the first's accumulator.
                    let mut b = TensorStats::of(&slice[..cut]);
                    b.update(&slice[cut..]);
                    assert_eq!(bits(&b), whole, "len {len} cut {cut} (update)");
                }
            }
        }
    }

    #[test]
    fn channel_stats_axis1() {
        // [batch=2, channels=2, inner=2]
        let t = Tensor::from_vec(vec![1., 2., 10., 20., 3., 4., 30., 40.], &[2, 2, 2]);
        let mut cs = ChannelStats::default();
        cs.observe(&t, 1);
        assert_eq!(cs.absmax(), vec![4.0, 40.0]);
    }

    #[test]
    fn channel_stats_weights_axis0() {
        let w = Tensor::from_vec(vec![1., -2., 0.5, 8.], &[2, 2]);
        let mut cs = ChannelStats::default();
        cs.observe(&w, 0);
        assert_eq!(cs.absmax(), vec![2.0, 8.0]);
    }

    #[test]
    fn histogram_percentile() {
        // 99 small values and 1 huge outlier.
        let mut data = vec![0.1f32; 99];
        data.push(10.0);
        let h = Histogram::of_abs(&data, 1000);
        assert!(h.percentile(0.99) < 0.2);
        assert_eq!(h.percentile(1.0), 10.0);
    }

    #[test]
    fn histogram_counts() {
        let h = Histogram::of_abs(&[0.0, 0.5, -0.5, 1.0], 4);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bound(), 1.0);
        // |0.5| lands in bin 2 of [0,0.25,0.5,0.75,1.0].
        assert_eq!(h.bins()[2], 2);
        assert_eq!(h.bins()[3], 1);
    }

    #[test]
    fn mse_and_sqnr() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.0, 3.0];
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(sqnr_db(&a, &b), f64::INFINITY);
        let c = [1.1f32, 1.9, 3.1];
        assert!((mse(&a, &c) - 0.01).abs() < 1e-6);
        assert!(sqnr_db(&a, &c) > 20.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_length_mismatch() {
        mse(&[1.0], &[1.0, 2.0]);
    }
}
