//! Deterministic, seeded tensor initializers.
//!
//! All randomness in the workspace flows through [`TensorRng`] (a
//! self-contained ChaCha8 stream cipher core), so every experiment is
//! reproducible bit-for-bit from its seed with no external dependencies.
//! The distribution constructors mirror what the synthetic model zoo needs
//! to mimic the paper's Figure-3 tensor distributions.

use crate::tensor::Tensor;

/// ChaCha8 block generator: the standard ChaCha state/round function at 8
/// rounds, keyed from a 64-bit seed via splitmix64 expansion.
#[derive(Debug, Clone)]
struct ChaCha8 {
    state: [u32; 16],
    buf: [u32; 16],
    idx: usize,
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8 {
    fn from_seed(seed: u64) -> Self {
        // Expand the 64-bit seed into a 256-bit key with splitmix64.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for i in 0..4 {
            let k = next();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // words 12..16: block counter and nonce, all zero initially
        ChaCha8 {
            state,
            buf: [0; 16],
            idx: 16,
        }
    }

    fn refill(&mut self) {
        let mut w = self.state;
        for _ in 0..4 {
            quarter(&mut w, 0, 4, 8, 12);
            quarter(&mut w, 1, 5, 9, 13);
            quarter(&mut w, 2, 6, 10, 14);
            quarter(&mut w, 3, 7, 11, 15);
            quarter(&mut w, 0, 5, 10, 15);
            quarter(&mut w, 1, 6, 11, 12);
            quarter(&mut w, 2, 7, 8, 13);
            quarter(&mut w, 3, 4, 9, 14);
        }
        for ((b, &wv), &sv) in self.buf.iter_mut().zip(&w).zip(&self.state) {
            *b = wv.wrapping_add(sv);
        }
        let ctr = ((u64::from(self.state[13]) << 32) | u64::from(self.state[12])).wrapping_add(1);
        self.state[12] = ctr as u32;
        self.state[13] = (ctr >> 32) as u32;
        self.idx = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let x = self.buf[self.idx];
        self.idx += 1;
        x
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

/// A seeded random source for tensor initialization.
///
/// ```
/// use ptq_tensor::TensorRng;
/// let mut rng = TensorRng::seed(7);
/// let w = rng.normal(&[4, 4], 0.0, 0.02);
/// assert_eq!(w.shape(), &[4, 4]);
/// // Same seed, same tensor:
/// assert_eq!(TensorRng::seed(7).normal(&[4, 4], 0.0, 0.02), w);
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: ChaCha8,
    /// Spare Box-Muller output held for the next normal draw.
    spare: Option<f32>,
}

impl TensorRng {
    /// Create from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        TensorRng {
            rng: ChaCha8::from_seed(seed),
            spare: None,
        }
    }

    /// A standard-normal sample via Box-Muller (f64 internals, so the
    /// tails are clean down to f32 resolution).
    fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Offset keeps u1 strictly inside (0, 1) so ln() is finite.
        let u1 = ((self.rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let u2 = ((self.rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Normal(mean, std) tensor.
    pub fn normal(&mut self, shape: &[usize], mean: f32, std: f32) -> Tensor {
        let std = std.max(1e-12);
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| mean + std * self.standard_normal())
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Uniform(lo, hi) tensor.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "uniform requires lo <= hi");
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| lo + (hi - lo) * self.unit()).collect();
        Tensor::from_vec(data, shape)
    }

    /// Kaiming/He-style initialization for a weight of shape
    /// `[fan_out, fan_in, ...]`: Normal(0, sqrt(2 / fan_in_total)).
    pub fn kaiming(&mut self, shape: &[usize]) -> Tensor {
        let fan_in: usize = shape[1..].iter().product::<usize>().max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        self.normal(shape, 0.0, std)
    }

    /// Uniform integer indices in `[0, vocab)`, e.g. token ids.
    pub fn token_ids(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.below(vocab)).collect()
    }

    /// A single uniform f32 in [0, 1).
    pub fn unit(&mut self) -> f32 {
        (self.rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }

    /// A single uniform usize in [0, n).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is an empty range");
        // Multiply-shift; bias is negligible at tensor-shape scales.
        ((u128::from(self.rng.next_u64()) * n as u128) >> 64) as usize
    }

    /// Normal sample scalar.
    pub fn normal_scalar(&mut self, mean: f32, std: f32) -> f32 {
        mean + std.max(1e-12) * self.standard_normal()
    }

    /// Multiply a fixed random subset of `k` channels (axis `axis` of an
    /// n-D tensor viewed as `[outer, channels, inner]`) by `gain`. Models
    /// the per-channel outlier structure LayerNorm induces in transformer
    /// activations (Wei et al. 2022, cited by the paper).
    ///
    /// Returns the chosen channel indices.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= t.ndim()`.
    pub fn amplify_channels(
        &mut self,
        t: &mut Tensor,
        axis: usize,
        k: usize,
        gain: f32,
    ) -> Vec<usize> {
        let shape = t.shape().to_vec();
        assert!(axis < shape.len(), "axis out of range");
        let channels = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let outer: usize = shape[..axis].iter().product();
        let k = k.min(channels);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let c = self.below(channels);
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        let data = t.data_mut();
        for o in 0..outer {
            for &c in &chosen {
                let base = (o * channels + c) * inner;
                for x in &mut data[base..base + inner] {
                    *x *= gain;
                }
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TensorRng {
        /// Inject outliers: with probability `p`, replace an element by a draw
        /// from `Uniform(-mag, mag)`. Models the long-tail activations of NLP
        /// workloads (paper Figure 1 / Figure 3).
        fn inject_outliers(&mut self, t: &mut Tensor, p: f32, mag: f32) {
            for i in 0..t.len() {
                if self.unit() < p {
                    let draw = -mag + 2.0 * mag * self.unit();
                    t.data_mut()[i] = draw;
                }
            }
        }
    }

    impl TensorRng {
        /// Derive an independent child stream (used to give each layer of a
        /// model its own reproducible stream regardless of construction order).
        fn fork(&mut self, salt: u64) -> Self {
            let s: u64 = self.rng.next_u64() ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
            TensorRng::seed(s)
        }
    }

    #[test]
    fn determinism() {
        let a = TensorRng::seed(1).normal(&[16], 0.0, 1.0);
        let b = TensorRng::seed(1).normal(&[16], 0.0, 1.0);
        assert_eq!(a, b);
        let c = TensorRng::seed(2).normal(&[16], 0.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn fork_streams_are_independent_but_reproducible() {
        let mut r1 = TensorRng::seed(9);
        let mut r2 = TensorRng::seed(9);
        let a = r1.fork(3).normal(&[8], 0.0, 1.0);
        let b = r2.fork(3).normal(&[8], 0.0, 1.0);
        assert_eq!(a, b);
        let c = r1.fork(4).normal(&[8], 0.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments() {
        let t = TensorRng::seed(5).normal(&[20_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let t = TensorRng::seed(5).uniform(&[1000], -3.0, 7.0);
        for &x in t.data() {
            assert!((-3.0..=7.0).contains(&x));
        }
    }

    #[test]
    fn kaiming_std_matches_fan_in() {
        let t = TensorRng::seed(5).kaiming(&[64, 128]);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!((var - 2.0 / 128.0).abs() < 0.003, "var {var}");
    }

    #[test]
    fn outlier_injection_rate() {
        let mut rng = TensorRng::seed(5);
        let mut t = Tensor::zeros(&[50_000]);
        rng.inject_outliers(&mut t, 0.01, 6.0);
        let n_out = t.data().iter().filter(|x| **x != 0.0).count();
        assert!((400..=600).contains(&n_out), "n_out {n_out}");
        assert!(t.data().iter().all(|x| x.abs() <= 6.0));
    }

    #[test]
    fn amplify_channels_touches_only_selected() {
        let mut rng = TensorRng::seed(5);
        let mut t = Tensor::ones(&[2, 8, 3]);
        let chosen = rng.amplify_channels(&mut t, 1, 2, 50.0);
        assert_eq!(chosen.len(), 2);
        for b in 0..2 {
            for c in 0..8 {
                for i in 0..3 {
                    let v = t.at(&[b, c, i]);
                    if chosen.contains(&c) {
                        assert_eq!(v, 50.0);
                    } else {
                        assert_eq!(v, 1.0);
                    }
                }
            }
        }
    }

    #[test]
    fn token_ids_in_range() {
        let ids = TensorRng::seed(3).token_ids(100, 17);
        assert!(ids.iter().all(|&i| i < 17));
    }

    #[test]
    fn chacha_block_changes_every_refill() {
        let mut r = ChaCha8::from_seed(42);
        let first: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn unit_stays_in_range_and_varies() {
        let mut r = TensorRng::seed(11);
        let xs: Vec<f32> = (0..1000).map(|_| r.unit()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
