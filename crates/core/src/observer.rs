//! Range-calibration observers (Appendix A.1).
//!
//! All methods reduce calibration observations to a single clip threshold
//! `max_T`, which the scale rule `s = float_max / max_T` then consumes.
//! The paper's finding — reproduced by the Figure-9 bench — is that for
//! FP8 the plain absmax is the right choice: clipping methods that help
//! INT8 (KL, percentile) *shrink* the range and push the bulk of the data
//! into coarser relative precision, because FP8's grid is already dense
//! near zero.

use ptq_fp8::{fake_quant_fp8, fake_quant_int8, Fp8Codec, Int8Codec, Int8Mode};
use ptq_tensor::Histogram;

use crate::config::DataFormat;

/// Threshold at the `q`-th percentile of |x| mass.
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1]`.
pub fn percentile_threshold(hist: &Histogram, q: f64) -> f32 {
    hist.percentile(q)
}

/// TensorRT-style KL-divergence threshold search: choose the clip point
/// whose clipped-then-requantized distribution diverges least from the
/// observed distribution. `levels` is the number of quantization levels to
/// simulate (128 for symmetric INT8).
///
/// Returns the histogram bound when the histogram is too small to search.
pub fn kl_divergence_threshold(hist: &Histogram, levels: usize) -> f32 {
    let bins = hist.bins();
    let n = bins.len();
    if n <= levels || hist.total() == 0 {
        return hist.bound();
    }
    let mut best_kl = f64::INFINITY;
    let mut best_i = n;
    for i in levels..=n {
        // Reference distribution: first i bins, with the clipped tail mass
        // folded into the last bin.
        let mut p: Vec<f64> = bins[..i].iter().map(|&c| c as f64).collect();
        let outlier_mass: f64 = bins[i..].iter().map(|&c| c as f64).sum();
        p[i - 1] += outlier_mass;
        // Quantized distribution: the *unfolded* candidate histogram
        // re-binned to `levels` buckets and expanded back, preserving mass
        // only where the histogram is non-zero. (Folding the tail into Q
        // as well would make i == levels trivially optimal with KL = 0.)
        let raw = &bins[..i];
        let group = i as f64 / levels as f64;
        let mut q = vec![0.0f64; i];
        for l in 0..levels {
            let lo = (l as f64 * group).floor() as usize;
            let hi = (((l + 1) as f64 * group).ceil() as usize).min(i);
            let mass: f64 = raw[lo..hi].iter().map(|&c| c as f64).sum();
            let nz = raw[lo..hi].iter().filter(|&&x| x > 0).count();
            if nz == 0 {
                continue;
            }
            let share = mass / nz as f64;
            for (j, qv) in q[lo..hi].iter_mut().enumerate() {
                if raw[lo + j] > 0 {
                    *qv = share;
                }
            }
        }
        let kl = kl_div(&p, &q);
        if kl < best_kl {
            best_kl = kl;
            best_i = i;
        }
    }
    hist.edge(best_i - 1)
}

fn kl_div(p: &[f64], q: &[f64]) -> f64 {
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    if sp == 0.0 || sq == 0.0 {
        return f64::INFINITY;
    }
    let mut d = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            if qi > 0.0 {
                d += (pi / sp) * ((pi / sp) / (qi / sq)).ln();
            } else {
                return f64::INFINITY;
            }
        }
    }
    d
}

/// Sweep clip-threshold candidates on a sample of real values, picking the
/// one that minimizes the *actual* quantization MSE under the given
/// format. This is the strongest (and most expensive) calibrator; the
/// paper found it adds nothing over absmax for FP8.
pub fn mse_sweep_threshold(sample: &[f32], absmax: f32, format: DataFormat) -> f32 {
    if sample.is_empty() || absmax <= 0.0 {
        return absmax.max(1e-12);
    }
    let candidates: Vec<f32> = (0..=10).map(|i| absmax * (1.0 - 0.05 * i as f32)).collect();
    let mut best = absmax;
    let mut best_mse = f64::INFINITY;
    for &t in &candidates {
        if t <= 0.0 {
            continue;
        }
        let mse = clip_quant_mse(sample, t, format);
        if mse < best_mse {
            best_mse = mse;
            best = t;
        }
    }
    best
}

/// Quantization MSE of `sample` when clipped to `±t` and quantized with
/// `format` scaled to that threshold.
pub fn clip_quant_mse(sample: &[f32], t: f32, format: DataFormat) -> f64 {
    let mut clipped: Vec<f32> = sample.iter().map(|&x| x.clamp(-t, t)).collect();
    match format {
        DataFormat::Fp8(f) => {
            let codec = Fp8Codec::new(f);
            let scale = ptq_fp8::fp8_scale(f, t);
            fake_quant_fp8(&mut clipped, &codec, scale);
        }
        DataFormat::Int8 => {
            let codec = Int8Codec::from_range(-t, t, Int8Mode::Symmetric);
            fake_quant_int8(&mut clipped, &codec);
        }
    }
    let mut mse = 0.0f64;
    for (&orig, &q) in sample.iter().zip(&clipped) {
        let d = (orig - q) as f64;
        mse += d * d;
    }
    mse / sample.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_fp8::Fp8Format;
    use ptq_tensor::TensorRng;

    fn outlier_sample() -> Vec<f32> {
        // N(0, 0.5) bulk with sparse (0.075%) outliers near ±6 — the
        // Figure-9 shape. Sparse enough that a KL-optimal clip excludes
        // them (with heavier outlier mass, keeping them minimizes KL).
        let mut rng = TensorRng::seed(7);
        let mut v = rng.normal(&[16000], 0.0, 0.5f32.sqrt()).into_vec();
        for i in (0..v.len()).step_by(1333) {
            v[i] = if i % 2666 == 0 { 5.8 } else { -5.9 };
        }
        v
    }

    #[test]
    fn percentile_clips_outliers() {
        let s = outlier_sample();
        let h = Histogram::of_abs(&s, 2048);
        let p999 = percentile_threshold(&h, 0.985);
        assert!(p999 < 3.0, "p985 {p999}");
        assert_eq!(percentile_threshold(&h, 1.0), h.bound());
    }

    #[test]
    fn kl_threshold_clips_outlier_tail() {
        let s = outlier_sample();
        let h = Histogram::of_abs(&s, 2048);
        let t = kl_divergence_threshold(&h, 128);
        // KL finds the bulk ends well before the outliers at ~6.
        assert!(t < 5.0, "kl threshold {t}");
        assert!(t > 0.5, "kl threshold {t}");
    }

    #[test]
    fn kl_degenerate_histogram() {
        let h = Histogram::new(64, 1.0);
        assert_eq!(kl_divergence_threshold(&h, 128), 1.0);
    }

    #[test]
    fn mse_sweep_helps_int8_not_fp8() {
        // The Figure-9 conclusion: the MSE-optimal threshold for INT8 clips
        // noticeably below absmax, while for E4M3 it stays at (or near)
        // absmax because FP8 already spends its precision near zero.
        let s = outlier_sample();
        let absmax = s.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let t_int8 = mse_sweep_threshold(&s, absmax, DataFormat::Int8);
        let t_e4m3 = mse_sweep_threshold(&s, absmax, DataFormat::Fp8(Fp8Format::E4M3));
        assert!(t_e4m3 >= t_int8, "e4m3 {t_e4m3} vs int8 {t_int8}");
        assert!(
            t_e4m3 >= 0.9 * absmax,
            "e4m3 keeps full range: {t_e4m3} vs {absmax}"
        );
    }

    #[test]
    fn clip_mse_penalizes_overclipping_fp8() {
        // Clipping an FP8 range to half the absmax on outlier data must
        // cost more MSE than keeping the full range (the Figure-9 demo).
        let s = outlier_sample();
        let absmax = s.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let full = clip_quant_mse(&s, absmax, DataFormat::Fp8(Fp8Format::E4M3));
        let clipped = clip_quant_mse(&s, absmax / 3.0, DataFormat::Fp8(Fp8Format::E4M3));
        assert!(clipped > full, "clipped {clipped} vs full {full}");
    }
}
