//! Grid-density analysis from Appendix A.1 of the paper.
//!
//! For a format `E(e)M(m)`, the number of representable values per unit
//! interval around a magnitude `N` is
//!
//! ```text
//! D_{E(e)M(m)}(N) = 2^(m - floor(log2 N))        (paper Eq. 2)
//! ```
//!
//! i.e. density halves every octave: FP8 formats concentrate their codes
//! near zero, which is why clipping-based calibration (KL, percentile) that
//! helps INT8 can *hurt* FP8 (Figure 9).

/// Density of representable values (codes per unit interval) of an `EeMm`
/// format at magnitude `n`, per Eq. 2 of the paper's appendix.
///
/// Returns `None` for non-positive or non-finite `n` (the formula's
/// `log2` is undefined there).
pub fn density_at(man_bits: u32, n: f32) -> Option<f64> {
    if n.is_nan() || n <= 0.0 || n.is_infinite() {
        return None;
    }
    let floor_log2 = n.log2().floor() as i32;
    Some(2f64.powi(man_bits as i32 - floor_log2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp8Codec, Fp8Format};

    /// Number of grid points of an `EeMm` format inside the binade
    /// `[2^k, 2^(k+1))` — always `2^m` for normal binades (the derivation
    /// step behind Eq. 1).
    fn grid_points_in(man_bits: u32) -> u32 {
        1u32 << man_bits
    }

    #[test]
    fn density_halves_per_octave() {
        // Eq. 2: doubling N halves the density.
        let d1 = density_at(3, 1.0).unwrap();
        let d2 = density_at(3, 2.0).unwrap();
        let d4 = density_at(3, 4.0).unwrap();
        assert_eq!(d1, 2.0 * d2);
        assert_eq!(d2, 2.0 * d4);
    }

    #[test]
    fn density_grows_with_mantissa() {
        // "the more the mantissa the denser the representation"
        for n in [0.1f32, 1.0, 3.7, 16.0] {
            let d2 = density_at(2, n).unwrap();
            let d3 = density_at(3, n).unwrap();
            let d4 = density_at(4, n).unwrap();
            assert!(d2 < d3 && d3 < d4);
        }
    }

    #[test]
    fn density_matches_actual_grid() {
        // Count actual representable values of E4M3 in [1, 2): must equal
        // 2^m, and the implied density 2^m / (2-1) must match Eq. 2.
        let c = Fp8Codec::new(Fp8Format::E4M3);
        let count = c
            .enumerate_finite_positive()
            .into_iter()
            .filter(|&(_, v)| (1.0..2.0).contains(&v))
            .count() as u32;
        assert_eq!(count, grid_points_in(3));
        assert_eq!(density_at(3, 1.5).unwrap(), count as f64);
    }

    #[test]
    fn density_in_binade_constant() {
        // floor(log2 N) is constant within a binade.
        assert_eq!(density_at(4, 4.01), density_at(4, 7.99));
        assert_ne!(density_at(4, 3.99), density_at(4, 4.01));
    }

    #[test]
    fn density_rejects_nonpositive() {
        assert!(density_at(3, 0.0).is_none());
        assert!(density_at(3, -1.0).is_none());
        assert!(density_at(3, f32::NAN).is_none());
        assert!(density_at(3, f32::INFINITY).is_none());
    }
}
