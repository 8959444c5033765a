//! Table-driven FP8 fake quantization.
//!
//! The scalar [`Fp8Codec`](crate::Fp8Codec) round-trips every value through
//! encode/decode: exponent extraction, subnormal rescaling, RNE rounding and
//! overflow handling — a long dependent chain per element. But an 8-bit
//! format only has ≤128 distinct non-negative representable magnitudes, so
//! the whole quantization function of a *fixed* codec is a step function of
//! the input's magnitude. This module precomputes that step function once:
//!
//! * a 256-entry **decode table** (`decode(code)` for every code),
//! * 128-entry **value** and **code** tables: each representable magnitude
//!   and its code byte, in magnitude order (one *interval* each), and
//! * two **bucket tables** keyed on the magnitude's `f32` exponent and its
//!   top `man_bits` mantissa bits (`mag >> (23 - man_bits)`): the interval
//!   holding the bucket's first magnitude (`lo`) and the one breakpoint —
//!   the last magnitude of that interval — when the next interval starts
//!   inside the bucket (`bp`, else `u32::MAX`).
//!
//! Within an `f32` binade a bucket is exactly one FP8 grid step wide (finer
//! below the format's normal range), and the grid's rounding boundaries
//! are one step apart, so at most one falls strictly inside a bucket.
//! Quantizing is then one branch-free lookup, `lo[b] + (mag > bp[b])`, and
//! one table load — no exponent manipulation, no rounding, no overflow
//! branches, no search. [`Fp8Lut::quantize`] loads the interval's *value*,
//! [`Fp8Lut::encode`] its *code*: the same lookup, so `decode(encode(x))`
//! is `quantize(x)` by construction and `encode` is the byte
//! [`Fp8Codec::encode`](crate::Fp8Codec::encode) returns. This crate's
//! `encode(v * scale)` loops (one-time weight encodes, calibration
//! fake-quant) run through it. The per-batch boundary encodes of
//! `ptq-tensor` (activations, KV rows) run an 8-lane encoder that computes
//! the code arithmetically where the CPU has AVX2 and calls
//! [`Fp8Lut::encode`] per lane elsewhere: this table is its portable body
//! and its oracle.
//!
//! Breakpoints are derived *empirically* from the scalar codec by binary
//! search over the positive `f32` bit space (quantization is monotone in
//! the magnitude bits), so the table is bit-identical to the scalar codec
//! for **every** `f32` input by construction — rounding-boundary ties,
//! subnormals, saturation and signed zero included. The scalar codec stays
//! as the executable reference; the equivalence is enforced exhaustively in
//! `tests/lut_equivalence.rs`.
//!
//! Tables are built lazily and cached for the lifetime of the process
//! (2 KiB plus 5 bytes per bucket: 7, 12 and 22 KiB for E5M2, E4M3 and
//! E3M4). The three paper formats each sit in their own
//! `OnceLock`, so [`Fp8Lut::for_format`] is lock-free after first use — it
//! is called once per kernel call by every worker thread; only exotic
//! `EeMm` specs go through the mutex-guarded map.
//!
//! The fast path only models the default policy pair (saturating overflow +
//! round-to-nearest-even) — the one used everywhere in the paper's recipes.
//! [`Fp8Lut::for_codec`] returns `None` for any other codec configuration
//! (and for a bias past `126 - man_bits`, where a rounding boundary is an
//! `f32` subnormal), and callers fall back to the scalar path.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::codec::{Fp8Codec, OverflowPolicy, Rounding};
use crate::format::{Fp8Format, FpSpec};

/// Bit pattern of +Inf; the upper end of the positive magnitude bit space
/// the breakpoints and buckets cover.
const INF_BITS: u32 = 0x7F80_0000;

/// Precomputed quantization tables for one codec configuration.
///
/// ```
/// use ptq_fp8::{Fp8Codec, Fp8Format, Fp8Lut};
/// let codec = Fp8Codec::new(Fp8Format::E4M3);
/// let lut = Fp8Lut::for_spec(Fp8Format::E4M3.spec());
/// assert_eq!(lut.quantize(1.3), codec.quantize(1.3));
/// assert_eq!(lut.quantize(1e9), 448.0); // saturates like the codec
/// ```
#[derive(Debug)]
pub struct Fp8Lut {
    spec: FpSpec,
    /// `decode[code]` = the codec's decode of every possible byte.
    decode: [f32; 256],
    /// Quantized magnitude for breakpoint interval `i`; entries past the
    /// last real interval repeat the max value so the search can never
    /// index junk.
    values: [f32; 128],
    /// Code byte of `values[i]` (positive sign), padded like `values`.
    codes: [u8; 128],
    /// Per magnitude bucket (`mag >> shift`: the `f32` exponent and top
    /// `man_bits` mantissa bits), the interval holding the bucket's first
    /// magnitude.
    lo: Box<[u8]>,
    /// Per bucket, the last magnitude of interval `lo[b]` when the next
    /// interval starts inside the bucket (its one breakpoint), else
    /// `u32::MAX`.
    bp: Box<[u32]>,
    /// `23 - man_bits`: magnitude bits below a bucket's key.
    shift: u32,
    /// Number of distinct non-negative representable magnitudes.
    n: usize,
    /// The codec's canonical NaN code.
    nan_code: u8,
    /// Bit position of a code's sign bit.
    sign_shift: u32,
}

/// The paper formats' tables, indexed by `Fp8Format as usize`.
static PAPER_LUTS: [OnceLock<Fp8Lut>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// Table cache for every other spec (policies are fixed to the defaults by
/// construction).
static LUT_CACHE: OnceLock<Mutex<HashMap<FpSpec, &'static Fp8Lut>>> = OnceLock::new();

impl Fp8Lut {
    /// The cached table for `codec`, building it on first use.
    ///
    /// Returns `None` when the codec uses a non-default overflow or
    /// rounding policy, or a bias past the tables' domain (see
    /// [`Fp8Lut::for_spec`]); such codecs must use the scalar path.
    pub fn for_codec(codec: &Fp8Codec) -> Option<&'static Fp8Lut> {
        if codec.overflow() != OverflowPolicy::Saturate
            || codec.rounding() != Rounding::NearestEven
            || codec.spec().bias > covered_max_bias(codec.spec().man_bits)
        {
            return None;
        }
        Some(Self::for_spec(*codec.spec()))
    }

    /// The cached table of a paper format under the default policies,
    /// building it on first use; a plain load afterwards.
    pub fn for_format(format: Fp8Format) -> &'static Fp8Lut {
        PAPER_LUTS[format as usize].get_or_init(|| Self::build(format.spec()))
    }

    /// The cached table for `spec` under the default policies, building it
    /// on first use. A paper format's spec resolves to its
    /// [`Fp8Lut::for_format`] instance.
    ///
    /// # Panics
    ///
    /// Panics if `spec.bias > 126 - spec.man_bits`: half the smallest
    /// subnormal is then below `f32::MIN_POSITIVE`, a rounding boundary the
    /// one-lookup tables do not cover.
    pub fn for_spec(spec: FpSpec) -> &'static Fp8Lut {
        if let Some(format) = Fp8Format::ALL.into_iter().find(|f| f.spec() == spec) {
            return Self::for_format(format);
        }
        let cache = LUT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        // The map only ever grows with leaked 'static entries, so a
        // poisoned lock still holds a consistent map — recover it.
        let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(lut) = map.get(&spec) {
            return lut;
        }
        let lut: &'static Fp8Lut = Box::leak(Box::new(Self::build(spec)));
        map.insert(spec, lut);
        lut
    }

    /// Derive the tables from the scalar codec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.bias > 126 - man_bits` ([`covered_max_bias`]): a
    /// rounding boundary then lies among `f32` subnormals, where a
    /// magnitude bucket spans several grid steps.
    fn build(spec: FpSpec) -> Fp8Lut {
        assert!(
            spec.bias <= covered_max_bias(spec.man_bits),
            "{spec}: Fp8Lut covers biases up to {}",
            covered_max_bias(spec.man_bits)
        );
        let codec = Fp8Codec::from_spec(spec);
        let grid = codec.enumerate_finite_positive();
        let n = grid.len();
        assert!(
            (2..=128).contains(&n),
            "8-bit format must have 2..=128 non-negative magnitudes, got {n}"
        );

        let mut decode = [0.0f32; 256];
        for (code, slot) in decode.iter_mut().enumerate() {
            *slot = codec.decode(code as u8);
        }

        let (max_code, max_v) = grid[n - 1];
        let mut values = [max_v; 128];
        let mut codes = [max_code; 128];
        for (i, &(code, v)) in grid.iter().enumerate() {
            values[i] = v;
            codes[i] = code;
        }

        // Buckets: within an f32 binade a bucket is exactly one FP8 grid
        // step wide (finer below the format's normal range), so at most one
        // breakpoint falls strictly inside it (DESIGN.md §13).
        let upper = upper_bits(&codec, &grid);
        let shift = 23 - spec.man_bits;
        let buckets = (INF_BITS >> shift) as usize + 1;
        let (mut lo, mut bp) = (vec![0u8; buckets], vec![u32::MAX; buckets]);
        let mut i = 0;
        for b in 0..buckets {
            let (first, last) = (
                (b as u32) << shift,
                (b as u32) << shift | ((1 << shift) - 1),
            );
            while upper[i] < first {
                i += 1;
            }
            lo[b] = i as u8;
            if upper[i] < last {
                assert!(
                    upper[i + 1] >= last,
                    "{spec}: two breakpoints in magnitude bucket {b:#x}"
                );
                bp[b] = upper[i];
            }
        }

        Fp8Lut {
            spec,
            decode,
            values,
            codes,
            lo: lo.into_boxed_slice(),
            bp: bp.into_boxed_slice(),
            shift,
            n,
            nan_code: codec.nan_code(),
            sign_shift: spec.exp_bits + spec.man_bits,
        }
    }

    /// The spec these tables were built for.
    pub fn spec(&self) -> &FpSpec {
        &self.spec
    }

    /// Number of distinct non-negative representable magnitudes.
    pub fn grid_len(&self) -> usize {
        self.n
    }

    /// Table-driven decode of a code byte (bit-identical to the scalar
    /// codec's `decode`).
    #[inline]
    pub fn decode(&self, code: u8) -> f32 {
        self.decode[code as usize]
    }

    /// Table-driven fake quantization: bit-identical to
    /// `codec.quantize(x)` for every `f32` including NaN, ±Inf,
    /// signed zero and RNE ties.
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        if x.is_nan() {
            // The scalar codec canonicalizes every NaN (sign included).
            return f32::NAN;
        }
        let bits = x.to_bits();
        let v = self.values[self.interval(bits & 0x7FFF_FFFF)];
        f32::from_bits(v.to_bits() | (bits & 0x8000_0000))
    }

    /// Table-driven encode: bit-identical to `codec.encode(x)` for every
    /// `f32` — any NaN gives the canonical NaN code, ±Inf saturates,
    /// signed zero keeps its sign.
    #[inline]
    pub fn encode(&self, x: f32) -> u8 {
        if x.is_nan() {
            return self.nan_code;
        }
        let bits = x.to_bits();
        let sign = ((bits >> 31) as u8) << self.sign_shift;
        self.codes[self.interval(bits & 0x7FFF_FFFF)] | sign
    }

    /// Index of the breakpoint interval holding the non-NaN magnitude bit
    /// pattern `mag`: the bucket's first interval, plus one past its
    /// breakpoint -- one branch-free lookup.
    #[inline]
    fn interval(&self, mag: u32) -> usize {
        let b = (mag >> self.shift) as usize;
        usize::from(self.lo[b]) + usize::from(mag > self.bp[b])
    }
}

/// The largest bias whose rounding boundaries are all `f32` normals (half
/// the smallest subnormal, `2^(-bias - man_bits)`, is at least
/// `f32::MIN_POSITIVE`): the tables' domain.
fn covered_max_bias(man_bits: u32) -> i32 {
    126 - man_bits as i32
}

/// `upper[i]` = the largest positive-`f32` bit pattern that still
/// quantizes to grid value `i`, padded with `u32::MAX`. The codec's
/// quantize is monotone non-decreasing in the positive magnitude bits, so
/// the first bit pattern reaching grid value `i + 1` is found by binary
/// search against the scalar reference; everything below it (and above
/// the previous breakpoint) rounds to grid value `i`. This bakes the exact
/// RNE tie behaviour into the table without re-deriving it.
fn upper_bits(codec: &Fp8Codec, grid: &[(u8, f32)]) -> [u32; 128] {
    let mut upper = [u32::MAX; 128];
    for (i, w) in grid.windows(2).enumerate() {
        let target = w[1].1.to_bits();
        let (mut lo, mut hi) = (0u32, INF_BITS);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if codec.quantize(f32::from_bits(mid)).to_bits() >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        debug_assert!(lo > 0, "breakpoint search degenerated");
        upper[i] = lo - 1;
    }
    upper
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Fp8Format;

    #[test]
    fn cache_returns_same_instance() {
        let a = Fp8Lut::for_spec(Fp8Format::E4M3.spec());
        let b = Fp8Lut::for_spec(Fp8Format::E4M3.spec());
        assert!(std::ptr::eq(a, b));
        let c = Fp8Lut::for_spec(Fp8Format::E5M2.spec());
        assert!(!std::ptr::eq(a, c));
        // A paper format's spec and the format itself name one table.
        assert!(std::ptr::eq(a, Fp8Lut::for_format(Fp8Format::E4M3)));
        // An exotic spec goes through the map and is cached there.
        let e2m5 = FpSpec::new(2, 5, 1, crate::format::NanEncoding::Extended);
        assert!(std::ptr::eq(Fp8Lut::for_spec(e2m5), Fp8Lut::for_spec(e2m5)));
    }

    #[test]
    fn non_default_policies_have_no_lut() {
        let toward_zero = Fp8Codec::new(Fp8Format::E4M3).with_rounding(Rounding::TowardZero);
        assert!(Fp8Lut::for_codec(&toward_zero).is_none());
        let non_sat = Fp8Codec::new(Fp8Format::E5M2).with_overflow(OverflowPolicy::NonSaturating);
        assert!(Fp8Lut::for_codec(&non_sat).is_none());
        let default = Fp8Codec::new(Fp8Format::E3M4);
        assert!(Fp8Lut::for_codec(&default).is_some());
    }

    #[test]
    fn grid_len_matches_format() {
        for f in Fp8Format::ALL {
            let lut = Fp8Lut::for_spec(f.spec());
            assert_eq!(lut.grid_len() as u32, f.spec().finite_magnitude_count());
        }
    }

    #[test]
    fn breakpoints_strictly_increase() {
        for f in Fp8Format::ALL {
            let lut = Fp8Lut::for_spec(f.spec());
            let bps: Vec<u32> = lut.bp.iter().copied().filter(|&b| b != u32::MAX).collect();
            // A transition on a bucket's edge needs no breakpoint.
            assert!(
                bps.len() < lut.n,
                "{f}: at most one breakpoint per grid step"
            );
            assert!(bps.windows(2).all(|w| w[0] < w[1]), "{f}");
            assert!(lut.lo.windows(2).all(|w| w[0] <= w[1]), "{f}");
        }
    }

    /// Every split of the 7 magnitude bits, both NaN encodings, every
    /// bias from below the lowest with a strictly increasing grid (ties far
    /// beyond `f32::MAX`) up to the last the tables cover
    /// (`126 - man_bits`): at most one breakpoint falls strictly inside any
    /// magnitude bucket, and the lookup matches the codec's quantize (the
    /// step function the tables are derived from) on both sides of every
    /// breakpoint.
    #[test]
    fn every_split_has_at_most_one_breakpoint_per_bucket() {
        use crate::format::NanEncoding;
        let mut built = 0;
        for exp_bits in 1..=7u32 {
            let man_bits = 7 - exp_bits;
            for enc in [NanEncoding::Ieee, NanEncoding::Extended] {
                // IEEE needs two exponent bits.
                if enc == NanEncoding::Ieee && exp_bits < 2 {
                    continue;
                }
                for bias in -140..=covered_max_bias(man_bits) {
                    let spec = FpSpec::new(exp_bits, man_bits, bias, enc);
                    let codec = Fp8Codec::from_spec(spec);
                    let grid = codec.enumerate_finite_positive();
                    if grid.len() < 2 || grid.windows(2).any(|w| w[0].1 >= w[1].1) {
                        continue; // the grid itself leaves the f32 range
                    }
                    let upper = upper_bits(&codec, &grid);
                    let inner = &upper[..grid.len() - 1];
                    let shift = 23 - man_bits;
                    for w in inner.windows(2) {
                        // Two breakpoints share a bucket only if the first
                        // is its last magnitude (a transition on the edge).
                        assert!(
                            w[0] >> shift != w[1] >> shift || !w[0] & ((1 << shift) - 1) == 0,
                            "{spec}: breakpoints {:#x} and {:#x} share a bucket",
                            w[0],
                            w[1]
                        );
                    }
                    let lut = Fp8Lut::build(spec);
                    for &u in inner {
                        for x in [f32::from_bits(u), f32::from_bits(u + 1)] {
                            let (a, b) = (lut.quantize(x), codec.quantize(x));
                            assert_eq!(a.to_bits(), b.to_bits(), "{spec} x={x:e}");
                        }
                    }
                    built += 1;
                }
            }
        }
        assert!(built > 2800, "{built} specs");
    }

    #[test]
    fn quantize_matches_scalar_on_special_values() {
        for f in Fp8Format::ALL {
            let codec = Fp8Codec::new(f);
            let lut = Fp8Lut::for_codec(&codec).unwrap();
            for x in [
                0.0f32,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::from_bits(1), // smallest positive subnormal f32
                f32::MAX,
                f32::MIN,
                1.0,
                -1.0,
            ] {
                assert_eq!(
                    lut.quantize(x).to_bits(),
                    codec.quantize(x).to_bits(),
                    "{f} x={x:?}"
                );
                assert_eq!(lut.encode(x), codec.encode(x), "{f} x={x:?}");
            }
            assert_eq!(lut.encode(f32::NAN), codec.nan_code());
            assert_eq!(lut.encode(-f32::NAN), codec.nan_code());
            assert!(lut.quantize(f32::NAN).is_nan());
            assert_eq!(
                lut.quantize(f32::NAN).to_bits(),
                codec.quantize(f32::NAN).to_bits()
            );
        }
    }

    #[test]
    fn encode_is_the_code_of_quantize() {
        // Exotic widths too: the sign bit sits at `exp_bits + man_bits`.
        let e3m3 = FpSpec::new(3, 3, 3, crate::format::NanEncoding::Extended);
        for spec in Fp8Format::ALL
            .map(Fp8Format::spec)
            .into_iter()
            .chain([e3m3])
        {
            let codec = Fp8Codec::from_spec(spec);
            let lut = Fp8Lut::for_spec(spec);
            for i in -2000i32..=2000 {
                let x = i as f32 * 0.013 * (1 + i.rem_euclid(7)) as f32;
                assert_eq!(lut.encode(x), codec.encode(x), "{spec:?} x={x}");
                assert_eq!(
                    lut.decode(lut.encode(x)).to_bits(),
                    lut.quantize(x).to_bits(),
                    "{spec:?} x={x}"
                );
            }
        }
    }

    #[test]
    fn decode_table_matches_scalar() {
        for f in Fp8Format::ALL {
            let codec = Fp8Codec::new(f);
            let lut = Fp8Lut::for_codec(&codec).unwrap();
            for code in 0u16..=255 {
                let a = lut.decode(code as u8);
                let b = codec.decode(code as u8);
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{f} code {code:#04x}"
                );
            }
        }
    }
}
