//! CRC-32 (IEEE 802.3 polynomial), the per-chunk checksum.
//!
//! The polynomial is the ubiquitous one (zlib, PNG, ethernet), so external
//! tooling can verify artifacts without this crate. Opening an artifact
//! checksums every payload byte, so the checksum runs at memory speed:
//!
//! * On x86-64 CPUs with `pclmulqdq`, payloads of 64 bytes or more fold
//!   64 bytes per step with carry-less multiplies — fold-by-4 into four
//!   128-bit accumulators, fold-by-1 into one, then a Barrett reduction to
//!   32 bits — with the reflected-IEEE constants of Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//!   (Intel, 2009). The CPU is asked once per process.
//! * The byte-at-a-time table loop finishes the last 0–15 bytes, runs
//!   payloads under 64 bytes, and is the whole checksum on other hosts.
//!   The tests hold the folded path to it, byte for byte.
//!
//! Both paths compute the same function, so every stored CRC is the same
//! whichever path wrote or checks it. On a 1.4 MB artifact the fold reads
//! ≈ 0.1 ms where the table loop reads ≈ 4.5 ms (DESIGN.md §14).

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Shortest payload the carry-less fold takes: its four accumulators load
/// 64 bytes before the first fold.
const FOLD_MIN: usize = 64;

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// standard parameterization; matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Advance the CRC register `c` over `data`: folded where the CPU has the
/// instruction and the payload is long enough, the table loop otherwise.
fn update(c: u32, data: &[u8]) -> u32 {
    #[cfg(test)]
    if tests::TABLE_ONLY.with(std::cell::Cell::get) {
        return table_update(c, data);
    }
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && clmul::available() {
        // SAFETY: `pclmulqdq` was detected just above, and the payload
        // holds the 64 bytes the fold loads first.
        return unsafe { clmul::update(c, data) };
    }
    table_update(c, data)
}

/// The table loop: one byte per step.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! The carry-less fold. Each constant is a power of `x` modulo the
    //! IEEE polynomial `P`, bit-reflected and shifted left by one
    //! (`tests::fold_constants_are_powers_of_x_mod_p` re-derives them).

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Fold-by-4 (512 bits ahead): `x^(512+32)`, `x^(512−32)` mod `P`.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Fold-by-1 (128 bits ahead): `x^(128+32)`, `x^(128−32)` mod `P`.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// 96 → 64 bits: `x^64` mod `P`.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P` itself and `μ = ⌊x^64 / P⌋`, both reflected
    /// over 33 bits.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// The CPU has `pclmulqdq` (asked once per process).
    pub(super) fn available() -> bool {
        static CLMUL: OnceLock<bool> = OnceLock::new();
        *CLMUL.get_or_init(|| std::arch::is_x86_feature_detected!("pclmulqdq"))
    }

    /// Advance the CRC register `c` over `data`.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`available`], and `data` must hold at
    /// least 64 bytes. Every load reads 16 bytes inside `data`: a block is
    /// loaded only after `chunks_exact` has proven it whole.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(c: u32, data: &[u8]) -> u32 {
        let load = |b: &[u8]| {
            debug_assert_eq!(b.len(), 16);
            _mm_loadu_si128(b.as_ptr().cast())
        };
        let (head, rest) = data.split_at(64);
        let mut x = [
            load(&head[..16]),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        // The register enters as the first 32 message bits' xor.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            for (xi, b) in x.iter_mut().zip(q.chunks_exact(16)) {
                *xi = fold(*xi, load(b), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = fold(acc, load(b), k3k4);
        }

        // 128 → 96 bits: the low half times x^96 onto the high half; then
        // 96 → 64: the low 32 bits times x^64 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction, bit-reflected: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the CRC is the upper half of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t2), 4)) as u32;

        super::table_update(c, blocks.remainder())
    }

    /// `acc` carried 128 bits ahead onto `next`: its low half times the
    /// low key, its high half times the high key.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`available`].
    #[inline(always)]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// [`crc32`] runs the table loop on this thread, whatever the CPU
        /// has.
        pub(super) static TABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// `f(path)` on the table loop, then on the path this CPU runs (the
    /// carry-less fold where detected).
    pub(crate) fn on_both_paths(mut f: impl FnMut(&str)) {
        for (table, path) in [(true, "table loop"), (false, "host path")] {
            TABLE_ONLY.with(|t| t.set(table));
            f(path);
        }
        TABLE_ONLY.with(|t| t.set(false));
    }

    /// The oracle: the table loop, whole.
    fn oracle(data: &[u8]) -> u32 {
        !table_update(!0, data)
    }

    /// Deterministic bytes (xorshift), so every length sees varied data.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        on_both_paths(|path| {
            // The canonical check value for CRC-32/ISO-HDLC.
            assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "{path}");
            assert_eq!(crc32(b""), 0, "{path}");
            assert_eq!(crc32(b"a"), 0xE8B7_BE43, "{path}");
            // zlib's crc32 of 64 zero bytes and of 1 000 bytes `i % 256`:
            // the first reaches the fold with nothing after its head, the
            // second runs every stage (quads, blocks, an 8-byte tail).
            assert_eq!(crc32(&[0u8; 64]), 0x758D_6336, "{path}");
            let ramp: Vec<u8> = (0..1000).map(|i| i as u8).collect();
            assert_eq!(crc32(&ramp), 0x74E3_FB41, "{path}");
        });
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        on_both_paths(|path| {
            for len in [14, 64, 200] {
                let mut buf = noise(len, 7);
                let base = crc32(&buf);
                for i in 0..buf.len() {
                    for bit in 0..8 {
                        buf[i] ^= 1 << bit;
                        assert_ne!(crc32(&buf), base, "{path}: len {len} byte {i} bit {bit}");
                        buf[i] ^= 1 << bit;
                    }
                }
            }
        });
    }

    /// Every length 0–1 100 at every offset 0–15 into the buffer: every
    /// split into quads, blocks and tail, at every load alignment.
    #[test]
    fn fold_matches_the_table_loop_at_every_length_and_offset() {
        let buf = noise(1100 + 16, 3);
        on_both_paths(|path| {
            for off in 0..16 {
                for len in 0..=1100 {
                    let data = &buf[off..off + len];
                    assert_eq!(crc32(data), oracle(data), "{path}: offset {off} len {len}");
                }
            }
        });
    }

    /// A buffer the size of the serving artifact (≈ 1.4 MiB), whole and
    /// ragged at both ends.
    #[test]
    fn fold_matches_the_table_loop_on_a_large_buffer() {
        let buf = noise((1 << 20) + (400 << 10) + 13, 5);
        let want = oracle(&buf);
        let ragged = &buf[3..buf.len() - 5];
        let want_ragged = oracle(ragged);
        on_both_paths(|path| {
            assert_eq!(crc32(&buf), want, "{path}");
            assert_eq!(crc32(ragged), want_ragged, "{path}");
        });
    }

    /// Every chunk of the committed golden artifacts: the stored CRC (the
    /// table loop wrote it), the oracle and `crc32` agree. The chunk table
    /// is walked by hand, since the superseded version's header is one the
    /// reader refuses.
    #[test]
    fn fold_matches_the_stored_crc_of_every_golden_chunk() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
        for name in ["quantized_e4m3_v7.ptq", "quantized_e4m3_v6.ptq"] {
            let bytes = std::fs::read(format!("{root}{name}")).unwrap();
            let word = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let count = word(12) as usize;
            let mut pos = 16;
            for _ in 0..count {
                let stored = word(pos + 4);
                let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
                let payload = &bytes[pos + 16..pos + 16 + len as usize];
                assert_eq!(oracle(payload), stored, "{name} chunk at {pos}");
                on_both_paths(|path| {
                    assert_eq!(crc32(payload), stored, "{name} chunk at {pos}: {path}");
                });
                pos = (pos + 16 + len as usize).div_ceil(8) * 8;
            }
            assert_eq!(pos, bytes.len(), "{name}: every chunk walked");
            assert!(count > 5, "{name}: {count} chunks");
        }
    }

    /// The fold constants, re-derived from the polynomial.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_p() {
        // x^n mod P over the unreflected polynomial, as 32 bits.
        let unreflected = u64::from(POLY.reverse_bits()) | 1 << 32;
        let xpow = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 & 1 != 0 {
                    r ^= unreflected;
                }
            }
            r as u32
        };
        let k = |n: u32| i64::from(xpow(n).reverse_bits()) << 1;
        assert_eq!(clmul::K1, k(4 * 128 + 32));
        assert_eq!(clmul::K2, k(4 * 128 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(clmul::P_X, (unreflected.reverse_bits() >> 31) as i64);
        // μ = ⌊x^64 / P⌋ by long division, reflected over 33 bits.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for s in (0..=32).rev() {
            if rem >> (s + 32) & 1 != 0 {
                rem ^= u128::from(unreflected) << s;
                mu |= 1 << s;
            }
        }
        assert_eq!(clmul::MU, (mu.reverse_bits() >> 31) as i64);
    }
}
