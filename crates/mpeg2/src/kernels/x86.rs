//! x86-64 SIMD kernel sets (SSE2 baseline, AVX2 where detected).
//!
//! # Bit-exactness
//!
//! The SIMD IDCT mirrors the scalar fixed-point butterfly *operation for
//! operation* but in 32-bit lanes (the scalar code uses `i64`). For
//! coefficients in the dequantiser's output range `[-2048, 2047]` interval
//! arithmetic bounds every intermediate below `2^31` (the worst case is
//! the column-pass `x8 - 4017·x7` pair at ≈1.84e9), so 32-bit lanes never
//! wrap and the result equals the `i64` scalar computation. The only step
//! that could overflow, the `(181·s + 128) >> 8` rotations, is decomposed
//! exactly as `181·(s >> 8) + ((181·(s & 255) + 128) >> 8)` (writing
//! `s = 256·(s >> 8) + (s & 255)`; both shifts are arithmetic, so the
//! identity holds for negative `s` too). Blocks outside `[-2048, 2047]`
//! (possible for hand-built inputs, never for dequantised ones) fall back
//! to the scalar IDCT, making dispatch unconditionally bit-exact.
//!
//! The scalar per-row/per-column zero-AC shortcut is reproduced per lane
//! with a compare mask and a blend, so shortcut and butterfly lanes mix
//! freely within one vector.
//!
//! Half-pel averaging uses `pavgb`, whose rounding `(a + b + 1) >> 1` is
//! exactly the MPEG-2 half-pel formula. The diagonal case widens to
//! 16 bits for `(a + b + c + d + 2) >> 2` — chaining two `pavgb`s would
//! *not* be bit-exact. Reconstruction packs residuals with `packssdw`,
//! adds with `adds_epi16` and narrows with `packus_epi16`; saturation
//! points coincide with the scalar `clamp` for every `i32` residual.
//!
//! 8-wide (chroma) rows use 8-byte loads/stores only, so nothing reads
//! past the `(rows − 1) · stride + cols` bytes the fetch buffer guarantees.

use super::{scalar, KernelSet};
use core::arch::x86_64::*;

/// SSE2 kernel set. SSE2 is part of the x86-64 baseline, so this set is
/// always available on this architecture.
pub static SSE2: KernelSet = KernelSet {
    name: "sse2",
    idct: idct_sse2,
    idct_in_range: idct_sse2_in_range,
    mc_copy_strided: scalar::mc_copy_strided,
    mc_avg_h_strided: mc_avg_h_sse2,
    mc_avg_v_strided: mc_avg_v_sse2,
    mc_avg_hv_strided: mc_avg_hv_sse2,
    average: average_sse2,
    mc_copy: scalar::mc_copy,
    mc_avg_h: mc_avg_h_packed_sse2,
    mc_avg_v: mc_avg_v_packed_sse2,
    mc_avg_hv: mc_avg_hv_packed_sse2,
    add_residual: add_residual_sse2,
    set_block: set_block_sse2,
    prefetch: prefetch_t0,
};

/// AVX2 kernel set: the IDCT runs all 8 rows (then all 8 columns) in one
/// 8-lane register pass. Motion compensation and reconstruction reuse the
/// 128-bit kernels — they are bound by the 8/16-byte row width, which a
/// wider register cannot help.
pub static AVX2: KernelSet = KernelSet {
    name: "avx2",
    idct: idct_avx2,
    idct_in_range: idct_avx2_in_range,
    mc_copy_strided: scalar::mc_copy_strided,
    mc_avg_h_strided: mc_avg_h_sse2,
    mc_avg_v_strided: mc_avg_v_sse2,
    mc_avg_hv_strided: mc_avg_hv_sse2,
    average: average_sse2,
    mc_copy: scalar::mc_copy,
    mc_avg_h: mc_avg_h_packed_sse2,
    mc_avg_v: mc_avg_v_packed_sse2,
    mc_avg_hv: mc_avg_hv_packed_sse2,
    add_residual: add_residual_sse2,
    set_block: set_block_sse2,
    prefetch: prefetch_t0,
};

/// Requests `bytes` into all cache levels, one `prefetcht0` per 64-byte
/// line. The hint is advisory (never faults, even on unmapped addresses)
/// and has no architectural effect, so it needs no bit-exactness proof.
fn prefetch_t0(bytes: &[u8]) {
    let mut p = bytes.as_ptr();
    // SAFETY: `_mm_prefetch` is SSE (x86-64 baseline) and is defined for
    // *any* address — it cannot fault or load — so passing pointers within
    // (or one line past) a live slice is trivially sound.
    unsafe {
        let end = p.add(bytes.len());
        while p < end {
            _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
            p = p.add(64);
        }
    }
}

/// Coefficient range for which the 32-bit lane IDCT is overflow-free.
/// Matches the dequantiser's saturation range, so decode always qualifies.
fn idct_in_range(block: &[i32; 64]) -> bool {
    block.iter().all(|&v| (-2048..=2047).contains(&v))
}

fn idct_sse2(block: &mut [i32; 64]) {
    if !idct_in_range(block) {
        return crate::dct::idct_scalar(block);
    }
    idct_sse2_in_range(block)
}

/// SSE2 IDCT without the range scan: the caller vouches for
/// `[-2048, 2047]` (out-of-range input wraps lanes, nothing worse).
fn idct_sse2_in_range(block: &mut [i32; 64]) {
    // SAFETY: SSE2 is part of the x86-64 baseline feature set.
    unsafe { sse2v::idct(block) }
}

fn idct_avx2(block: &mut [i32; 64]) {
    if !idct_in_range(block) {
        return crate::dct::idct_scalar(block);
    }
    idct_avx2_in_range(block)
}

/// AVX2 IDCT without the range scan; see [`idct_sse2_in_range`].
fn idct_avx2_in_range(block: &mut [i32; 64]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability checked on the line above.
        unsafe { avx2v::idct(block) }
    } else {
        // Unreachable through `kernels::available()`, but keeps the raw
        // function pointer sound on any host.
        // SAFETY: SSE2 is part of the x86-64 baseline feature set.
        unsafe { sse2v::idct(block) }
    }
}

/// Generates the per-ISA helpers shared by both vector widths: multiply
/// by constant, the exact `(181·s + 128) >> 8` decomposition, and the
/// `[-256, 255]` output clamp.
macro_rules! derived_helpers {
    ($feat:literal) => {
        // SAFETY: unsafe only for the #[target_feature] requirement; called from
        // same-feature fns or behind the dispatch wrappers' runtime checks.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn v_mulc(a: V, c: i32) -> V {
            v_mullo(a, v_splat(c))
        }

        /// Exact 32-bit `(181 * s + 128) >> 8` (see module docs).
        // SAFETY: unsafe only for the #[target_feature] requirement; called from
        // same-feature fns or behind the dispatch wrappers' runtime checks.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn v_mul181r(s: V) -> V {
            let hi = v_mullo(v_sra::<8>(s), v_splat(181));
            let lo = v_sra::<8>(v_add(
                v_mullo(v_and(s, v_splat(255)), v_splat(181)),
                v_splat(128),
            ));
            v_add(hi, lo)
        }

        // SAFETY: unsafe only for the #[target_feature] requirement; called from
        // same-feature fns or behind the dispatch wrappers' runtime checks.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn v_clamp256(v: V) -> V {
            v_max(v_min(v, v_splat(255)), v_splat(-256))
        }
    };
}

/// The shared IDCT butterfly: a transliteration of `dct::idct_scalar`
/// with lanes running across the 8 rows (then the 8 columns) at once.
/// Expanded inside each ISA module so every call inlines into one
/// `#[target_feature]` function.
macro_rules! idct_body {
    ($block:expr) => {{
        let p: *mut i32 = $block.as_mut_ptr();
        let mut m = [
            v_load(p),
            v_load(p.add(8)),
            v_load(p.add(16)),
            v_load(p.add(24)),
            v_load(p.add(32)),
            v_load(p.add(40)),
            v_load(p.add(48)),
            v_load(p.add(56)),
        ];
        // Row pass operates on columns-as-vectors: lane r of m[j] = blk[r][j].
        transpose8(&mut m);
        {
            let zero_ac = v_eq0(v_or(
                v_or(v_or(m[1], m[2]), v_or(m[3], m[4])),
                v_or(v_or(m[5], m[6]), m[7]),
            ));
            let shortcut = v_shl::<3>(m[0]);
            let mut x1 = v_shl::<11>(m[4]);
            let mut x2 = m[6];
            let mut x3 = m[2];
            let mut x4 = m[1];
            let mut x5 = m[7];
            let mut x6 = m[5];
            let mut x7 = m[3];
            let mut x0 = v_add(v_shl::<11>(m[0]), v_splat(128));
            // first stage (constants: W7, W1-W7, W1+W7, W3, W3-W5, W3+W5)
            let mut x8 = v_mulc(v_add(x4, x5), 565);
            x4 = v_add(x8, v_mulc(x4, 2276));
            x5 = v_sub(x8, v_mulc(x5, 3406));
            x8 = v_mulc(v_add(x6, x7), 2408);
            x6 = v_sub(x8, v_mulc(x6, 799));
            x7 = v_sub(x8, v_mulc(x7, 4017));
            // second stage (W6, W2+W6, W2-W6)
            x8 = v_add(x0, x1);
            x0 = v_sub(x0, x1);
            x1 = v_mulc(v_add(x3, x2), 1108);
            x2 = v_sub(x1, v_mulc(x2, 3784));
            x3 = v_add(x1, v_mulc(x3, 1568));
            x1 = v_add(x4, x6);
            x4 = v_sub(x4, x6);
            x6 = v_add(x5, x7);
            x5 = v_sub(x5, x7);
            // third stage
            x7 = v_add(x8, x3);
            x8 = v_sub(x8, x3);
            x3 = v_add(x0, x2);
            x0 = v_sub(x0, x2);
            x2 = v_mul181r(v_add(x4, x5));
            x4 = v_mul181r(v_sub(x4, x5));
            // fourth stage
            m[0] = v_sel(zero_ac, shortcut, v_sra::<8>(v_add(x7, x1)));
            m[1] = v_sel(zero_ac, shortcut, v_sra::<8>(v_add(x3, x2)));
            m[2] = v_sel(zero_ac, shortcut, v_sra::<8>(v_add(x0, x4)));
            m[3] = v_sel(zero_ac, shortcut, v_sra::<8>(v_add(x8, x6)));
            m[4] = v_sel(zero_ac, shortcut, v_sra::<8>(v_sub(x8, x6)));
            m[5] = v_sel(zero_ac, shortcut, v_sra::<8>(v_sub(x0, x4)));
            m[6] = v_sel(zero_ac, shortcut, v_sra::<8>(v_sub(x3, x2)));
            m[7] = v_sel(zero_ac, shortcut, v_sra::<8>(v_sub(x7, x1)));
        }
        // Column pass operates on rows-as-vectors: lane c of m[i] = t[i][c].
        transpose8(&mut m);
        {
            let zero_ac = v_eq0(v_or(
                v_or(v_or(m[1], m[2]), v_or(m[3], m[4])),
                v_or(v_or(m[5], m[6]), m[7]),
            ));
            let shortcut = v_clamp256(v_sra::<6>(v_add(m[0], v_splat(32))));
            let mut x1 = v_shl::<8>(m[4]);
            let mut x2 = m[6];
            let mut x3 = m[2];
            let mut x4 = m[1];
            let mut x5 = m[7];
            let mut x6 = m[5];
            let mut x7 = m[3];
            let mut x0 = v_add(v_shl::<8>(m[0]), v_splat(8192));
            // first stage
            let mut x8 = v_add(v_mulc(v_add(x4, x5), 565), v_splat(4));
            x4 = v_sra::<3>(v_add(x8, v_mulc(x4, 2276)));
            x5 = v_sra::<3>(v_sub(x8, v_mulc(x5, 3406)));
            x8 = v_add(v_mulc(v_add(x6, x7), 2408), v_splat(4));
            x6 = v_sra::<3>(v_sub(x8, v_mulc(x6, 799)));
            x7 = v_sra::<3>(v_sub(x8, v_mulc(x7, 4017)));
            // second stage
            x8 = v_add(x0, x1);
            x0 = v_sub(x0, x1);
            x1 = v_add(v_mulc(v_add(x3, x2), 1108), v_splat(4));
            x2 = v_sra::<3>(v_sub(x1, v_mulc(x2, 3784)));
            x3 = v_sra::<3>(v_add(x1, v_mulc(x3, 1568)));
            x1 = v_add(x4, x6);
            x4 = v_sub(x4, x6);
            x6 = v_add(x5, x7);
            x5 = v_sub(x5, x7);
            // third stage
            x7 = v_add(x8, x3);
            x8 = v_sub(x8, x3);
            x3 = v_add(x0, x2);
            x0 = v_sub(x0, x2);
            x2 = v_mul181r(v_add(x4, x5));
            x4 = v_mul181r(v_sub(x4, x5));
            // fourth stage
            m[0] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_add(x7, x1))));
            m[1] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_add(x3, x2))));
            m[2] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_add(x0, x4))));
            m[3] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_add(x8, x6))));
            m[4] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_sub(x8, x6))));
            m[5] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_sub(x0, x4))));
            m[6] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_sub(x3, x2))));
            m[7] = v_sel(zero_ac, shortcut, v_clamp256(v_sra::<14>(v_sub(x7, x1))));
        }
        v_store(p, m[0]);
        v_store(p.add(8), m[1]);
        v_store(p.add(16), m[2]);
        v_store(p.add(24), m[3]);
        v_store(p.add(32), m[4]);
        v_store(p.add(40), m[5]);
        v_store(p.add(48), m[6]);
        v_store(p.add(56), m[7]);
    }};
}

/// Eight 32-bit lanes as a pair of SSE2 registers.
mod sse2v {
    use core::arch::x86_64::*;

    pub(super) type V = (__m128i, __m128i);

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_splat(v: i32) -> V {
        (_mm_set1_epi32(v), _mm_set1_epi32(v))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_load(p: *const i32) -> V {
        (
            _mm_loadu_si128(p as *const __m128i),
            _mm_loadu_si128(p.add(4) as *const __m128i),
        )
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_store(p: *mut i32, a: V) {
        _mm_storeu_si128(p as *mut __m128i, a.0);
        _mm_storeu_si128(p.add(4) as *mut __m128i, a.1);
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_add(a: V, b: V) -> V {
        (_mm_add_epi32(a.0, b.0), _mm_add_epi32(a.1, b.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_sub(a: V, b: V) -> V {
        (_mm_sub_epi32(a.0, b.0), _mm_sub_epi32(a.1, b.1))
    }

    /// SSE2 lacks `pmulld`; build a 32-bit low multiply out of the two
    /// even/odd 32×32→64 unsigned multiplies (low halves are the same
    /// for signed operands).
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn mullo128(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_si128::<4>(a), _mm_srli_si128::<4>(b));
        let even = _mm_shuffle_epi32::<0b00_00_10_00>(even);
        let odd = _mm_shuffle_epi32::<0b00_00_10_00>(odd);
        _mm_unpacklo_epi32(even, odd)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_mullo(a: V, b: V) -> V {
        (mullo128(a.0, b.0), mullo128(a.1, b.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_shl<const N: i32>(a: V) -> V {
        (_mm_slli_epi32::<N>(a.0), _mm_slli_epi32::<N>(a.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_sra<const N: i32>(a: V) -> V {
        (_mm_srai_epi32::<N>(a.0), _mm_srai_epi32::<N>(a.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_and(a: V, b: V) -> V {
        (_mm_and_si128(a.0, b.0), _mm_and_si128(a.1, b.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_or(a: V, b: V) -> V {
        (_mm_or_si128(a.0, b.0), _mm_or_si128(a.1, b.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_eq0(a: V) -> V {
        let z = _mm_setzero_si128();
        (_mm_cmpeq_epi32(a.0, z), _mm_cmpeq_epi32(a.1, z))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn sel128(m: __m128i, a: __m128i, b: __m128i) -> __m128i {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    /// Lanewise `mask ? a : b` (mask lanes are all-ones or all-zeros).
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_sel(m: V, a: V, b: V) -> V {
        (sel128(m.0, a.0, b.0), sel128(m.1, a.1, b.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_min(a: V, b: V) -> V {
        let m = (_mm_cmpgt_epi32(a.0, b.0), _mm_cmpgt_epi32(a.1, b.1));
        (sel128(m.0, b.0, a.0), sel128(m.1, b.1, a.1))
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn v_max(a: V, b: V) -> V {
        let m = (_mm_cmpgt_epi32(a.0, b.0), _mm_cmpgt_epi32(a.1, b.1));
        (sel128(m.0, a.0, b.0), sel128(m.1, a.1, b.1))
    }

    /// Transposes a 4×4 i32 tile held in four registers.
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn tr4(
        a: __m128i,
        b: __m128i,
        c: __m128i,
        d: __m128i,
    ) -> (__m128i, __m128i, __m128i, __m128i) {
        let t0 = _mm_unpacklo_epi32(a, b); // a0 b0 a1 b1
        let t1 = _mm_unpackhi_epi32(a, b); // a2 b2 a3 b3
        let t2 = _mm_unpacklo_epi32(c, d); // c0 d0 c1 d1
        let t3 = _mm_unpackhi_epi32(c, d); // c2 d2 c3 d3
        (
            _mm_unpacklo_epi64(t0, t2),
            _mm_unpackhi_epi64(t0, t2),
            _mm_unpacklo_epi64(t1, t3),
            _mm_unpackhi_epi64(t1, t3),
        )
    }

    /// 8×8 transpose as four 4×4 quadrant transposes.
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn transpose8(r: &mut [V; 8]) {
        let (a0, a1, a2, a3) = tr4(r[0].0, r[1].0, r[2].0, r[3].0);
        let (b0, b1, b2, b3) = tr4(r[0].1, r[1].1, r[2].1, r[3].1);
        let (c0, c1, c2, c3) = tr4(r[4].0, r[5].0, r[6].0, r[7].0);
        let (d0, d1, d2, d3) = tr4(r[4].1, r[5].1, r[6].1, r[7].1);
        r[0] = (a0, c0);
        r[1] = (a1, c1);
        r[2] = (a2, c2);
        r[3] = (a3, c3);
        r[4] = (b0, d0);
        r[5] = (b1, d1);
        r[6] = (b2, d2);
        r[7] = (b3, d3);
    }

    derived_helpers!("sse2");

    /// SSE2 IDCT. Caller must ensure every coefficient is in
    /// `[-2048, 2047]` (32-bit overflow freedom; see module docs).
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn idct(block: &mut [i32; 64]) {
        idct_body!(block)
    }
}

/// Eight 32-bit lanes as one AVX2 register.
mod avx2v {
    use core::arch::x86_64::*;

    pub(super) type V = __m256i;

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_splat(v: i32) -> V {
        _mm256_set1_epi32(v)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_load(p: *const i32) -> V {
        _mm256_loadu_si256(p as *const __m256i)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_store(p: *mut i32, a: V) {
        _mm256_storeu_si256(p as *mut __m256i, a);
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_add(a: V, b: V) -> V {
        _mm256_add_epi32(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_sub(a: V, b: V) -> V {
        _mm256_sub_epi32(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_mullo(a: V, b: V) -> V {
        _mm256_mullo_epi32(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_shl<const N: i32>(a: V) -> V {
        _mm256_slli_epi32::<N>(a)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_sra<const N: i32>(a: V) -> V {
        _mm256_srai_epi32::<N>(a)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_and(a: V, b: V) -> V {
        _mm256_and_si256(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_or(a: V, b: V) -> V {
        _mm256_or_si256(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_eq0(a: V) -> V {
        _mm256_cmpeq_epi32(a, _mm256_setzero_si256())
    }

    /// Lanewise `mask ? a : b` (mask lanes are all-ones or all-zeros).
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_sel(m: V, a: V, b: V) -> V {
        _mm256_blendv_epi8(b, a, m)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_min(a: V, b: V) -> V {
        _mm256_min_epi32(a, b)
    }

    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v_max(a: V, b: V) -> V {
        _mm256_max_epi32(a, b)
    }

    /// Full 8×8 i32 transpose: 32-bit unpacks, 64-bit unpacks, then a
    /// cross-lane 128-bit permute.
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(r: &mut [V; 8]) {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2); // col0 | col4 (rows 0-3)
        let u1 = _mm256_unpackhi_epi64(t0, t2); // col1 | col5
        let u2 = _mm256_unpacklo_epi64(t1, t3); // col2 | col6
        let u3 = _mm256_unpackhi_epi64(t1, t3); // col3 | col7
        let u4 = _mm256_unpacklo_epi64(t4, t6); // col0 | col4 (rows 4-7)
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        r[0] = _mm256_permute2x128_si256::<0x20>(u0, u4);
        r[1] = _mm256_permute2x128_si256::<0x20>(u1, u5);
        r[2] = _mm256_permute2x128_si256::<0x20>(u2, u6);
        r[3] = _mm256_permute2x128_si256::<0x20>(u3, u7);
        r[4] = _mm256_permute2x128_si256::<0x31>(u0, u4);
        r[5] = _mm256_permute2x128_si256::<0x31>(u1, u5);
        r[6] = _mm256_permute2x128_si256::<0x31>(u2, u6);
        r[7] = _mm256_permute2x128_si256::<0x31>(u3, u7);
    }

    derived_helpers!("avx2");

    /// AVX2 IDCT. Caller must ensure AVX2 is available and every
    /// coefficient is in `[-2048, 2047]` (see module docs).
    // SAFETY: unsafe only for the #[target_feature] requirement; called from
    // same-feature fns or behind the dispatch wrappers' runtime checks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn idct(block: &mut [i32; 64]) {
        idct_body!(block)
    }
}

// ---------------------------------------------------------------------------
// Motion compensation (SSE2; shared by the AVX2 set).
// ---------------------------------------------------------------------------

/// Bytes a `rows × cols` block spans at `stride`: the offset one past its
/// last sample. Saturating, so an absurd stride fails the length checks
/// below instead of wrapping past them.
fn block_span(rows: usize, stride: usize, cols: usize) -> usize {
    (rows - 1).saturating_mul(stride).saturating_add(cols)
}

/// Bounds check shared by the motion-compensation wrappers: `rows × cols`
/// must be readable from `src` at `src_stride` and `size × size` writable
/// in `dst` at `dst_stride`. Anything the SIMD path can't prove safe goes
/// to the scalar kernel, which has the same semantics (including panics
/// on truncated slices).
fn mc_simd_applicable(
    (src, src_stride): (&[u8], usize),
    (dst, dst_stride): (&[u8], usize),
    size: usize,
    extra_rows: usize,
    extra_cols: usize,
) -> bool {
    (size == 8 || size == 16)
        && src_stride >= size + extra_cols
        && src.len() >= block_span(size + extra_rows, src_stride, size + extra_cols)
        && dst_stride >= size
        && dst.len() >= block_span(size, dst_stride, size)
}

fn mc_avg_h_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    if !mc_simd_applicable((src, src_stride), (dst, dst_stride), size, 0, 1) {
        return scalar::mc_avg_h_strided(src, src_stride, dst, dst_stride, size);
    }
    // SAFETY: SSE2 is baseline; bounds proven by `mc_simd_applicable`.
    unsafe { mc_avg_h_impl(src, src_stride, dst, dst_stride, size) }
}

fn mc_avg_v_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    if !mc_simd_applicable((src, src_stride), (dst, dst_stride), size, 1, 0) {
        return scalar::mc_avg_v_strided(src, src_stride, dst, dst_stride, size);
    }
    // SAFETY: SSE2 is baseline; bounds proven by `mc_simd_applicable`.
    unsafe { mc_avg_v_impl(src, src_stride, dst, dst_stride, size) }
}

fn mc_avg_hv_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    if !mc_simd_applicable((src, src_stride), (dst, dst_stride), size, 1, 1) {
        return scalar::mc_avg_hv_strided(src, src_stride, dst, dst_stride, size);
    }
    // SAFETY: SSE2 is baseline; bounds proven by `mc_simd_applicable`.
    unsafe { mc_avg_hv_impl(src, src_stride, dst, dst_stride, size) }
}

// Packed forms (`dst_stride == size`): these stay only because the frozen
// `benchmark/src/layers.rs` calls `KernelSet::mc_avg_hv` with this
// signature; they go with the next `benchmark/` PR.

fn mc_avg_h_packed_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_h_sse2(src, src_stride, dst, size, size)
}

fn mc_avg_v_packed_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_v_sse2(src, src_stride, dst, size, size)
}

fn mc_avg_hv_packed_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_hv_sse2(src, src_stride, dst, size, size)
}

/// `pavgb` of rows `(y, x)` and `(y, x+1)`; rounding matches the scalar
/// `(a + b + 1) >> 1` exactly.
// SAFETY: unsafe only for the #[target_feature] requirement; called from
// same-feature fns or behind the dispatch wrappers' runtime checks.
#[target_feature(enable = "sse2")]
unsafe fn mc_avg_h_impl(src: &[u8], stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    if size == 16 {
        for y in 0..16 {
            let a = _mm_loadu_si128(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadu_si128(sp.add(y * stride + 1) as *const __m128i);
            _mm_storeu_si128(dp.add(y * dst_stride) as *mut __m128i, _mm_avg_epu8(a, b));
        }
    } else {
        for y in 0..8 {
            let a = _mm_loadl_epi64(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadl_epi64(sp.add(y * stride + 1) as *const __m128i);
            _mm_storel_epi64(dp.add(y * dst_stride) as *mut __m128i, _mm_avg_epu8(a, b));
        }
    }
}

// SAFETY: unsafe only for the #[target_feature] requirement; called from
// same-feature fns or behind the dispatch wrappers' runtime checks.
#[target_feature(enable = "sse2")]
unsafe fn mc_avg_v_impl(src: &[u8], stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    if size == 16 {
        for y in 0..16 {
            let a = _mm_loadu_si128(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadu_si128(sp.add((y + 1) * stride) as *const __m128i);
            _mm_storeu_si128(dp.add(y * dst_stride) as *mut __m128i, _mm_avg_epu8(a, b));
        }
    } else {
        for y in 0..8 {
            let a = _mm_loadl_epi64(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadl_epi64(sp.add((y + 1) * stride) as *const __m128i);
            _mm_storel_epi64(dp.add(y * dst_stride) as *mut __m128i, _mm_avg_epu8(a, b));
        }
    }
}

/// Widening `(a + b + c + d + 2) >> 2`. Max sum is `4·255 + 2`, well
/// inside 16 bits, so the logical 16-bit shift is exact.
// SAFETY: unsafe only for the #[target_feature] requirement; called from
// same-feature fns or behind the dispatch wrappers' runtime checks.
#[target_feature(enable = "sse2")]
unsafe fn mc_avg_hv_impl(
    src: &[u8],
    stride: usize,
    dst: &mut [u8],
    dst_stride: usize,
    size: usize,
) {
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let zero = _mm_setzero_si128();
    let two = _mm_set1_epi16(2);
    if size == 16 {
        for y in 0..16 {
            let a = _mm_loadu_si128(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadu_si128(sp.add(y * stride + 1) as *const __m128i);
            let c = _mm_loadu_si128(sp.add((y + 1) * stride) as *const __m128i);
            let d = _mm_loadu_si128(sp.add((y + 1) * stride + 1) as *const __m128i);
            let lo = _mm_srli_epi16::<2>(_mm_add_epi16(
                _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                _mm_add_epi16(
                    _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)),
                    two,
                ),
            ));
            let hi = _mm_srli_epi16::<2>(_mm_add_epi16(
                _mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero)),
                _mm_add_epi16(
                    _mm_add_epi16(_mm_unpackhi_epi8(c, zero), _mm_unpackhi_epi8(d, zero)),
                    two,
                ),
            ));
            _mm_storeu_si128(
                dp.add(y * dst_stride) as *mut __m128i,
                _mm_packus_epi16(lo, hi),
            );
        }
    } else {
        for y in 0..8 {
            let a = _mm_loadl_epi64(sp.add(y * stride) as *const __m128i);
            let b = _mm_loadl_epi64(sp.add(y * stride + 1) as *const __m128i);
            let c = _mm_loadl_epi64(sp.add((y + 1) * stride) as *const __m128i);
            let d = _mm_loadl_epi64(sp.add((y + 1) * stride + 1) as *const __m128i);
            let lo = _mm_srli_epi16::<2>(_mm_add_epi16(
                _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                _mm_add_epi16(
                    _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)),
                    two,
                ),
            ));
            _mm_storel_epi64(
                dp.add(y * dst_stride) as *mut __m128i,
                _mm_packus_epi16(lo, lo),
            );
        }
    }
}

/// `pavgb` of each destination row with the matching source row; rounding
/// matches the scalar `(a + b + 1) >> 1` exactly.
fn average_sse2(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    if !mc_simd_applicable((src, src_stride), (dst, dst_stride), size, 0, 0) {
        return scalar::average(src, src_stride, dst, dst_stride, size);
    }
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    // SAFETY: SSE2 is baseline; `mc_simd_applicable` proved `size` bytes of
    // each of the `size` rows in bounds of both slices at their strides.
    unsafe {
        for y in 0..size {
            let (s, d) = (sp.add(y * src_stride), dp.add(y * dst_stride));
            if size == 16 {
                let a = _mm_loadu_si128(d as *const __m128i);
                let b = _mm_loadu_si128(s as *const __m128i);
                _mm_storeu_si128(d as *mut __m128i, _mm_avg_epu8(a, b));
            } else {
                let a = _mm_loadl_epi64(d as *const __m128i);
                let b = _mm_loadl_epi64(s as *const __m128i);
                _mm_storel_epi64(d as *mut __m128i, _mm_avg_epu8(a, b));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reconstruction (SSE2; shared by the AVX2 set).
// ---------------------------------------------------------------------------

fn add_residual_sse2(dst: &mut [u8], stride: usize, residual: &[i32; 64]) {
    if stride < 8 || dst.len() < 7 * stride + 8 {
        return scalar::add_residual(dst, stride, residual);
    }
    // SAFETY: SSE2 is baseline; bounds checked above.
    unsafe { add_residual_impl(dst, stride, residual) }
}

fn set_block_sse2(dst: &mut [u8], stride: usize, samples: &[i32; 64]) {
    if stride < 8 || dst.len() < 7 * stride + 8 {
        return scalar::set_block(dst, stride, samples);
    }
    // SAFETY: SSE2 is baseline; bounds checked above.
    unsafe { set_block_impl(dst, stride, samples) }
}

/// `packssdw` + `adds_epi16` + `packus_epi16`: both saturations coincide
/// with the scalar `clamp(dst + residual, 0, 255)` for every `i32`
/// residual (a residual beyond ±32767 is already past the u8 clamp).
// SAFETY: unsafe only for the #[target_feature] requirement; called from
// same-feature fns or behind the dispatch wrappers' runtime checks.
#[target_feature(enable = "sse2")]
unsafe fn add_residual_impl(dst: &mut [u8], stride: usize, residual: &[i32; 64]) {
    let zero = _mm_setzero_si128();
    let rp = residual.as_ptr();
    let dp = dst.as_mut_ptr();
    for row in 0..8 {
        let lo = _mm_loadu_si128(rp.add(row * 8) as *const __m128i);
        let hi = _mm_loadu_si128(rp.add(row * 8 + 4) as *const __m128i);
        let r16 = _mm_packs_epi32(lo, hi);
        let d8 = _mm_loadl_epi64(dp.add(row * stride) as *const __m128i);
        let d16 = _mm_unpacklo_epi8(d8, zero);
        let sum = _mm_adds_epi16(d16, r16);
        _mm_storel_epi64(
            dp.add(row * stride) as *mut __m128i,
            _mm_packus_epi16(sum, sum),
        );
    }
}

// SAFETY: unsafe only for the #[target_feature] requirement; called from
// same-feature fns or behind the dispatch wrappers' runtime checks.
#[target_feature(enable = "sse2")]
unsafe fn set_block_impl(dst: &mut [u8], stride: usize, samples: &[i32; 64]) {
    let rp = samples.as_ptr();
    let dp = dst.as_mut_ptr();
    for row in 0..8 {
        let lo = _mm_loadu_si128(rp.add(row * 8) as *const __m128i);
        let hi = _mm_loadu_si128(rp.add(row * 8 + 4) as *const __m128i);
        let r16 = _mm_packs_epi32(lo, hi);
        _mm_storel_epi64(
            dp.add(row * stride) as *mut __m128i,
            _mm_packus_epi16(r16, r16),
        );
    }
}
