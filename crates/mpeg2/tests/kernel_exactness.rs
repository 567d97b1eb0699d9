//! Bit-exactness properties for every dispatched kernel set.
//!
//! Each available [`KernelSet`] (scalar, and SSE2/AVX2 where the host has
//! them) must produce byte-identical output to the scalar reference on
//! every input: random dense blocks, the per-row/per-column zero-AC
//! shortcut, out-of-range coefficients (which take the scalar fallback
//! inside the SIMD sets), strided vs packed motion-compensation sources,
//! edge-clamped fetches, and saturating reconstruction extremes.

use tiledec_mpeg2::dct::{idct_masked, idct_scalar};
use tiledec_mpeg2::frame::{Frame, Plane, CHROMA_TILE_SHIFT, LUMA_TILE_SHIFT};
use tiledec_mpeg2::kernels::{self, scalar, KernelSet};
use tiledec_mpeg2::motion::{predict, FrameRefs, PlanePick, RefPick, ReferenceFetcher};
use tiledec_mpeg2::types::MotionVector;

/// Serialises the tests that flip the process-wide active kernel set so
/// they cannot observe each other's `set_active` calls.
static KERNEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Seeded xorshift generator: every case is deterministic and
/// reproducible from its printed case number.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in the half-open range `lo..hi`.
    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi as i64 - lo as i64) as u64) as i32
    }
}

const CASES: u64 = 256;

fn block_from(vals: &[i32]) -> [i32; 64] {
    let mut b = [0i32; 64];
    for (dst, src) in b.iter_mut().zip(vals.iter()) {
        *dst = *src;
    }
    b
}

fn assert_idct_matches(set: &KernelSet, coeffs: &[i32; 64], what: &str) {
    let mut expect = *coeffs;
    idct_scalar(&mut expect);
    let mut got = *coeffs;
    (set.idct)(&mut got);
    assert_eq!(expect, got, "idct mismatch: set={} case={what}", set.name);
}

#[test]
fn idct_matches_scalar_on_dense_blocks() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let mut coeffs = [0i32; 64];
        for v in &mut coeffs {
            *v = rng.range(-2048, 2048);
        }
        for set in kernels::available() {
            assert_idct_matches(set, &coeffs, &format!("dense case {case}"));
        }
    }
}

#[test]
fn idct_matches_scalar_on_sparse_blocks() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Few coefficients → most rows/columns hit the zero-AC shortcut,
        // so shortcut and butterfly lanes mix inside one vector.
        let mut coeffs = [0i32; 64];
        for _ in 0..1 + rng.below(5) {
            coeffs[rng.below(64) as usize] = rng.range(-2048, 2048);
        }
        for set in kernels::available() {
            assert_idct_matches(set, &coeffs, &format!("sparse case {case}"));
        }
    }
}

#[test]
fn idct_out_of_range_takes_scalar_fallback() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // A coefficient outside the dequantiser range must route the SIMD
        // sets to the scalar fallback and still match exactly.
        let mut coeffs = [0i32; 64];
        for v in &mut coeffs {
            *v = rng.range(-2048, 2048);
        }
        let hot = rng.below(64) as usize;
        let spike = rng.range(2048, 100_001);
        coeffs[hot] = if rng.next() & 1 == 1 {
            -spike - 1
        } else {
            spike
        };
        for set in kernels::available() {
            assert_idct_matches(set, &coeffs, &format!("spike case {case}"));
        }
    }
}

#[test]
fn idct_adversarial_extremes_match_scalar() {
    for set in kernels::available() {
        // DC-only (global shortcut), all-ones rows, saturated blocks, and
        // every single-coefficient basis block at both range extremes —
        // the inputs that maximise intermediate magnitudes.
        assert_idct_matches(set, &[0i32; 64], "all-zero");
        assert_idct_matches(set, &block_from(&[2047]), "dc-max");
        assert_idct_matches(set, &block_from(&[-2048]), "dc-min");
        assert_idct_matches(set, &[2047i32; 64], "all-max");
        assert_idct_matches(set, &[-2048i32; 64], "all-min");
        let mut alt = [0i32; 64];
        for (i, v) in alt.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 2047 } else { -2048 };
        }
        assert_idct_matches(set, &alt, "alternating");
        for pos in 0..64 {
            let mut b = [0i32; 64];
            b[pos] = 2047;
            assert_idct_matches(set, &b, "basis+");
            b[pos] = -2048;
            assert_idct_matches(set, &b, "basis-");
        }
        // Single zero-AC rows/columns inside otherwise dense blocks.
        for lane in 0..8 {
            let mut b = [1000i32; 64];
            for i in 0..8 {
                b[lane * 8 + i] = 0; // row `lane` zero except DC untouched
            }
            b[lane * 8] = 500;
            assert_idct_matches(set, &b, "zero-ac-row");
            let mut b = [-999i32; 64];
            for i in 1..8 {
                b[i * 8 + lane] = 0;
            }
            assert_idct_matches(set, &b, "zero-ac-col");
        }
    }
}

/// What `MbCoeffs` would hold for these coefficients: saturated values,
/// mismatch control applied (§7.4.4: an even sum toggles the LSB of
/// `[63]`), and the mask of indices that may be non-zero.
fn dequantised(coeffs: &[(usize, i32)]) -> ([i32; 64], u64) {
    let mut block = [0i32; 64];
    let mut mask = 0u64;
    for &(i, v) in coeffs {
        block[i] = v;
        mask |= 1 << i;
    }
    if block.iter().sum::<i32>() % 2 == 0 {
        block[63] ^= 1;
        mask = (mask & !(1 << 63)) | ((block[63] != 0) as u64) << 63;
    }
    (block, mask)
}

/// The decoder's entry must equal the scalar definition and hand the
/// workspace back zeroed.
fn assert_masked_matches(block: &[i32; 64], mask: u64, what: &str) {
    let mut expect = *block;
    idct_scalar(&mut expect);
    let mut ws = *block;
    let mut got = [0x5A5A_5A5Ai32; 64];
    idct_masked(&mut ws, mask, &mut got);
    assert_eq!(expect, got, "idct_masked mismatch: {what}");
    assert_eq!(ws, [0i32; 64], "workspace not re-zeroed: {what}");
}

/// Runs `f` once per available kernel set with that set active — the
/// shortcuts are set-independent code, the full transform behind them is
/// not, and a block must come out the same whichever one it lands on.
fn for_each_active_set(f: impl Fn(&str)) {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = kernels::active();
    for set in kernels::available() {
        kernels::set_active(set);
        f(set.name);
    }
    kernels::set_active(before);
}

/// Exhaustive over the DC-only family: every DC the dequantiser can emit,
/// alone, and with each value mismatch control or a coded `[63]` can
/// leave there next to it (absent, the `±1` the toggle produces, and the
/// `±2` neighbours that must *not* take the `±1` shortcut).
#[test]
fn masked_idct_exhaustive_dc_family() {
    // Miri runs the scalar set only and interprets every butterfly.
    let step = if cfg!(miri) { 61 } else { 1 };
    for_each_active_set(|set| {
        for dc in (-2048..=2047).step_by(step) {
            assert_masked_matches(&block_from(&[dc]), 1, &format!("{set} dc={dc} alone"));
            for last in [1, -1, 2, -2] {
                let mut block = block_from(&[dc]);
                block[63] = last;
                let what = format!("{set} dc={dc} [63]={last}");
                assert_masked_matches(&block, 1 | 1 << 63, &what);
            }
            // As the sink delivers it: the toggle decided by DC's parity,
            // for an intra block (DC bit always in the mask) and for a
            // non-intra block whose only coefficient sits at [0].
            let (block, mask) = dequantised(&[(0, dc)]);
            assert_masked_matches(&block, mask, &format!("{set} dc={dc} after mismatch"));
        }
        // An intra block whose DC dequantised to zero still has its bit set.
        assert_masked_matches(&[0; 64], 1, &format!("{set} zero dc"));
        assert_masked_matches(&[0; 64], 0, &format!("{set} empty mask"));
    });
}

/// Exhaustive over single-coefficient blocks: every position × every
/// dequantiser output value, after mismatch control.
#[test]
fn masked_idct_exhaustive_single_coefficient() {
    let step = if cfg!(miri) { 257 } else { 1 };
    for_each_active_set(|set| {
        for pos in 0..64 {
            for v in (-2048..=2047).step_by(step) {
                let (block, mask) = dequantised(&[(pos, v)]);
                assert_masked_matches(&block, mask, &format!("{set} [{pos}]={v}"));
            }
        }
    });
}

/// Row-0 blocks (with and without the toggle), masks that over-approximate
/// (bits set over zeros), and everything-else blocks through the
/// range-guaranteed full transform.
#[test]
fn masked_idct_matches_scalar_on_random_shapes() {
    for_each_active_set(|set| {
        for case in 0..4 * CASES {
            let mut rng = Rng::new(case);
            let mut coeffs = Vec::new();
            let row0_only = case % 2 == 0;
            for _ in 0..1 + rng.below(8) {
                let pos = if row0_only {
                    rng.below(8)
                } else {
                    rng.below(64)
                } as usize;
                let extreme = [2047, -2048, 1, -1][rng.below(4) as usize];
                let v = if rng.below(4) == 0 {
                    extreme
                } else {
                    rng.range(-2048, 2048)
                };
                coeffs.retain(|&(p, _)| p != pos);
                coeffs.push((pos, v));
            }
            let (block, mask) = dequantised(&coeffs);
            assert_masked_matches(&block, mask, &format!("{set} case {case}"));
            // A superset mask must change nothing.
            let wide = mask | 1 << rng.below(64);
            assert_masked_matches(&block, wide, &format!("{set} case {case} wide mask"));
        }
    });
}

/// `idct_in_range` is `idct` minus the range scan.
#[test]
fn idct_in_range_entry_matches_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let mut coeffs = [0i32; 64];
        let density = [3, 20, 100][case as usize % 3];
        for v in &mut coeffs {
            if rng.below(100) < density {
                *v = rng.range(-2048, 2048);
            }
        }
        let mut expect = coeffs;
        idct_scalar(&mut expect);
        for set in kernels::available() {
            let mut got = coeffs;
            (set.idct_in_range)(&mut got);
            assert_eq!(expect, got, "set={} case {case}", set.name);
        }
    }
    for set in kernels::available() {
        for fill in [2047, -2048] {
            let mut expect = [fill; 64];
            idct_scalar(&mut expect);
            let mut got = [fill; 64];
            (set.idct_in_range)(&mut got);
            assert_eq!(expect, got, "set={} fill {fill}", set.name);
        }
    }
}

fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        })
        .collect()
}

#[test]
fn mc_variants_match_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let size = if rng.next() & 1 == 1 { 16 } else { 8 };
        let pad = rng.below(5) as usize;
        let stride = size + 1 + pad;
        let src = xorshift_bytes(rng.next(), size * stride + stride + 2);
        type Pair = (
            fn(&[u8], usize, &mut [u8], usize),
            fn(&KernelSet) -> fn(&[u8], usize, &mut [u8], usize),
        );
        let variants: [Pair; 4] = [
            (scalar::mc_copy, |k: &KernelSet| k.mc_copy),
            (scalar::mc_avg_h, |k: &KernelSet| k.mc_avg_h),
            (scalar::mc_avg_v, |k: &KernelSet| k.mc_avg_v),
            (scalar::mc_avg_hv, |k: &KernelSet| k.mc_avg_hv),
        ];
        for (vi, (reference, pick)) in variants.into_iter().enumerate() {
            let mut expect = vec![0u8; size * size];
            reference(&src, stride, &mut expect, size);
            for set in kernels::available() {
                let mut got = vec![0u8; size * size];
                pick(set)(&src, stride, &mut got, size);
                assert_eq!(
                    &expect, &got,
                    "case {case}: set={} variant={vi} size={size} stride={stride}",
                    set.name
                );
            }
        }
    }
}

#[test]
fn average_matches_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = xorshift_bytes(rng.next(), 256);
        let b = xorshift_bytes(rng.next(), 256);
        for set in kernels::available() {
            for size in [16, 8] {
                let mut expect = a.clone();
                scalar::average(&b, size, &mut expect, size, size);
                let mut got = a.clone();
                (set.average)(&b, size, &mut got, size, size);
                assert_eq!(&expect, &got, "case {case}: set={} size={size}", set.name);
            }
        }
    }
}

/// One member of the strided family: its name, the extra source rows and
/// columns it reads, how to pick it from a set, and what one output sample
/// must be given the source, its stride, the sample's position and the
/// byte the destination held before.
type StridedMode = (
    &'static str,
    usize,
    usize,
    fn(&KernelSet) -> kernels::McKernel,
    fn(&[u8], usize, usize, usize, u8) -> u8,
);

const STRIDED_FAMILY: [StridedMode; 5] = [
    (
        "copy",
        0,
        0,
        |k| k.mc_copy_strided,
        |s, ss, x, y, _| s[y * ss + x],
    ),
    (
        "avg_h",
        0,
        1,
        |k| k.mc_avg_h_strided,
        |s, ss, x, y, _| {
            let (a, b) = (s[y * ss + x] as u16, s[y * ss + x + 1] as u16);
            ((a + b + 1) >> 1) as u8
        },
    ),
    (
        "avg_v",
        1,
        0,
        |k| k.mc_avg_v_strided,
        |s, ss, x, y, _| {
            let (a, b) = (s[y * ss + x] as u16, s[(y + 1) * ss + x] as u16);
            ((a + b + 1) >> 1) as u8
        },
    ),
    (
        "avg_hv",
        1,
        1,
        |k| k.mc_avg_hv_strided,
        |s, ss, x, y, _| {
            let at = |dx: usize, dy: usize| s[(y + dy) * ss + x + dx] as u16;
            ((at(0, 0) + at(1, 0) + at(0, 1) + at(1, 1) + 2) >> 2) as u8
        },
    ),
    (
        "average",
        0,
        0,
        |k| k.average,
        |s, ss, x, y, old| ((old as u16 + s[y * ss + x] as u16 + 1) >> 1) as u8,
    ),
];

/// The kernels the reconstructor writes frames through: every set (scalar
/// included) against a per-sample oracle, at both block sizes, into
/// destinations whose rows are a packed block, one byte apart from packed,
/// a DVD line and an HD line apart. Source and destination slices are the
/// shortest the contract allows — top-left sample to bottom-right one —
/// and sit inside a larger buffer of noise, so a kernel that touches one
/// byte outside its `size × size` window, between the rows or past either
/// end, is caught.
#[test]
fn strided_family_matches_the_oracle_and_stays_inside_its_window() {
    const GUARD: usize = 64;
    for case in 0..CASES / 4 {
        let mut rng = Rng::new(case ^ 0x0057_A1DE);
        for (name, extra_rows, extra_cols, pick, oracle) in STRIDED_FAMILY {
            for size in [8usize, 16] {
                for dst_stride in [size, size + 1, 720, 1920] {
                    let src_stride = size + extra_cols + rng.below(4) as usize;
                    let src_len = (size - 1 + extra_rows) * src_stride + size + extra_cols;
                    let src = xorshift_bytes(rng.next(), src_len);
                    let span = (size - 1) * dst_stride + size;
                    let before = xorshift_bytes(rng.next(), GUARD + span + GUARD);
                    for set in kernels::available() {
                        let mut buf = before.clone();
                        let dst = &mut buf[GUARD..GUARD + span];
                        pick(set)(&src, src_stride, dst, dst_stride, size);
                        for (i, (&got, &old)) in buf.iter().zip(&before).enumerate() {
                            let at = i.wrapping_sub(GUARD);
                            let (x, y) = (at % dst_stride, at / dst_stride);
                            let inside = i >= GUARD && at < span && x < size;
                            let want = if inside {
                                oracle(&src, src_stride, x, y, old)
                            } else {
                                old
                            };
                            assert_eq!(
                                got, want,
                                "case {case}: set={} {name} size={size} src_stride={src_stride} \
                                 dst_stride={dst_stride}: byte {at} of dst (inside window: {inside})",
                                set.name
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The packed members are the strided ones at `dst_stride == size`.
#[test]
fn packed_members_are_the_strided_ones_at_block_stride() {
    for case in 0..CASES / 4 {
        let mut rng = Rng::new(case);
        for size in [8usize, 16] {
            let stride = size + 1 + rng.below(5) as usize;
            let src = xorshift_bytes(rng.next(), (size + 1) * stride);
            for set in kernels::available() {
                for (packed, strided) in [
                    (set.mc_copy, set.mc_copy_strided),
                    (set.mc_avg_h, set.mc_avg_h_strided),
                    (set.mc_avg_v, set.mc_avg_v_strided),
                    (set.mc_avg_hv, set.mc_avg_hv_strided),
                ] {
                    let mut a = vec![0u8; size * size];
                    let mut b = vec![0u8; size * size];
                    packed(&src, stride, &mut a, size);
                    strided(&src, stride, &mut b, size, size);
                    assert_eq!(a, b, "case {case}: set={} size={size}", set.name);
                }
            }
        }
    }
}

#[test]
fn recon_kernels_match_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Residuals include an arbitrary i32 to prove the pack/saturate
        // chain coincides with the scalar clamp even far out of range.
        let dst = xorshift_bytes(rng.next(), 256);
        let mut residual = [0i32; 64];
        for v in &mut residual {
            *v = rng.range(-2000, 2001);
        }
        residual[rng.below(64) as usize] = rng.next() as i32;
        let stride = if rng.next() & 1 == 1 { 16 } else { 8 };
        for set in kernels::available() {
            let mut expect = dst.clone();
            scalar::add_residual(&mut expect, stride, &residual);
            let mut got = dst.clone();
            (set.add_residual)(&mut got, stride, &residual);
            assert_eq!(&expect, &got, "case {case}: set={} add_residual", set.name);

            let mut expect = dst.clone();
            scalar::set_block(&mut expect, stride, &residual);
            let mut got = dst.clone();
            (set.set_block)(&mut got, stride, &residual);
            assert_eq!(&expect, &got, "case {case}: set={} set_block", set.name);
        }
    }
}

/// Wrapper that refuses to lend regions, forcing `predict` down the
/// copying `fetch` path — used to prove borrow and copy paths identical.
struct NoBorrow<'a>(FrameRefs<'a>);

impl ReferenceFetcher for NoBorrow<'_> {
    fn fetch(
        &self,
        which: RefPick,
        plane: PlanePick,
        x0: i32,
        y0: i32,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        self.0.fetch(which, plane, x0, y0, w, h, out)
    }
}

fn noise_frame(seed: u64, w: usize, h: usize) -> Frame {
    let mut f = Frame::black(w, h);
    let y = xorshift_bytes(seed, w * h);
    for (i, v) in y.iter().enumerate() {
        f.y.set(i % w, i / w, *v);
    }
    let c = xorshift_bytes(seed ^ 0xABCD, (w / 2) * (h / 2));
    for (i, v) in c.iter().enumerate() {
        f.cb.set(i % (w / 2), i / (w / 2), *v);
        f.cr.set(i % (w / 2), i / (w / 2), v.wrapping_add(17));
    }
    f
}

/// End-to-end `predict` through the dispatcher: every kernel set, the
/// region-borrow vs fetch-copy paths, and edge-clamped (out-of-bounds)
/// vectors must all agree with the scalar baseline.
#[test]
fn predict_is_bit_exact_across_sets_and_paths() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let frame = noise_frame(7, 64, 48);
    let refs = FrameRefs {
        fwd: &frame,
        bwd: &frame,
    };
    let forced = NoBorrow(FrameRefs {
        fwd: &frame,
        bwd: &frame,
    });
    // Half-pel phases × interior/edge positions, including vectors that
    // reach outside the picture (clamped fetch, no region borrow).
    let cases: &[(usize, usize, i16, i16)] = &[
        (16, 16, 0, 0),
        (16, 16, 1, 0),
        (16, 16, 0, 1),
        (16, 16, 1, 1),
        (16, 16, -7, 5),
        (0, 0, -3, -3),
        (48, 32, 31, 31),
        (48, 32, 40, 2),
        (0, 32, -1, 33),
    ];
    for &(px, py, mvx, mvy) in cases {
        let mv = MotionVector::new(mvx, mvy);
        kernels::set_active(&kernels::SCALAR);
        let mut expect = [0u8; 256];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            px,
            py,
            16,
            mv,
            &mut expect,
        );
        let mut expect_c = [0u8; 64];
        predict(
            &refs,
            RefPick::Backward,
            PlanePick::Cb,
            px / 2,
            py / 2,
            8,
            mv,
            &mut expect_c,
        );
        fn check_case(
            fetcher: &impl ReferenceFetcher,
            label: &str,
            set_name: &str,
            (px, py): (usize, usize),
            mv: MotionVector,
            expect: &[u8; 256],
            expect_c: &[u8; 64],
        ) {
            let mut got = [0u8; 256];
            predict(
                fetcher,
                RefPick::Forward,
                PlanePick::Y,
                px,
                py,
                16,
                mv,
                &mut got,
            );
            assert_eq!(
                expect, &got,
                "luma set={set_name} path={label} mb=({px},{py}) mv={mv:?}"
            );
            let mut got_c = [0u8; 64];
            predict(
                fetcher,
                RefPick::Backward,
                PlanePick::Cb,
                px / 2,
                py / 2,
                8,
                mv,
                &mut got_c,
            );
            assert_eq!(
                expect_c, &got_c,
                "chroma set={set_name} path={label} mb=({px},{py}) mv={mv:?}"
            );
        }
        for set in kernels::available() {
            kernels::set_active(set);
            check_case(&refs, "borrow", set.name, (px, py), mv, &expect, &expect_c);
            check_case(&forced, "copy", set.name, (px, py), mv, &expect, &expect_c);
        }
    }
    // Leave the process-wide choice back at the auto-detected best.
    if let Some(best) = kernels::available().last() {
        kernels::set_active(best);
    }
}

// ---------------------------------------------------------------------------
// Tiled-layout differential properties: the macroblock-tiled `Plane` must be
// an invisible address transform — every read and write agrees byte for byte
// with the naive `RowMajorPlane` oracle. Seeded like the kernel properties;
// Miri runs a reduced case count (SIMD is compiled out there, so the scalar
// path is what gets borrow-checked).
// ---------------------------------------------------------------------------

/// Case count for the tiled-vs-oracle sweeps. Layout bugs are positional,
/// not statistical: a handful of seeds covers every tile phase under Miri's
/// ~1000× interpretation slowdown.
#[cfg(miri)]
const TILED_CASES: u64 = 8;
#[cfg(not(miri))]
const TILED_CASES: u64 = CASES;

/// Independent row-major reference implementation, kept deliberately naive
/// (no shared code with [`Plane`]) as the ground-truth oracle for the
/// tiled-layout differential properties below.
struct RowMajorPlane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RowMajorPlane {
    fn new(width: usize, height: usize) -> Self {
        RowMajorPlane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Writes a packed `w × h` buffer at (`x`, `y`).
    fn insert(&mut self, x: usize, y: usize, w: usize, h: usize, pixels: &[u8]) {
        assert!(x + w <= self.width && y + h <= self.height);
        assert_eq!(pixels.len(), w * h);
        for row in 0..h {
            for col in 0..w {
                self.data[(y + row) * self.width + x + col] = pixels[row * w + col];
            }
        }
    }

    /// Clamped gather, pixel by pixel — the semantics
    /// [`Plane::fetch_clamped`] must reproduce.
    fn fetch_clamped(&self, x0: i32, y0: i32, w: usize, h: usize, out: &mut [u8]) {
        let cx = x0.clamp(0, (self.width - w) as i32) as usize;
        let cy = y0.clamp(0, (self.height - h) as i32) as usize;
        for row in 0..h {
            for col in 0..w {
                out[row * w + col] = self.data[(cy + row) * self.width + cx + col];
            }
        }
    }
}

/// Builds a tiled plane and the row-major oracle with identical noise.
fn paired_planes(seed: u64, w: usize, h: usize, shift: u8) -> (Plane, RowMajorPlane) {
    let mut tiled = Plane::new_tiled(w, h, shift);
    let mut oracle = RowMajorPlane::new(w, h);
    for (i, v) in xorshift_bytes(seed, w * h).iter().enumerate() {
        tiled.set(i % w, i / w, *v);
        oracle.set(i % w, i / w, *v);
    }
    (tiled, oracle)
}

#[test]
fn tiled_fetch_clamped_matches_oracle_at_random_rects() {
    // Random footprints up to the 17×17 half-pel worst case, at origins
    // ranging from far outside the top-left corner to past the
    // bottom-right — every case a tiled gather (possibly straddling up to
    // four storage tiles) against the oracle's pixel loop. 40×24 luma
    // tiles give ragged right/bottom edge tiles; the chroma shift and a
    // row-major control plane run the same cases.
    for case in 0..TILED_CASES {
        let mut rng = Rng::new(case ^ 0x7117);
        let (w, h) = (40usize, 24usize);
        let (tiled_l, oracle) = paired_planes(case, w, h, LUMA_TILE_SHIFT);
        let (tiled_c, _) = paired_planes(case, w, h, CHROMA_TILE_SHIFT);
        let mut row_major = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                row_major.set(x, y, oracle.get(x, y));
            }
        }
        for _ in 0..16 {
            let fw = 1 + rng.below(17) as usize;
            let fh = 1 + rng.below(17) as usize;
            let x0 = rng.range(-24, (w + 8) as i32);
            let y0 = rng.range(-24, (h + 8) as i32);
            let mut expect = vec![0u8; fw * fh];
            oracle.fetch_clamped(x0, y0, fw, fh, &mut expect);
            for (label, plane) in [
                ("luma-tiled", &tiled_l),
                ("chroma-tiled", &tiled_c),
                ("row-major", &row_major),
            ] {
                let mut got = vec![0u8; fw * fh];
                plane.fetch_clamped(x0, y0, fw, fh, &mut got);
                assert_eq!(
                    expect, got,
                    "case {case}: {label} fetch ({x0},{y0}) {fw}x{fh}"
                );
            }
        }
    }
}

#[test]
fn tiled_insert_and_extract_match_oracle() {
    // Random packed-block writes — macroblock-aligned and arbitrary, whole
    // tiles and straddlers — through `Plane::insert` against the oracle,
    // then the full plane compared pixel by pixel and random rects read
    // back through `extract_into`.
    for case in 0..TILED_CASES {
        let mut rng = Rng::new(case ^ 0x115E);
        let (w, h) = (48usize, 32usize);
        let (mut tiled, mut oracle) = paired_planes(case, w, h, LUMA_TILE_SHIFT);
        for op in 0..12 {
            let bw = 1 + rng.below(16) as usize;
            let bh = 1 + rng.below(16) as usize;
            let (x, y) = if op % 3 == 0 {
                // Aligned 16×16-capable corner: the whole-tile memcpy path.
                (
                    16 * rng.below((w / 16) as u64) as usize,
                    16 * rng.below((h / 16) as u64) as usize,
                )
            } else {
                (
                    rng.below((w - bw + 1) as u64) as usize,
                    rng.below((h - bh + 1) as u64) as usize,
                )
            };
            let block = xorshift_bytes(rng.next(), bw * bh);
            tiled.insert(x, y, bw, bh, &block);
            oracle.insert(x, y, bw, bh, &block);
        }
        for y in 0..h {
            for x in 0..w {
                assert_eq!(
                    tiled.get(x, y),
                    oracle.get(x, y),
                    "case {case}: pixel ({x},{y}) after inserts"
                );
            }
        }
        for _ in 0..8 {
            let rw = 1 + rng.below(17) as usize;
            let rh = 1 + rng.below(17) as usize;
            let x = rng.below((w - rw + 1) as u64) as usize;
            let y = rng.below((h - rh + 1) as u64) as usize;
            let mut got = vec![0u8; rw * rh];
            tiled.extract_into(x, y, rw, rh, &mut got);
            for row in 0..rh {
                for col in 0..rw {
                    assert_eq!(
                        got[row * rw + col],
                        oracle.get(x + col, y + row),
                        "case {case}: extract ({x},{y}) {rw}x{rh} at ({col},{row})"
                    );
                }
            }
        }
    }
}

/// Scalar reference prediction computed straight off the oracle: clamped
/// gather then the scalar half-pel filter — no `Plane`, no dispatch.
fn oracle_predict(
    plane: &RowMajorPlane,
    dst_x: usize,
    dst_y: usize,
    size: usize,
    mv: MotionVector,
    out: &mut [u8],
) {
    let half_x = (mv.x & 1) as usize;
    let half_y = (mv.y & 1) as usize;
    let src_x = dst_x as i32 + (mv.x >> 1) as i32;
    let src_y = dst_y as i32 + (mv.y >> 1) as i32;
    let fw = size + half_x;
    let fh = size + half_y;
    let mut tmp = [0u8; 17 * 17];
    let tmp = &mut tmp[..fw * fh];
    plane.fetch_clamped(src_x, src_y, fw, fh, tmp);
    let apply = match (half_x, half_y) {
        (0, 0) => scalar::mc_copy,
        (1, 0) => scalar::mc_avg_h,
        (0, 1) => scalar::mc_avg_v,
        _ => scalar::mc_avg_hv,
    };
    apply(tmp, fw, out, size);
}

#[test]
fn tiled_predict_matches_row_major_oracle() {
    // The satellite property: prediction out of a macroblock-tiled frame —
    // in-tile zero-copy borrows, cross-tile straddle gathers, and
    // picture-edge clamps alike — is bit-exact with the `RowMajorPlane`
    // oracle for every kernel set, every half-pel phase, and random
    // motion vectors. (This decoder implements §7.6 frame motion only, so
    // full-pel and the three half-pel phases are the complete mode set.)
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (w, h) = (64usize, 48usize);
    let mut frame = Frame::zeroed_tiled(w, h);
    let mut oracle_y = RowMajorPlane::new(w, h);
    let mut oracle_cb = RowMajorPlane::new(w / 2, h / 2);
    let mut oracle_cr = RowMajorPlane::new(w / 2, h / 2);
    for (i, v) in xorshift_bytes(0x517E, w * h).iter().enumerate() {
        frame.y.set(i % w, i / w, *v);
        oracle_y.set(i % w, i / w, *v);
    }
    for (i, v) in xorshift_bytes(0xC4B, (w / 2) * (h / 2)).iter().enumerate() {
        frame.cb.set(i % (w / 2), i / (w / 2), *v);
        oracle_cb.set(i % (w / 2), i / (w / 2), *v);
        frame.cr.set(i % (w / 2), i / (w / 2), v.wrapping_add(29));
        oracle_cr.set(i % (w / 2), i / (w / 2), v.wrapping_add(29));
    }
    let refs = FrameRefs {
        fwd: &frame,
        bwd: &frame,
    };
    for case in 0..TILED_CASES {
        let mut rng = Rng::new(case ^ 0xDE1F);
        // Macroblock-aligned and unaligned destinations; vectors span
        // tile-interior, tile-straddling and far-out-of-picture sources,
        // with every half-pel phase (mv parity is uniform).
        let (dst_x, dst_y) = if case % 2 == 0 {
            (
                16 * rng.below((w / 16) as u64) as usize,
                16 * rng.below((h / 16) as u64) as usize,
            )
        } else {
            (
                rng.below((w - 16) as u64) as usize,
                rng.below((h - 16) as u64) as usize,
            )
        };
        let mv = MotionVector::new(rng.range(-80, 81) as i16, rng.range(-80, 81) as i16);
        let mut expect_y = [0u8; 256];
        oracle_predict(&oracle_y, dst_x, dst_y, 16, mv, &mut expect_y);
        let mut expect_cb = [0u8; 64];
        oracle_predict(&oracle_cb, dst_x / 2, dst_y / 2, 8, mv, &mut expect_cb);
        let mut expect_cr = [0u8; 64];
        oracle_predict(&oracle_cr, dst_x / 2, dst_y / 2, 8, mv, &mut expect_cr);
        for set in kernels::available() {
            kernels::set_active(set);
            let mut got = [0u8; 256];
            predict(
                &refs,
                RefPick::Forward,
                PlanePick::Y,
                dst_x,
                dst_y,
                16,
                mv,
                &mut got,
            );
            assert_eq!(
                expect_y, got,
                "case {case}: luma set={} mb=({dst_x},{dst_y}) mv={mv:?}",
                set.name
            );
            let mut got_c = [0u8; 64];
            predict(
                &refs,
                RefPick::Backward,
                PlanePick::Cb,
                dst_x / 2,
                dst_y / 2,
                8,
                mv,
                &mut got_c,
            );
            assert_eq!(
                expect_cb, got_c,
                "case {case}: cb set={} mv={mv:?}",
                set.name
            );
            predict(
                &refs,
                RefPick::Forward,
                PlanePick::Cr,
                dst_x / 2,
                dst_y / 2,
                8,
                mv,
                &mut got_c,
            );
            assert_eq!(
                expect_cr, got_c,
                "case {case}: cr set={} mv={mv:?}",
                set.name
            );
        }
    }
    if let Some(best) = kernels::available().last() {
        kernels::set_active(best);
    }
}

#[test]
fn tiled_recon_write_path_matches_oracle() {
    // The reconstruction write path: saturating `add_residual` /
    // `set_block` results land in a tiled plane through `insert` exactly
    // as they land in the oracle — covering the whole-tile aligned
    // macroblock store and ragged edge tiles.
    for case in 0..TILED_CASES {
        let mut rng = Rng::new(case ^ 0x2EC0);
        let (w, h) = (40usize, 24usize);
        let (mut tiled, mut oracle) = paired_planes(case, w, h, LUMA_TILE_SHIFT);
        for _ in 0..8 {
            let x = 8 * rng.below((w / 8) as u64) as usize;
            let y = 8 * rng.below((h / 8) as u64) as usize;
            let mut block = [0u8; 64];
            tiled.extract_into(x, y, 8, 8, &mut block);
            let mut residual = [0i32; 64];
            for v in &mut residual {
                *v = rng.range(-512, 513);
            }
            scalar::add_residual(&mut block, 8, &residual);
            tiled.insert(x, y, 8, 8, &block);
            oracle.insert(x, y, 8, 8, &block);
        }
        for y in 0..h {
            for x in 0..w {
                assert_eq!(
                    tiled.get(x, y),
                    oracle.get(x, y),
                    "case {case}: recon pixel ({x},{y})"
                );
            }
        }
    }
}
