//! 8×8 forward and inverse DCT.
//!
//! The inverse transform is a 32-bit fixed-point separable IDCT in the style
//! of the MPEG Software Simulation Group reference decoder. **Every decoder
//! in the workspace uses this same integer IDCT**, which is what makes
//! tile-parallel output bit-exact with the sequential reference decoder.
//! The encoder also reconstructs its reference frames through it, so there
//! is no encoder/decoder drift.
//!
//! A double-precision reference IDCT and a forward DCT live here too; the
//! test suite checks the integer IDCT against the reference within
//! IEEE-1180-style tolerances.

const W1: i64 = 2841; // 2048*sqrt(2)*cos(1*pi/16)
const W2: i64 = 2676; // 2048*sqrt(2)*cos(2*pi/16)
const W3: i64 = 2408; // 2048*sqrt(2)*cos(3*pi/16)
const W5: i64 = 1609; // 2048*sqrt(2)*cos(5*pi/16)
const W6: i64 = 1108; // 2048*sqrt(2)*cos(6*pi/16)
const W7: i64 = 565; //  2048*sqrt(2)*cos(7*pi/16)

/// Inverse DCT of a dequantised block, chosen by what the entropy decoder
/// produced: every raster index of `block` outside `mask` is zero and
/// every coefficient lies in the dequantiser's `[-2048, 2047]`. Writes
/// the spatial block to `out` and leaves `block` all zero.
///
/// Bit-exact with [`idct_scalar`] by that definition's own zero-AC rule:
///
/// * **Row 0 only** (DC-only included): rows 1–7 stay zero through the row
///   pass, so every column takes the zero-AC shortcut — the block is row
///   0's transform, rounded once, repeated down all rows.
/// * **Row 0 plus a mismatch-control `±1` at `[63]`**: row 7 is one of two
///   fixed vectors and every column sees `(t0, 0, …, 0, t7)`. The column
///   butterfly only ever *adds* its DC term to sums of AC terms, so each
///   output is `((t0 << 8) + S[r][c]) >> 14` with `S` a constant table per
///   sign of the toggle (`MISMATCH_SUMS`).
/// * Anything else: the active kernel set's full transform, through its
///   range-guaranteed entry.
pub fn idct_masked(block: &mut [i32; 64], mask: u64, out: &mut [i32; 64]) {
    const ROW0: u64 = 0xFF;
    const LAST: u64 = 1 << 63;
    let below_row0 = mask & !ROW0;
    if below_row0 == 0 || (below_row0 == LAST && block[63].abs() == 1) {
        let mut row0 = [0i32; 8];
        row0.copy_from_slice(&block[..8]);
        let row0 = idct_row(row0);
        if below_row0 == 0 {
            let flat = row0.map(|t| ((t + 32) >> 6).clamp(-256, 255));
            for row in out.chunks_exact_mut(8) {
                row.copy_from_slice(&flat);
            }
        } else {
            let sums = &MISMATCH_SUMS[(block[63] < 0) as usize];
            for (i, (o, s)) in out.iter_mut().zip(sums).enumerate() {
                *o = (((row0[i % 8] << 8) + s) >> 14).clamp(-256, 255);
            }
            block[63] = 0;
        }
        block[..8].fill(0);
    } else {
        *out = *block;
        block.fill(0);
        (crate::kernels::active().idct_in_range)(out);
    }
}

/// The portable scalar IDCT — the bit-exactness reference every SIMD
/// kernel is property-tested against.
pub fn idct_scalar(block: &mut [i32; 64]) {
    for row in block.chunks_exact_mut(8) {
        let mut r = [0i32; 8];
        r.copy_from_slice(row);
        row.copy_from_slice(&idct_row(r));
    }
    for col in 0..8 {
        idct_col(block, col);
    }
}

const fn idct_row(blk: [i32; 8]) -> [i32; 8] {
    let mut x1 = (blk[4] as i64) << 11;
    let mut x2 = blk[6] as i64;
    let mut x3 = blk[2] as i64;
    let mut x4 = blk[1] as i64;
    let mut x5 = blk[7] as i64;
    let mut x6 = blk[5] as i64;
    let mut x7 = blk[3] as i64;

    if x1 | x2 | x3 | x4 | x5 | x6 | x7 == 0 {
        return [blk[0] << 3; 8];
    }

    let mut x0 = ((blk[0] as i64) << 11) + 128;

    // first stage
    let mut x8 = W7 * (x4 + x5);
    x4 = x8 + (W1 - W7) * x4;
    x5 = x8 - (W1 + W7) * x5;
    x8 = W3 * (x6 + x7);
    x6 = x8 - (W3 - W5) * x6;
    x7 = x8 - (W3 + W5) * x7;

    // second stage
    x8 = x0 + x1;
    x0 -= x1;
    x1 = W6 * (x3 + x2);
    x2 = x1 - (W2 + W6) * x2;
    x3 = x1 + (W2 - W6) * x3;
    x1 = x4 + x6;
    x4 -= x6;
    x6 = x5 + x7;
    x5 -= x7;

    // third stage
    x7 = x8 + x3;
    x8 -= x3;
    x3 = x0 + x2;
    x0 -= x2;
    x2 = (181 * (x4 + x5) + 128) >> 8;
    x4 = (181 * (x4 - x5) + 128) >> 8;

    // fourth stage
    [
        ((x7 + x1) >> 8) as i32,
        ((x3 + x2) >> 8) as i32,
        ((x0 + x4) >> 8) as i32,
        ((x8 + x6) >> 8) as i32,
        ((x8 - x6) >> 8) as i32,
        ((x0 - x4) >> 8) as i32,
        ((x3 - x2) >> 8) as i32,
        ((x7 - x1) >> 8) as i32,
    ]
}

#[inline]
fn clamp256(v: i64) -> i32 {
    v.clamp(-256, 255) as i32
}

/// The column butterfly up to, but not including, the final `>> 14`:
/// output row `r` of the column is `clamp256(col_sums(b)[r] >> 14)`.
const fn col_sums(b: [i64; 8]) -> [i64; 8] {
    let mut x0 = (b[0] << 8) + 8192;
    let mut x1 = b[4] << 8;
    let mut x2 = b[6];
    let mut x3 = b[2];
    let mut x4 = b[1];
    let mut x5 = b[7];
    let mut x6 = b[5];
    let mut x7 = b[3];

    // first stage
    let mut x8 = W7 * (x4 + x5) + 4;
    x4 = (x8 + (W1 - W7) * x4) >> 3;
    x5 = (x8 - (W1 + W7) * x5) >> 3;
    x8 = W3 * (x6 + x7) + 4;
    x6 = (x8 - (W3 - W5) * x6) >> 3;
    x7 = (x8 - (W3 + W5) * x7) >> 3;

    // second stage
    x8 = x0 + x1;
    x0 -= x1;
    x1 = W6 * (x3 + x2) + 4;
    x2 = (x1 - (W2 + W6) * x2) >> 3;
    x3 = (x1 + (W2 - W6) * x3) >> 3;
    x1 = x4 + x6;
    x4 -= x6;
    x6 = x5 + x7;
    x5 -= x7;

    // third stage
    x7 = x8 + x3;
    x8 -= x3;
    x3 = x0 + x2;
    x0 -= x2;
    x2 = (181 * (x4 + x5) + 128) >> 8;
    x4 = (181 * (x4 - x5) + 128) >> 8;

    // fourth stage
    [
        x7 + x1,
        x3 + x2,
        x0 + x4,
        x8 + x6,
        x8 - x6,
        x0 - x4,
        x3 - x2,
        x7 - x1,
    ]
}

fn idct_col(block: &mut [i32; 64], col: usize) {
    let b: [i64; 8] = std::array::from_fn(|i| block[i * 8 + col] as i64);
    if b[1] | b[2] | b[3] | b[4] | b[5] | b[6] | b[7] == 0 {
        let v = clamp256((b[0] + 32) >> 6);
        for i in 0..8 {
            block[i * 8 + col] = v;
        }
        return;
    }
    for (i, s) in col_sums(b).into_iter().enumerate() {
        block[i * 8 + col] = clamp256(s >> 14);
    }
}

/// Pre-shift column sums of a block whose only coefficient is `[63] = +1`
/// (index 0) or `-1` (index 1), raster order: what mismatch control adds
/// under a block that is otherwise confined to row 0. See [`idct_masked`].
const MISMATCH_SUMS: [[i32; 64]; 2] = [mismatch_sums(1), mismatch_sums(-1)];

const fn mismatch_sums(toggle: i32) -> [i32; 64] {
    let row7 = idct_row([0, 0, 0, 0, 0, 0, 0, toggle]);
    let mut out = [0i32; 64];
    let mut c = 0;
    while c < 8 {
        let sums = col_sums([0, 0, 0, 0, 0, 0, 0, row7[c] as i64]);
        let mut r = 0;
        while r < 8 {
            out[r * 8 + c] = sums[r] as i32;
            r += 1;
        }
        c += 1;
    }
    out
}

/// Double-precision reference inverse DCT (raster order input and output,
/// no clamping).
pub fn idct_reference(coeffs: &[i32; 64]) -> [f64; 64] {
    let mut out = [0.0f64; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0f64;
            for v in 0..8 {
                for u in 0..8 {
                    let cu = if u == 0 {
                        std::f64::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    let cv = if v == 0 {
                        std::f64::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    acc += cu
                        * cv
                        * coeffs[v * 8 + u] as f64
                        * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[y * 8 + x] = acc / 4.0;
        }
    }
    out
}

/// Double-precision forward DCT of spatial samples in raster order,
/// rounded to the nearest integer coefficient.
pub fn fdct(samples: &[i32; 64]) -> [i32; 64] {
    let mut out = [0i32; 64];
    // Separable: rows then columns, with the C(u)/2 normalisation applied
    // per pass (each pass contributes C/2 so the product matches the 2-D
    // definition with C(u)C(v)/4).
    let mut tmp = [0.0f64; 64];
    for y in 0..8 {
        for u in 0..8 {
            let cu = if u == 0 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            let mut acc = 0.0;
            for x in 0..8 {
                acc += samples[y * 8 + x] as f64
                    * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos();
            }
            tmp[y * 8 + u] = acc * cu / 2.0;
        }
    }
    for u in 0..8 {
        for v in 0..8 {
            let cv = if v == 0 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            let mut acc = 0.0;
            for y in 0..8 {
                acc += tmp[y * 8 + u]
                    * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
            }
            out[v * 8 + u] = (acc * cv / 2.0).round() as i32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transform as the active kernel set runs it.
    fn idct(block: &mut [i32; 64]) {
        (crate::kernels::active().idct)(block)
    }

    fn random_block(seed: u64, range: i32) -> [i32; 64] {
        // xorshift so the test needs no external RNG.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut b = [0i32; 64];
        for v in &mut b {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s % (2 * range as u64 + 1)) as i32 - range;
        }
        b
    }

    #[test]
    fn dc_only_block_is_flat() {
        let mut b = [0i32; 64];
        b[0] = 64; // DC of 64 -> spatial value 64/8 = 8 everywhere
        idct(&mut b);
        assert!(b.iter().all(|&v| v == 8), "{b:?}");
    }

    #[test]
    fn zero_block_stays_zero() {
        let mut b = [0i32; 64];
        idct(&mut b);
        assert_eq!(b, [0i32; 64]);
    }

    #[test]
    fn integer_idct_tracks_reference() {
        // IEEE-1180-style check: peak error <= 1, mean error small.
        let mut peak = 0i32;
        let mut total_err = 0i64;
        let mut count = 0i64;
        for seed in 1..200u64 {
            let coeffs = random_block(seed, 300);
            let reference = idct_reference(&coeffs);
            let mut fast = coeffs;
            idct(&mut fast);
            for i in 0..64 {
                let r = reference[i].round().clamp(-256.0, 255.0) as i32;
                let e = (fast[i] - r).abs();
                peak = peak.max(e);
                total_err += e as i64;
                count += 1;
            }
        }
        assert!(peak <= 2, "peak IDCT error {peak}");
        let mean = total_err as f64 / count as f64;
        assert!(mean < 0.05, "mean IDCT error {mean}");
    }

    #[test]
    fn fdct_then_idct_recovers_samples() {
        for seed in 1..50u64 {
            let samples = random_block(seed, 200);
            let coeffs = fdct(&samples);
            let mut rec = coeffs;
            idct(&mut rec);
            for i in 0..64 {
                assert!(
                    (rec[i] - samples[i]).abs() <= 2,
                    "seed {seed} idx {i}: {} vs {}",
                    rec[i],
                    samples[i]
                );
            }
        }
    }

    #[test]
    fn fdct_of_flat_block_is_dc_only() {
        let samples = [32i32; 64];
        let coeffs = fdct(&samples);
        assert_eq!(coeffs[0], 32 * 8);
        assert!(coeffs[1..].iter().all(|&c| c == 0), "{coeffs:?}");
    }

    #[test]
    fn idct_output_is_clamped() {
        let mut b = [0i32; 64];
        b[0] = 30000; // way past the clamp
        idct(&mut b);
        assert!(b.iter().all(|&v| v == 255));
        let mut b = [0i32; 64];
        b[0] = -30000;
        idct(&mut b);
        assert!(b.iter().all(|&v| v == -256));
    }
}
