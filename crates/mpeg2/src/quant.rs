//! Inverse quantisation (§7.4) and the encoder's forward quantisation.
//!
//! Decoding dequantises one coefficient at a time, inside the entropy
//! decoder's block loop ([`Dequant`]); the dense whole-block formulation
//! survives only as the oracle in `tests/common`.

use crate::slice::SliceContext;
use crate::tables::quant::quantiser_scale;

/// Intra-DC multiplier for an `intra_dc_precision` of 0–3 (8–11 bits).
pub fn intra_dc_mult(precision: u8) -> i32 {
    match precision {
        0 => 8,
        1 => 4,
        2 => 2,
        3 => 1,
        _ => panic!("intra_dc_precision out of range"),
    }
}

/// Inverse-quantisation parameters of one macroblock (§7.4): everything
/// needed to turn a quantised level into a saturated coefficient the
/// moment it leaves the VLC. Coefficient sinks ([`crate::block::CoeffSink`])
/// receive it with every level; the running mismatch sum (§7.4.4) is the
/// sink's job because it spans a whole block.
#[derive(Debug, Clone, Copy)]
pub struct Dequant<'a> {
    /// True for intra macroblocks (DC multiplier, no sign bias on AC).
    pub intra: bool,
    matrix: &'a [u8; 64],
    scale: i32,
    dc_mult: i32,
}

/// The "matrix" under which the AC formula computes an intra DC: with
/// weight 16 and the DC multiplier as the scale, `2·level·16·mult / 32` is
/// `level·mult` exactly.
static DC_WEIGHTS: [u8; 64] = [16; 64];

impl<'a> Dequant<'a> {
    /// Parameters for a macroblock of `ctx`'s picture coded with
    /// `qscale_code`.
    pub fn new(ctx: &SliceContext<'a>, intra: bool, qscale_code: u8) -> Self {
        Dequant {
            intra,
            matrix: if intra {
                &ctx.seq.intra_quant_matrix
            } else {
                &ctx.seq.non_intra_quant_matrix
            },
            scale: quantiser_scale(ctx.pic.q_scale_type, qscale_code) as i32,
            dc_mult: intra_dc_mult(ctx.pic.intra_dc_precision),
        }
    }

    /// The parameters an intra macroblock's DC levels (predictor included,
    /// §7.4.1) dequantise under. The entropy decoder hands a block's DC to
    /// its sink with these, once, before the coefficient loop, so
    /// [`apply`](Self::apply) has no DC case to test for per coefficient.
    #[inline]
    pub fn dc(&self) -> Dequant<'static> {
        Dequant {
            intra: true,
            matrix: &DC_WEIGHTS,
            scale: self.dc_mult,
            dc_mult: self.dc_mult,
        }
    }

    /// Dequantises `level` at raster index `idx` through the matrix
    /// (§7.4.2), non-intra levels with the `±1` bias towards their sign,
    /// and saturates it (§7.4.3). An intra DC level comes with
    /// [`dc`](Self::dc)'s parameters.
    #[inline]
    pub fn apply(&self, idx: usize, level: i32) -> i32 {
        let bias = if self.intra { 0 } else { level.signum() };
        let f = (2 * level + bias) * self.matrix[idx & 63] as i32 * self.scale / 32;
        f.clamp(-2048, 2047)
    }
}

/// Forward-quantises an intra block of DCT coefficients. The DC coefficient
/// is divided by the intra-DC multiplier with rounding; AC coefficients use
/// rounding division by `W·scale/16`.
pub fn quant_intra(
    coeffs: &[i32; 64],
    matrix: &[u8; 64],
    scale: u16,
    dc_precision: u8,
) -> [i32; 64] {
    let mut out = [0i32; 64];
    let dc_m = intra_dc_mult(dc_precision);
    out[0] =
        div_round(coeffs[0], dc_m).clamp(-(1 << (8 + dc_precision)), (1 << (8 + dc_precision)) - 1);
    for i in 1..64 {
        let denom = matrix[i] as i32 * scale as i32;
        // QF = round(16*F / (W*scale)); dequant reconstructs QF*W*scale/16.
        out[i] = div_round(16 * coeffs[i], denom).clamp(-2047, 2047);
    }
    out
}

/// Forward-quantises a non-intra block. Truncating division creates the
/// usual dead zone around zero.
pub fn quant_non_intra(coeffs: &[i32; 64], matrix: &[u8; 64], scale: u16) -> [i32; 64] {
    let mut out = [0i32; 64];
    for i in 0..64 {
        let denom = 2 * matrix[i] as i32 * scale as i32;
        // QF = 32*F / (2*W*scale), truncation toward zero.
        out[i] = (32 * coeffs[i] / denom).clamp(-2047, 2047);
    }
    out
}

/// Rounding integer division (ties away from zero).
fn div_round(n: i32, d: i32) -> i32 {
    debug_assert!(d > 0);
    if n >= 0 {
        (n + d / 2) / d
    } else {
        -((-n + d / 2) / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::quant::{DEFAULT_INTRA_MATRIX, DEFAULT_NON_INTRA_MATRIX};

    #[test]
    fn dc_mult_table() {
        assert_eq!(intra_dc_mult(0), 8);
        assert_eq!(intra_dc_mult(3), 1);
    }

    fn dequant(intra: bool, matrix: &[u8; 64], scale: i32) -> Dequant<'_> {
        Dequant {
            intra,
            matrix,
            scale,
            dc_mult: intra_dc_mult(0),
        }
    }

    #[test]
    fn intra_round_trip_is_lossless_for_reachable_values() {
        // Any value of the form QF*W*scale/16 (exactly divisible) must
        // survive quant -> dequant unchanged.
        let scale = 16u16;
        let mut coeffs = [0i32; 64];
        for i in 1..63 {
            let w = DEFAULT_INTRA_MATRIX[i] as i32;
            coeffs[i] = ((i as i32 % 9) - 4) * w * scale as i32 / 16;
        }
        coeffs[0] = 1024;
        let q = quant_intra(&coeffs, &DEFAULT_INTRA_MATRIX, scale, 0);
        let dq = dequant(true, &DEFAULT_INTRA_MATRIX, scale as i32);
        assert_eq!(dq.dc().apply(0, q[0]), coeffs[0]);
        for i in 1..63 {
            assert_eq!(dq.apply(i, q[i]), coeffs[i], "i={i}");
        }
    }

    #[test]
    fn non_intra_dead_zone() {
        let mut coeffs = [0i32; 64];
        coeffs[5] = 15; // below one quant step at scale 2, matrix 16: step=2*16*2/32=2... 32*15/(2*16*2)=7
        let q = quant_non_intra(&coeffs, &DEFAULT_NON_INTRA_MATRIX, 2);
        assert_eq!(q[5], 7);
        let dq = dequant(false, &DEFAULT_NON_INTRA_MATRIX, 2);
        // (2*7+1)*16*2/32 = 15
        assert_eq!(dq.apply(5, 7), 15);
        assert_eq!(dq.apply(5, -7), -15);
        assert_eq!(dq.apply(5, 0), 0);
    }

    #[test]
    fn saturation_clamps_to_signed_12_bits() {
        let dq = dequant(true, &DEFAULT_INTRA_MATRIX, 62);
        assert_eq!(dq.apply(3, 2047), 2047);
        assert_eq!(dq.apply(3, -2047), -2048);
        assert_eq!(dq.apply(0, 2047), 2047);
        assert_eq!(dq.apply(0, -2047), -2048);
    }

    #[test]
    fn intra_dc_is_the_level_times_its_multiplier() {
        for precision in 0..4u8 {
            let dq = Dequant {
                dc_mult: intra_dc_mult(precision),
                ..dequant(true, &DEFAULT_INTRA_MATRIX, 31)
            };
            for level in [-2047, -300, -1, 0, 1, 77, 255, 256, 2047] {
                let expect = (level * intra_dc_mult(precision)).clamp(-2048, 2047);
                assert_eq!(dq.dc().apply(0, level), expect, "{precision} {level}");
            }
        }
    }

    #[test]
    fn div_round_ties_away_from_zero() {
        assert_eq!(div_round(3, 2), 2);
        assert_eq!(div_round(-3, 2), -2);
        assert_eq!(div_round(5, 4), 1);
        assert_eq!(div_round(7, 4), 2);
    }
}
