//! Shared test support: the dense whole-block dequantiser the decoder
//! used before coefficients were dequantised inside the VLD — kept, word
//! for word, as the oracle the fused path is proven against — and a sink
//! that collects raw quantised levels.
#![allow(dead_code)] // each test binary uses its own subset
#![allow(clippy::needless_range_loop)]

use tiledec_mpeg2::block::CoeffSink;
use tiledec_mpeg2::quant::{intra_dc_mult, Dequant};

/// Inverse-quantises an intra block. `levels` holds quantised values in
/// raster order (DC at index 0 already includes the predictor). Applies
/// saturation and mismatch control (§7.4.3, §7.4.4).
pub fn dequant_intra(
    levels: &[i32; 64],
    matrix: &[u8; 64],
    scale: u16,
    dc_precision: u8,
) -> [i32; 64] {
    let mut out = [0i32; 64];
    out[0] = (levels[0] * intra_dc_mult(dc_precision)).clamp(-2048, 2047);
    let mut sum = out[0];
    for i in 1..64 {
        let f = (2 * levels[i]) * matrix[i] as i32 * scale as i32 / 32;
        let f = f.clamp(-2048, 2047);
        out[i] = f;
        sum += f;
    }
    mismatch_control(&mut out, sum);
    out
}

/// Inverse-quantises a non-intra block.
pub fn dequant_non_intra(levels: &[i32; 64], matrix: &[u8; 64], scale: u16) -> [i32; 64] {
    let mut out = [0i32; 64];
    let mut sum = 0i32;
    for i in 0..64 {
        let q = levels[i];
        if q == 0 {
            continue;
        }
        let k = if q > 0 { 1 } else { -1 };
        let f = (2 * q + k) * matrix[i] as i32 * scale as i32 / 32;
        let f = f.clamp(-2048, 2047);
        out[i] = f;
        sum += f;
    }
    mismatch_control(&mut out, sum);
    out
}

/// §7.4.4: if the coefficient sum is even, toggle the LSB of F\[7\]\[7\].
fn mismatch_control(out: &mut [i32; 64], sum: i32) {
    if sum % 2 == 0 {
        if out[63] % 2 == 0 {
            out[63] += 1;
        } else {
            out[63] -= 1;
        }
    }
}

/// [`CoeffSink`] keeping one block's raw quantised levels (what the VLC
/// decoded, before any dequantisation).
pub struct Levels(pub [i32; 64]);

impl CoeffSink for Levels {
    fn begin_block(&mut self, _i: usize) {
        self.0 = [0; 64];
    }
    fn coeff(&mut self, _q: &Dequant<'_>, idx: usize, level: i32) {
        self.0[idx] = level;
    }
}
