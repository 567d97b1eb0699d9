//! Coefficient block parsing and writing (§7.2).
//!
//! The entropy decoder never materialises a dense block of levels: each
//! decoded `(raster index, level)` — the scan is undone on the spot — goes
//! straight to a [`CoeffSink`]. [`MbCoeffs`] dequantises it into a
//! workspace that is all-zero between blocks and remembers which indices
//! it touched, so the IDCT and the re-zeroing only look at what was
//! decoded; [`Discard`] drops it, for walks that only want bit spans and
//! motion. The intra DC level already includes the predictor, so
//! dequantisation is purely local. The encoder still works on dense
//! raster-order levels ([`write_block`], [`MbCoeffs::load_levels`]).

use tiledec_bitstream::{BitReader, BitWriter};

use crate::quant::Dequant;
use crate::tables::dc_size::{self, decode_dc_differential, encode_dc_differential};
use crate::tables::dct_coeff::{self, decode_token, encode_coeff, encode_eob};
use crate::tables::scan;
use crate::{dct, Error, Result};

/// Where [`parse_block`] sends coefficients as they leave the VLC:
/// `begin_block`, one `coeff` per decoded level (distinct raster indices;
/// index 0 of an intra block is the DC level, predictor included), then
/// `end_block` at EOB. A walk that fails mid-block never sends
/// `end_block`. The default methods discard.
pub trait CoeffSink {
    /// Opens block `i` of the macroblock (0–3 luma, 4 Cb, 5 Cr).
    fn begin_block(&mut self, _i: usize) {}
    /// Quantised `level` at raster index `idx`, to be dequantised by `q`.
    fn coeff(&mut self, _q: &Dequant<'_>, _idx: usize, _level: i32) {}
    /// End of block.
    fn end_block(&mut self) {}
}

/// The parse-only sink: the bits are consumed, the coefficients dropped.
#[derive(Debug, Default, Clone, Copy)]
pub struct Discard;

impl CoeffSink for Discard {}

/// The reconstructing sink: one macroblock's dequantised coefficient
/// blocks plus, per block, a mask of the raster indices written.
///
/// A block whose mask is zero is all zero; inside a block every index
/// outside the mask is zero; every value lies in `[-2048, 2047]`. Each
/// coefficient is saturated before it enters the running mismatch sum and
/// the §7.4.4 toggle of `[63]` happens at `end_block`, as the dense
/// formulation orders them. Consumers hand a block back zeroed
/// ([`idct_into`](Self::idct_into), [`drain_block`](Self::drain_block));
/// one abandoned by a failed parse is wiped by its next `begin_block`.
#[derive(Debug, Clone)]
pub struct MbCoeffs {
    blocks: [[i32; 64]; 6],
    masks: [u64; 6],
    cur: usize,
    sum: i32,
}

impl Default for MbCoeffs {
    fn default() -> Self {
        MbCoeffs {
            blocks: [[0; 64]; 6],
            masks: [0; 6],
            cur: 0,
            sum: 0,
        }
    }
}

impl MbCoeffs {
    /// Inverse-transforms block `i` into `out` with the cheapest IDCT its
    /// mask allows ([`dct::idct_masked`]) and leaves the block zero.
    #[inline]
    pub fn idct_into(&mut self, i: usize, out: &mut [i32; 64]) {
        dct::idct_masked(&mut self.blocks[i], std::mem::take(&mut self.masks[i]), out);
    }

    /// Hands every masked `(raster index, value)` of block `i` to `f` in
    /// ascending index order and leaves the block zero. Returns the mask.
    pub fn drain_block(&mut self, i: usize, mut f: impl FnMut(usize, i32)) -> u64 {
        let mask = std::mem::take(&mut self.masks[i]);
        let mut bits = mask;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            f(idx, std::mem::take(&mut self.blocks[i][idx]));
            bits &= bits - 1;
        }
        mask
    }

    /// Inverse of [`drain_block`](Self::drain_block): refills block `i`
    /// from a mask and its dequantised values in ascending index order.
    pub fn load_block(&mut self, i: usize, mask: u64, values: &[i16]) {
        self.begin_block(i);
        self.masks[i] = mask;
        let mut bits = mask;
        for &v in values {
            if bits == 0 {
                break;
            }
            self.blocks[i][bits.trailing_zeros() as usize] = v as i32;
            bits &= bits - 1;
        }
    }

    /// Runs dense raster-order quantised `levels` through the sink as the
    /// parser would have delivered them (the encoder's reconstruction).
    pub fn load_levels(&mut self, q: &Dequant<'_>, i: usize, levels: &[i32; 64]) {
        self.begin_block(i);
        for (idx, &level) in levels.iter().enumerate() {
            if level == 0 {
                continue;
            }
            if idx == 0 && q.intra {
                self.coeff(&q.dc(), 0, level);
            } else {
                self.coeff(q, idx, level);
            }
        }
        self.end_block();
    }
}

impl CoeffSink for MbCoeffs {
    #[inline]
    fn begin_block(&mut self, i: usize) {
        if self.masks[i] != 0 {
            self.blocks[i] = [0; 64];
            self.masks[i] = 0;
        }
        self.cur = i;
        self.sum = 0;
    }

    #[inline]
    fn coeff(&mut self, q: &Dequant<'_>, idx: usize, level: i32) {
        let value = q.apply(idx, level);
        self.blocks[self.cur][idx] = value;
        self.masks[self.cur] |= 1 << idx;
        self.sum += value;
    }

    #[inline]
    fn end_block(&mut self) {
        if self.sum & 1 == 0 {
            // §7.4.4: an even sum toggles the LSB of F[7][7] (even → +1,
            // odd → −1, which is XOR in two's complement).
            self.blocks[self.cur][63] ^= 1;
            self.masks[self.cur] |= 1 << 63;
        }
    }
}

/// Longest coefficient token: the escape form, 6 + 6 + 12 bits (the
/// longest table code plus its sign is 17).
const TOKEN_BITS: u32 = 24;
// One `ensure` covers a block's opening token whichever kind it is.
const _: () = assert!(dc_size::MAX_BITS <= TOKEN_BITS);

fn run_past_end() -> Error {
    Error::Syntax("coefficient run past end of block".into())
}

/// Parses coded block `i` of a macroblock (0–3 luma, 4 Cb, 5 Cr) into
/// `sink`. `dc_pred` is the running DC predictor for this component and
/// is updated in place (only for intra blocks).
///
/// The block is one loop over a lent [`BitWindow`](tiledec_bitstream::BitWindow):
/// per token one 24-bit peek, one table load, one consume. Within eight
/// bytes of the buffer's end the window stops loading and
/// [`finish_block`] takes over at the same scan position, token by token
/// on the reader, so truncation is reported exactly where it always was.
pub fn parse_block<S: CoeffSink>(
    r: &mut BitReader<'_>,
    q: &Dequant<'_>,
    i: usize,
    alternate_scan: bool,
    dc_pred: &mut i32,
    sink: &mut S,
) -> Result<()> {
    sink.begin_block(i);
    let scan_table = scan::scan(alternate_scan);
    // Scan position of the next coefficient; 0 until the block's first
    // token (DC differential, or first-coefficient form) is decoded.
    let mut pos = 0usize;
    let mut w = r.lend();
    if w.ensure(TOKEN_BITS) {
        if q.intra {
            *dc_pred += dc_size::dc_differential_in(&mut w, i < 4)?;
            sink.coeff(&q.dc(), 0, *dc_pred);
            pos = 1;
        } else if w.peek(1) == 1 {
            // First-coefficient form `1s`: run 0, level ±1. Anything else
            // first is an ordinary token (which cannot be end-of-block:
            // that code starts with a 1 too).
            let level = 1 - 2 * (w.peek(2) & 1) as i32;
            w.consume(2);
            sink.coeff(q, scan_table[0] as usize, level);
            pos = 1;
        }
        while w.ensure(TOKEN_BITS) {
            let token = w.peek(TOKEN_BITS);
            let (value, len) = dct_coeff::TABLE.lookup(token >> 8);
            let mut next = pos + dct_coeff::run_of(value);
            let level;
            if next < 64 {
                let sign = ((token >> (TOKEN_BITS - 1 - len as u32)) & 1) as i32;
                level = (dct_coeff::magnitude_of(value) ^ -sign) + sign;
                w.consume(len as u32 + 1);
            } else {
                // Everything but a coefficient inside the block: the
                // sentinels (their run is 64) and a run off the end.
                match value {
                    dct_coeff::EOB => {
                        w.consume(len as u32);
                        sink.end_block();
                        return Ok(());
                    }
                    dct_coeff::ESCAPE => {
                        let (run, escaped) = dct_coeff::escape_fields(token);
                        w.consume(TOKEN_BITS);
                        dct_coeff::check_escape_level(escaped)?;
                        (next, level) = (pos + run, escaped);
                        if next >= 64 {
                            return Err(run_past_end());
                        }
                    }
                    dct_coeff::INVALID => return Err(w.invalid_code(dct_coeff::NAME).into()),
                    _ => {
                        w.consume(len as u32 + 1);
                        return Err(run_past_end());
                    }
                }
            }
            sink.coeff(q, scan_table[next] as usize, level);
            pos = next + 1;
        }
    }
    drop(w);
    finish_block(r, q, i < 4, scan_table, pos, dc_pred, sink)
}

/// The rest of a block from scan position `pos`, step by step on the
/// reader: what [`parse_block`] runs where its window cannot load.
#[cold]
fn finish_block<S: CoeffSink>(
    r: &mut BitReader<'_>,
    q: &Dequant<'_>,
    is_luma: bool,
    scan_table: &[u8; 64],
    mut pos: usize,
    dc_pred: &mut i32,
    sink: &mut S,
) -> Result<()> {
    if pos == 0 && q.intra {
        *dc_pred += decode_dc_differential(r, is_luma)?;
        sink.coeff(&q.dc(), 0, *dc_pred);
        pos = 1;
    }
    while let Some((run, level)) = decode_token(r, pos == 0)? {
        pos += run;
        if pos >= 64 {
            return Err(run_past_end());
        }
        sink.coeff(q, scan_table[pos] as usize, level);
        pos += 1;
    }
    sink.end_block();
    Ok(())
}

/// Writes one coded block from raster-order quantised levels. Returns
/// `false` (writing nothing) when a non-intra block has no non-zero
/// coefficients — the caller then clears its CBP bit. Intra blocks are
/// always written (the DC code is mandatory).
pub fn write_block(
    w: &mut BitWriter,
    intra: bool,
    is_luma: bool,
    alternate_scan: bool,
    dc_pred: &mut i32,
    levels: &[i32; 64],
) -> bool {
    let scan_table = scan::scan(alternate_scan);
    if intra {
        let diff = levels[0] - *dc_pred;
        *dc_pred = levels[0];
        encode_dc_differential(w, is_luma, diff);
        let mut run = 0u8;
        for pos in 1..64 {
            let v = levels[scan_table[pos] as usize];
            if v == 0 {
                run += 1;
            } else {
                encode_coeff(w, false, run, v);
                run = 0;
            }
        }
        encode_eob(w);
        true
    } else {
        let mut any = false;
        let mut run = 0u8;
        let mut first = true;
        for pos in 0..64 {
            let v = levels[scan_table[pos] as usize];
            if v == 0 {
                run += 1;
            } else {
                encode_coeff(w, first, run, v);
                first = false;
                any = true;
                run = 0;
            }
        }
        if any {
            encode_eob(w);
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SliceContext;
    use crate::types::{PictureInfo, PictureKind, SequenceInfo};

    fn seq() -> SequenceInfo {
        SequenceInfo {
            width: 16,
            height: 16,
            frame_rate_code: 5,
            bit_rate_400: 0,
            intra_quant_matrix: crate::tables::quant::DEFAULT_INTRA_MATRIX,
            non_intra_quant_matrix: crate::tables::quant::DEFAULT_NON_INTRA_MATRIX,
        }
    }

    fn pic() -> PictureInfo {
        PictureInfo::new(PictureKind::P, 0, [[1, 1], [15, 15]])
    }

    /// Test sink keeping one block's raw quantised levels.
    struct Levels([i32; 64]);

    impl CoeffSink for Levels {
        fn begin_block(&mut self, _i: usize) {
            self.0 = [0; 64];
        }
        fn coeff(&mut self, _q: &Dequant<'_>, idx: usize, level: i32) {
            self.0[idx] = level;
        }
    }

    /// Parses one block back into dense raw levels.
    fn parse_levels(
        bytes: &[u8],
        intra: bool,
        i: usize,
        alt: bool,
        dc_pred: &mut i32,
    ) -> Result<[i32; 64]> {
        let (seq, pic) = (seq(), pic());
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, intra, 4);
        let mut r = BitReader::new(bytes);
        let mut sink = Levels([0; 64]);
        parse_block(&mut r, &q, i, alt, dc_pred, &mut sink)?;
        Ok(sink.0)
    }

    fn sparse_levels(seed: u64, density: u64) -> [i32; 64] {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut l = [0i32; 64];
        for v in l.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < density {
                *v = ((s >> 8) % 401) as i32 - 200;
                if *v == 0 {
                    *v = 1;
                }
            }
        }
        l
    }

    #[test]
    fn non_intra_blocks_round_trip() {
        for seed in 1..60u64 {
            for density in [5, 20, 60, 95] {
                let mut levels = sparse_levels(seed * 131 + density, density);
                // Non-intra parse requires at least one coefficient.
                if levels.iter().all(|&v| v == 0) {
                    levels[10] = -3;
                }
                for alt in [false, true] {
                    let mut w = BitWriter::new();
                    let mut dc = 0;
                    assert!(write_block(&mut w, false, true, alt, &mut dc, &levels));
                    let out = parse_levels(&w.into_bytes(), false, 0, alt, &mut 0).unwrap();
                    assert_eq!(out, levels, "seed={seed} density={density} alt={alt}");
                }
            }
        }
    }

    #[test]
    fn intra_blocks_round_trip_with_dc_prediction() {
        let mut enc_pred = 128i32;
        let mut dec_pred = 128i32;
        for seed in 1..40u64 {
            let mut levels = sparse_levels(seed, 30);
            levels[0] = 100 + (seed as i32 % 300); // DC is absolute
            let mut w = BitWriter::new();
            write_block(&mut w, true, seed % 2 == 0, false, &mut enc_pred, &levels);
            let i = if seed % 2 == 0 { 0 } else { 4 };
            let out = parse_levels(&w.into_bytes(), true, i, false, &mut dec_pred).unwrap();
            assert_eq!(out, levels, "seed={seed}");
            assert_eq!(enc_pred, dec_pred);
        }
    }

    #[test]
    fn empty_non_intra_block_reports_uncoded() {
        let levels = [0i32; 64];
        let mut w = BitWriter::new();
        let mut dc = 0;
        assert!(!write_block(&mut w, false, true, false, &mut dc, &levels));
        assert_eq!(w.bit_len(), 0);
    }

    #[test]
    fn intra_block_with_only_dc() {
        let mut levels = [0i32; 64];
        levels[0] = 64;
        let mut w = BitWriter::new();
        let mut pred = 128;
        write_block(&mut w, true, true, false, &mut pred, &levels);
        let mut pred = 128;
        let out = parse_levels(&w.into_bytes(), true, 0, false, &mut pred).unwrap();
        assert_eq!(out[0], 64);
        assert!(out[1..].iter().all(|&v| v == 0));
        assert_eq!(pred, 64);
    }

    #[test]
    fn run_past_end_is_rejected() {
        // Escape with run 63 after position 10 runs off the block.
        let mut w = BitWriter::new();
        encode_coeff(&mut w, true, 10, 5);
        encode_coeff(&mut w, false, 60, 5);
        assert!(parse_levels(&w.into_bytes(), false, 0, false, &mut 0).is_err());
    }

    #[test]
    fn alternate_scan_changes_bit_layout_not_values() {
        let mut levels = [0i32; 64];
        levels[8] = 7; // raster position favoured by the alternate scan
        levels[1] = -2;
        let mut w_zig = BitWriter::new();
        let mut w_alt = BitWriter::new();
        let mut dc = 0;
        write_block(&mut w_zig, false, true, false, &mut dc, &levels);
        write_block(&mut w_alt, false, true, true, &mut dc, &levels);
        assert_ne!(w_zig.into_bytes(), w_alt.into_bytes());
    }

    #[test]
    fn mismatch_control_makes_sum_odd() {
        let (seq, pic) = (seq(), pic());
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, false, 2);
        for (idx, level) in [(0usize, 2), (10, 4), (63, 1), (63, -1), (5, 3)] {
            let mut levels = [0i32; 64];
            levels[idx] = level;
            let mut ws = MbCoeffs::default();
            ws.load_levels(&q, 2, &levels);
            let mut sum = 0;
            let mask = ws.drain_block(2, |i, v| {
                assert_ne!(v, 0, "mask bit {i} over a zero");
                sum += v;
            });
            assert_ne!(mask, 0);
            assert_eq!(sum.rem_euclid(2), 1, "idx={idx} level={level}");
        }
    }

    #[test]
    fn workspace_is_zero_again_after_every_consumer() {
        let (seq, pic) = (seq(), pic());
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, false, 2);
        let mut ws = MbCoeffs::default();
        for seed in 1..40u64 {
            let mut levels = sparse_levels(seed, [3, 10, 40][seed as usize % 3]);
            levels[seed as usize % 8] = 9; // never empty
            let i = seed as usize % 6;
            ws.load_levels(&q, i, &levels);
            let mut out = [0i32; 64];
            if seed % 2 == 0 {
                ws.idct_into(i, &mut out);
            } else {
                ws.drain_block(i, |_, _| {});
            }
            assert_eq!(ws.masks, [0; 6], "seed={seed}");
            assert_eq!(ws.blocks, [[0; 64]; 6], "seed={seed}");
        }
    }

    #[test]
    fn abandoned_block_is_wiped_by_the_next_begin() {
        let (seq, pic) = (seq(), pic());
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, false, 2);
        let mut ws = MbCoeffs::default();
        // A parse that dies mid-block: coefficients in, no end_block.
        ws.begin_block(1);
        ws.coeff(&q, 40, 17);
        ws.coeff(&q, 41, -3);
        let mut levels = [0i32; 64];
        levels[0] = 5;
        ws.load_levels(&q, 1, &levels);
        let mut seen = Vec::new();
        ws.drain_block(1, |i, v| seen.push((i, v)));
        // (2*5+1)*16*4/32 = 22, even, so mismatch control adds [63] = 1.
        assert_eq!(seen, vec![(0, 22), (63, 1)]);
    }

    #[test]
    fn drain_then_load_round_trips() {
        let (seq, pic) = (seq(), pic());
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, true, 7);
        let mut ws = MbCoeffs::default();
        for seed in 1..30u64 {
            let levels = sparse_levels(seed, 25);
            ws.load_levels(&q, 3, &levels);
            let dense = ws.blocks[3];
            let mut values = Vec::new();
            let mask = ws.drain_block(3, |_, v| values.push(v as i16));
            ws.load_block(5, mask, &values);
            assert_eq!(ws.masks[5], mask);
            assert_eq!(ws.blocks[5], dense, "seed={seed}");
            ws.drain_block(5, |_, _| {});
        }
    }
}
