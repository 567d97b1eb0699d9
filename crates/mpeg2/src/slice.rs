//! Slice and macroblock parsing (§6.2.4/6.2.5, §7.6).
//!
//! A single walker serves three consumers through the [`SliceVisitor`]
//! trait: the sequential decoder (reconstructs pixels), the splitter's
//! parse-only pass (records bit spans, predictor state and motion vectors),
//! and the tile decoder (which re-enters mid-slice from SPH state via
//! [`parse_one_macroblock`]). Coefficients go from the VLC straight into
//! the visitor's [`CoeffSink`] — dequantised for consumers that
//! reconstruct, dropped for those that only parse.

use tiledec_bitstream::{BitReader, BitWindow, BitWriter};

use crate::block::{self, CoeffSink};
use crate::quant::Dequant;
use crate::tables::{cbp, mb_type, mba, motion as mvtab};
use crate::types::{MbFlags, MotionVector, PictureInfo, PictureKind, SequenceInfo};
use crate::{Error, Result};

/// Everything slice decoding needs to know about the enclosing stream and
/// picture.
#[derive(Debug, Clone, Copy)]
pub struct SliceContext<'a> {
    /// Sequence-level parameters (dimensions, quant matrices).
    pub seq: &'a SequenceInfo,
    /// Picture-level parameters (kind, f-codes, scan, …).
    pub pic: &'a PictureInfo,
}

impl SliceContext<'_> {
    /// Picture width in macroblocks.
    pub fn mb_width(&self) -> u32 {
        self.seq.mb_width()
    }
}

/// The in-slice predictor state: exactly what the paper's SPH header must
/// carry so a decoder can pick up a slice in the middle (§4.3 of the
/// paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredictorState {
    /// Current quantiser scale code (updated by slice headers and
    /// `macroblock_quant`).
    pub qscale_code: u8,
    /// DC predictors for Y, Cb, Cr.
    pub dc_pred: [i32; 3],
    /// Motion-vector predictors `PMV[r][s][t]` (first/second vector,
    /// fwd/bwd, horizontal/vertical). With frame prediction both `r` rows
    /// stay equal; the full array is kept for fidelity to the standard.
    pub pmv: [[[i32; 2]; 2]; 2],
}

impl PredictorState {
    /// State at a slice start: DC predictors and PMVs reset.
    pub fn slice_start(intra_dc_precision: u8, qscale_code: u8) -> Self {
        let reset = dc_reset_value(intra_dc_precision);
        PredictorState {
            qscale_code,
            dc_pred: [reset; 3],
            pmv: [[[0; 2]; 2]; 2],
        }
    }

    /// Resets the DC predictors (§7.2.1).
    pub fn reset_dc(&mut self, intra_dc_precision: u8) {
        self.dc_pred = [dc_reset_value(intra_dc_precision); 3];
    }

    /// Resets all motion-vector predictors (§7.6.3.4).
    pub fn reset_pmv(&mut self) {
        self.pmv = [[[0; 2]; 2]; 2];
    }
}

/// DC predictor reset value for an `intra_dc_precision` (§7.2.1).
pub fn dc_reset_value(intra_dc_precision: u8) -> i32 {
    1 << (intra_dc_precision + 7)
}

/// The prediction a macroblock performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MbMotion {
    /// Intra-coded: no prediction.
    Intra,
    /// Forward prediction only.
    Forward(MotionVector),
    /// Backward prediction only (B pictures).
    Backward(MotionVector),
    /// Bidirectional prediction (B pictures).
    Bi(MotionVector, MotionVector),
}

/// How [`parse_one_macroblock`] interprets the address increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrMode {
    /// First macroblock of a full slice: the increment sets the column and
    /// must be 1 in the restricted slice structure.
    FirstInSlice,
    /// Mid-slice continuation: increments above 1 denote skipped
    /// macroblocks.
    Continuation,
    /// First macroblock of a *partial* slice inside a sub-picture: the
    /// copied bits still hold the original increment, which is decoded and
    /// discarded; the address comes from the SPH instead, and skipped
    /// macroblocks were already accounted for by the splitter.
    Forced(u32),
}

/// Mutable state threaded through a slice walk. The tile decoder builds one
/// of these directly from an SPH header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkState {
    /// Predictor state.
    pub pred: PredictorState,
    /// Motion of the most recent macroblock (for B-picture skip
    /// reconstruction).
    pub prev_motion: MbMotion,
    /// Address of the most recent macroblock (`row * mb_width - 1` before
    /// the first one).
    pub prev_addr: i64,
}

impl WalkState {
    /// State at a slice start on `row`, with the slice header's quantiser
    /// scale code.
    pub fn slice_start(ctx: &SliceContext<'_>, row: u32, qscale_code: u8) -> Self {
        WalkState {
            pred: PredictorState::slice_start(ctx.pic.intra_dc_precision, qscale_code),
            prev_motion: MbMotion::Intra,
            prev_addr: (row as i64) * ctx.mb_width() as i64 - 1,
        }
    }
}

/// Metadata for one parsed macroblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbMeta {
    /// Raster macroblock address within the picture.
    pub addr: u32,
    /// Macroblock column.
    pub x: u32,
    /// Macroblock row.
    pub y: u32,
    /// Decoded `macroblock_type` flags.
    pub flags: MbFlags,
    /// Quantiser scale code in effect for this macroblock.
    pub qscale_code: u8,
    /// Prediction performed.
    pub motion: MbMotion,
    /// Concealment motion vector carried by an intra macroblock when the
    /// picture has `concealment_motion_vectors` set (§7.6.3.9). Never used
    /// for reconstruction; decoders may use it to conceal the macroblock
    /// *below* this one when that macroblock's slice is lost.
    pub concealment_mv: Option<MotionVector>,
    /// Coded block pattern (bit 5 = Y0 … bit 0 = Cr).
    pub cbp: u8,
    /// Number of skipped macroblocks immediately before this one.
    pub skipped_before: u32,
    /// Predictor state at the first bit of this macroblock's address
    /// increment, *after* the side effects of any preceding skipped
    /// macroblocks. This is what an SPH must carry.
    pub entry: PredictorState,
    /// Motion of the macroblock preceding this one (after skips), needed by
    /// SPH for B-picture skip reconstruction across tile boundaries.
    pub entry_prev_motion: MbMotion,
    /// Bit offset of the first bit of the address increment.
    pub bit_start: usize,
    /// Bit offset just past the last bit of the macroblock.
    pub bit_end: usize,
}

/// Visitor over a slice's macroblocks.
pub trait SliceVisitor {
    /// What the walk does with coefficients on this visitor's behalf:
    /// [`MbCoeffs`](crate::block::MbCoeffs) to reconstruct,
    /// [`Discard`](crate::block::Discard) to parse only.
    type Coeffs: CoeffSink;

    /// A run of `count` skipped macroblocks starting at `start_addr`,
    /// reconstructed with `motion` (zero forward vector in P pictures, the
    /// previous macroblock's prediction in B pictures).
    fn skipped(
        &mut self,
        ctx: &SliceContext<'_>,
        start_addr: u32,
        count: u32,
        motion: &MbMotion,
    ) -> Result<()>;

    /// One coded macroblock. `coeffs` is the sink the walk just fed this
    /// macroblock's CBP-coded blocks into; a visitor that reads blocks out
    /// of it must leave them zero.
    fn macroblock(
        &mut self,
        ctx: &SliceContext<'_>,
        meta: &MbMeta,
        coeffs: &mut Self::Coeffs,
    ) -> Result<()>;
}

/// Parses a whole slice. The reader must be positioned right after the
/// slice start code; `row` is `start_code_value - 1`. `coeffs` is the
/// caller-held coefficient sink, so a loop over many slices performs no
/// per-slice allocation.
pub fn parse_slice<V: SliceVisitor>(
    r: &mut BitReader<'_>,
    ctx: &SliceContext<'_>,
    row: u32,
    visitor: &mut V,
    coeffs: &mut V::Coeffs,
) -> Result<()> {
    if row >= ctx.seq.mb_height() {
        return Err(Error::Syntax(format!(
            "slice row {row} past picture bottom"
        )));
    }
    let qscale_code = r.read_bits(5)? as u8;
    if qscale_code == 0 {
        return Err(Error::Syntax(
            "quantiser_scale_code 0 in slice header".into(),
        ));
    }
    if r.read_bit()? == 1 {
        return Err(Error::Unsupported("slice extensions (intra_slice_flag)"));
    }
    let mut st = WalkState::slice_start(ctx, row, qscale_code);
    let mut first = true;
    loop {
        let mode = if first {
            AddrMode::FirstInSlice
        } else {
            AddrMode::Continuation
        };
        let meta = parse_one_macroblock(r, ctx, &mut st, mode, coeffs)?;
        if meta.skipped_before > 0 {
            let skip_motion = skip_motion(ctx.pic.kind, &meta.entry_prev_motion)?;
            visitor.skipped(
                ctx,
                meta.addr - meta.skipped_before,
                meta.skipped_before,
                &skip_motion,
            )?;
        }
        visitor.macroblock(ctx, &meta, coeffs)?;
        first = false;
        if slice_done(r) {
            return Ok(());
        }
    }
}

/// The prediction used to reconstruct skipped macroblocks (§7.6.6).
pub fn skip_motion(kind: PictureKind, prev: &MbMotion) -> Result<MbMotion> {
    match kind {
        PictureKind::P => Ok(MbMotion::Forward(MotionVector::ZERO)),
        PictureKind::B => match prev {
            MbMotion::Intra => Err(Error::Syntax(
                "skipped macroblock follows intra in B picture".into(),
            )),
            m => Ok(*m),
        },
        PictureKind::I => Err(Error::Syntax("skipped macroblock in I picture".into())),
    }
}

/// True when the slice's macroblock data is exhausted: the remaining bits
/// to the next byte boundary are zero padding and a start code (or the end
/// of the buffer) follows. No legal macroblock can begin with that many
/// zero bits, so the test is unambiguous.
pub fn slice_done(r: &BitReader<'_>) -> bool {
    let pad = (8 - r.bit_position() % 8) % 8;
    if r.bits_remaining() <= pad {
        // The buffer ends inside (or at) the current byte. The remaining
        // bits are still macroblock data unless they are all zero: a
        // macroblock can end flush against the end of a cut picture unit,
        // where no start code follows to mark the boundary.
        return r.peek_bits(r.bits_remaining() as u32) == 0;
    }
    if r.peek_bits(pad as u32) != 0 {
        return false;
    }
    let byte = r.bit_position().div_ceil(8);
    let data = r.data();
    if byte >= data.len() {
        return true;
    }
    if r.next_is_start_code() {
        return true;
    }
    // Fewer than 3 bytes of trailing zeros at the end of the buffer also
    // terminate the slice (stream tail padding).
    data.len() - byte < 3 && data[byte..].iter().all(|&b| b == 0)
}

/// Parses one macroblock (address increment + body) and advances the walk
/// state. `mode` selects address-setting semantics for the increment.
/// The CBP-coded blocks' coefficients go to `coeffs` as they are decoded.
///
/// The header (everything before the first block) is decoded out of one
/// lent window; dropping it — at the first block, or at an error — seats
/// the reader where the step-by-step reads would have left it.
pub fn parse_one_macroblock(
    r: &mut BitReader<'_>,
    ctx: &SliceContext<'_>,
    st: &mut WalkState,
    mode: AddrMode,
    coeffs: &mut impl CoeffSink,
) -> Result<MbMeta> {
    let bit_start = r.bit_position();
    let mut w = r.lend();
    let increment = mba::decode_increment(&mut w)?;
    let addr = match mode {
        AddrMode::Forced(a) => a,
        _ => (st.prev_addr + increment as i64) as u32,
    };
    let mbw = ctx.mb_width();
    if addr >= mbw * ctx.seq.mb_height() {
        return Err(Error::Syntax(format!(
            "macroblock address {addr} out of picture"
        )));
    }
    let skipped_before = match mode {
        AddrMode::FirstInSlice => {
            if increment != 1 {
                return Err(Error::Syntax(
                    "slice does not start at its first macroblock column".into(),
                ));
            }
            0
        }
        AddrMode::Forced(_) => 0,
        AddrMode::Continuation => increment - 1,
    };
    if skipped_before > 0 {
        // Side effects of skipped macroblocks (§7.6.6): DC predictors reset;
        // in P pictures the motion predictors reset too.
        st.pred.reset_dc(ctx.pic.intra_dc_precision);
        if ctx.pic.kind == PictureKind::P {
            st.pred.reset_pmv();
        }
    }
    let entry = st.pred.clone();
    let entry_prev_motion = st.prev_motion;

    let flags = mb_type::decode_mb_type(&mut w, ctx.pic.kind)?;
    if flags.quant {
        let q = w.read_bits(5)? as u8;
        if q == 0 {
            return Err(Error::Syntax("quantiser_scale_code 0 in macroblock".into()));
        }
        st.pred.qscale_code = q;
    }

    let mut concealment_mv = None;
    let motion = if flags.intra {
        if ctx.pic.concealment_mv {
            // §7.6.3.9: a forward vector (updating the predictors the usual
            // way) followed by a marker bit, carried for concealment only.
            concealment_mv = Some(decode_motion_vector(&mut w, ctx, st, 0)?);
            w.step(|r| r.marker_bit())?;
        }
        MbMotion::Intra
    } else {
        let fwd = if flags.motion_forward {
            Some(decode_motion_vector(&mut w, ctx, st, 0)?)
        } else {
            None
        };
        let bwd = if flags.motion_backward {
            Some(decode_motion_vector(&mut w, ctx, st, 1)?)
        } else {
            None
        };
        match (fwd, bwd, ctx.pic.kind) {
            (Some(f), Some(b), _) => MbMotion::Bi(f, b),
            (Some(f), None, _) => MbMotion::Forward(f),
            (None, Some(b), _) => MbMotion::Backward(b),
            (None, None, PictureKind::P) => {
                // "No MC": zero forward vector, predictors reset (§7.6.3.5).
                st.pred.reset_pmv();
                MbMotion::Forward(MotionVector::ZERO)
            }
            (None, None, _) => {
                return Err(Error::Syntax(
                    "non-intra B macroblock without motion".into(),
                ))
            }
        }
    };

    if flags.intra {
        // §7.6.3.4: intra macroblocks keep the motion predictors alive when
        // the picture carries concealment motion vectors.
        if !ctx.pic.concealment_mv {
            st.pred.reset_pmv();
        }
    } else {
        st.pred.reset_dc(ctx.pic.intra_dc_precision);
    }

    let cbp = if flags.pattern {
        let c = cbp::decode_cbp(&mut w)?;
        if c == 0 {
            return Err(Error::Syntax(
                "coded_block_pattern 0 is illegal in 4:2:0".into(),
            ));
        }
        c
    } else if flags.intra {
        0b111111
    } else {
        0
    };

    drop(w);
    let q = Dequant::new(ctx, flags.intra, st.pred.qscale_code);
    for i in 0..6 {
        if cbp & (1 << (5 - i)) != 0 {
            let comp = if i < 4 { 0 } else { i - 3 };
            block::parse_block(
                r,
                &q,
                i,
                ctx.pic.alternate_scan,
                &mut st.pred.dc_pred[comp],
                coeffs,
            )?;
        }
    }

    st.prev_motion = motion;
    st.prev_addr = addr as i64;
    Ok(MbMeta {
        addr,
        x: addr % mbw,
        y: addr / mbw,
        flags,
        qscale_code: st.pred.qscale_code,
        motion,
        concealment_mv,
        cbp,
        skipped_before,
        entry,
        entry_prev_motion,
        bit_start,
        bit_end: r.bit_position(),
    })
}

#[allow(clippy::needless_range_loop)] // PMV[r][s][t] indexing mirrors the standard
fn decode_motion_vector(
    w: &mut BitWindow<'_, '_>,
    ctx: &SliceContext<'_>,
    st: &mut WalkState,
    s: usize,
) -> Result<MotionVector> {
    let fx = ctx.pic.f_code[s][0];
    let fy = ctx.pic.f_code[s][1];
    if !(1..=9).contains(&fx) || !(1..=9).contains(&fy) {
        return Err(Error::Syntax(format!(
            "invalid f_code {fx}/{fy} for used prediction"
        )));
    }
    let x = mvtab::decode_mv_component_in(w, fx, st.pred.pmv[0][s][0])?;
    let y = mvtab::decode_mv_component_in(w, fy, st.pred.pmv[0][s][1])?;
    st.pred.pmv[0][s] = [x, y];
    st.pred.pmv[1][s] = [x, y];
    Ok(MotionVector::new(x as i16, y as i16))
}

/// Writes a slice header (start code + quantiser scale) for `row`.
/// Panics for rows that cannot be expressed without the vertical-position
/// extension (≥ 175, i.e. pictures taller than 2800 lines).
pub fn write_slice_header(w: &mut BitWriter, row: u32, qscale_code: u8) {
    assert!(
        row < 175,
        "slice_vertical_position extension unsupported (picture too tall)"
    );
    assert!((1..=31).contains(&qscale_code));
    w.put_start_code((row + 1) as u8);
    w.put_bits(qscale_code as u32, 5);
    w.put_bit(0); // extra_bit_slice
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_reset_values() {
        assert_eq!(dc_reset_value(0), 128);
        assert_eq!(dc_reset_value(1), 256);
        assert_eq!(dc_reset_value(3), 1024);
    }

    #[test]
    fn skip_motion_rules() {
        assert_eq!(
            skip_motion(PictureKind::P, &MbMotion::Intra).unwrap(),
            MbMotion::Forward(MotionVector::ZERO)
        );
        let prev = MbMotion::Bi(MotionVector::new(2, -2), MotionVector::new(1, 1));
        assert_eq!(skip_motion(PictureKind::B, &prev).unwrap(), prev);
        assert!(skip_motion(PictureKind::B, &MbMotion::Intra).is_err());
        assert!(skip_motion(PictureKind::I, &MbMotion::Intra).is_err());
    }

    #[test]
    fn slice_done_on_aligned_start_code() {
        let data = [0x00, 0x00, 0x01, 0x02];
        let r = BitReader::new(&data);
        assert!(slice_done(&r));
    }

    #[test]
    fn slice_not_done_mid_macroblock_data() {
        let data = [0xFF, 0xFF];
        let mut r = BitReader::new(&data);
        r.skip(3).unwrap();
        assert!(!slice_done(&r));
    }

    #[test]
    fn slice_done_with_zero_padding_then_code() {
        // 5 data bits then 3 zero pad bits, then a start code.
        let data = [0b10110_000, 0x00, 0x00, 0x01, 0x05];
        let mut r = BitReader::new(&data);
        r.skip(5).unwrap();
        assert!(slice_done(&r));
    }

    #[test]
    fn slice_not_done_when_data_ends_flush_with_buffer() {
        // 2 bits consumed, 6 bits of macroblock data fill the rest of the
        // final byte: no start code follows (the unit was cut here), but
        // the nonzero bits are still a macroblock, not padding.
        let data = [0b01_100110];
        let mut r = BitReader::new(&data);
        r.skip(2).unwrap();
        assert!(!slice_done(&r));
    }

    #[test]
    fn slice_done_on_zero_padding_flush_with_buffer() {
        let data = [0b01_000000];
        let mut r = BitReader::new(&data);
        r.skip(2).unwrap();
        assert!(slice_done(&r));
    }

    #[test]
    fn slice_done_at_exact_end() {
        let data = [0xAB];
        let mut r = BitReader::new(&data);
        r.skip(8).unwrap();
        assert!(slice_done(&r));
    }

    #[test]
    fn slice_done_tail_zeros() {
        let data = [0b1010_0000, 0x00];
        let mut r = BitReader::new(&data);
        r.skip(4).unwrap();
        assert!(slice_done(&r));
    }

    #[test]
    fn predictor_state_resets() {
        let mut st = PredictorState::slice_start(0, 10);
        st.dc_pred = [5, 6, 7];
        st.pmv[0][1][0] = 33;
        st.reset_dc(0);
        assert_eq!(st.dc_pred, [128; 3]);
        assert_eq!(st.pmv[0][1][0], 33);
        st.reset_pmv();
        assert_eq!(st.pmv, [[[0; 2]; 2]; 2]);
    }
}
