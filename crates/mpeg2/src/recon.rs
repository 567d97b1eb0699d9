//! Macroblock reconstruction: IDCT of the already-dequantised coefficient
//! workspace, motion compensation and pixel assembly.
//!
//! [`Reconstructor`] implements [`SliceVisitor`] generically over a
//! [`ReferenceFetcher`] (where reference pixels come from) and an
//! [`MbSink`] (where reconstructed pixels go), so the same code drives the
//! sequential decoder (whole frames on both sides) and the tile decoder in
//! `tiledec-core` (tile-plus-halo in, tile out).

use crate::block::MbCoeffs;
use crate::frame::{Frame, FrameBandMut};
use crate::motion::{average, predict_strided, PlanePick, RefPick, ReferenceFetcher};
use crate::slice::{MbMeta, MbMotion, SliceContext, SliceVisitor};
use crate::types::MotionVector;
use crate::Result;

/// One macroblock's samples inside its destination, lent for writing in
/// place: each slice starts at the macroblock's top-left sample of its
/// plane and reaches at least to its bottom-right one (16 luma or 8 chroma
/// rows, `y_stride` / `c_stride` bytes apart). Every other byte in reach
/// belongs to a neighbouring macroblock and is not to be written.
pub struct MbDst<'a> {
    /// Luma rows.
    pub y: &'a mut [u8],
    /// Bytes between vertically adjacent luma samples.
    pub y_stride: usize,
    /// Blue-difference chroma rows.
    pub cb: &'a mut [u8],
    /// Red-difference chroma rows.
    pub cr: &'a mut [u8],
    /// Bytes between vertically adjacent chroma samples (both planes).
    pub c_stride: usize,
}

impl MbDst<'_> {
    /// Zeroes the macroblock's 16×16 luma and two 8×8 chroma blocks.
    fn zero(&mut self) {
        for row in self.y.chunks_mut(self.y_stride).take(16) {
            row[..16].fill(0);
        }
        for plane in [&mut *self.cb, &mut *self.cr] {
            for row in plane.chunks_mut(self.c_stride).take(8) {
                row[..8].fill(0);
            }
        }
    }
}

/// Where reconstructed macroblocks go: a frame, a tile frame or a band,
/// which lends the reconstructor each macroblock's rows to write in place.
pub trait MbSink {
    /// Lends the samples of the macroblock at picture macroblock
    /// coordinates (`mb_x`, `mb_y`). The sink checks the coordinates
    /// against what it covers and panics outside it — parsers bound
    /// addresses by the picture, partitioners route slices to the band or
    /// tile that owns them, so a miss is a bug, not bad input.
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_>;
}

/// [`MbSink`] writing into a whole frame.
pub struct FrameSink<'a> {
    /// Destination frame (picture-sized).
    pub frame: &'a mut Frame,
}

impl MbSink for FrameSink<'_> {
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_> {
        let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
        MbDst {
            y_stride: self.frame.y.stride(),
            c_stride: self.frame.cb.stride(),
            y: self.frame.y.lend_mut(px, py, 16, 16),
            cb: self.frame.cb.lend_mut(px / 2, py / 2, 8, 8),
            cr: self.frame.cr.lend_mut(px / 2, py / 2, 8, 8),
        }
    }
}

/// [`MbSink`] writing into a mutable row band of a frame.
///
/// Each holder of a band of [`Frame::disjoint_mb_row_bands`] owns disjoint
/// rows of the target frame (borrow-checker-enforced), so bands accept
/// writes concurrently with no locking. Macroblocks outside the band
/// panic — the band partitioner must route every slice to the band owning
/// its rows.
impl MbSink for FrameBandMut<'_> {
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_> {
        let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
        MbDst {
            y_stride: self.y.width(),
            c_stride: self.cb.width(),
            y: self.y.lend_mut(px, py, 16, 16),
            cb: self.cb.lend_mut(px / 2, py / 2, 8, 8),
            cr: self.cr.lend_mut(px / 2, py / 2, 8, 8),
        }
    }
}

/// Which macroblocks of a destination a picture has written: one bit per
/// macroblock of a rectangle in picture macroblock coordinates, set when
/// [`Covered`] lends the macroblock.
///
/// This is what lets every pool hand out *stale* buffers. The invariant
/// it keeps: **a frame leaves a decoder with every macroblock either lent
/// or zeroed** — [`finish`](MbCoverage::finish) zeroes exactly the ones
/// nobody lent (a tile frame's halo, the rows of a missing or truncated
/// slice), so output is what it was when buffers were cleared up front.
///
/// Scratch, not state: like [`FramePool`](crate::frame::FramePool) it
/// clones empty and hashes to nothing, so decoders that differ only in it
/// stay identical to the model checker.
#[derive(Debug, Default)]
pub struct MbCoverage {
    /// Bit `y * w + x` of the rectangle, 64 to a word; bits past `w * h`
    /// are set, so a fully lent rectangle is all-ones words.
    bits: Vec<u64>,
    x0: u32,
    y0: u32,
    w: u32,
    h: u32,
}

impl MbCoverage {
    /// Starts a picture: nothing lent yet in the `w × h` macroblock
    /// rectangle whose top-left macroblock is (`x0`, `y0`). Allocates only
    /// when the rectangle outgrows every earlier one.
    pub fn begin(&mut self, x0: u32, y0: u32, w: u32, h: u32) {
        (self.x0, self.y0, self.w, self.h) = (x0, y0, w, h);
        let n = w as usize * h as usize;
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        if let Some(last) = self.bits.last_mut() {
            *last = (!0u64 << ((n - 1) % 64)) << 1;
        }
    }

    /// Records the macroblock at picture coordinates (`mb_x`, `mb_y`) as
    /// lent. One outside the rectangle is left for the sink to reject.
    #[inline]
    fn mark(&mut self, mb_x: u32, mb_y: u32) {
        let (x, y) = (mb_x.wrapping_sub(self.x0), mb_y.wrapping_sub(self.y0));
        if x < self.w && y < self.h {
            let i = y as usize * self.w as usize + x as usize;
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    /// Ends the picture: zeroes, through `sink`, every macroblock of the
    /// rectangle that was never lent. A fully covered picture costs one
    /// compare per 64 macroblocks.
    pub fn finish(&self, sink: &mut impl MbSink) {
        for (word, &bits) in self.bits.iter().enumerate() {
            let mut unlent = !bits;
            while unlent != 0 {
                let i = word * 64 + unlent.trailing_zeros() as usize;
                unlent &= unlent - 1;
                let (x, y) = (i % self.w as usize, i / self.w as usize);
                sink.lend(self.x0 + x as u32, self.y0 + y as u32).zero();
            }
        }
    }
}

impl Clone for MbCoverage {
    /// Clones empty: scratch is not part of a decoder's identity.
    fn clone(&self) -> Self {
        MbCoverage::default()
    }
}

impl std::hash::Hash for MbCoverage {
    /// Hashes nothing, like [`FramePool`](crate::frame::FramePool).
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

/// Any [`MbSink`] with its lends recorded in an [`MbCoverage`] — the one
/// wrapper every decoder reconstructs through.
pub struct Covered<'a, S: MbSink> {
    /// The destination.
    pub sink: S,
    /// What has been lent so far this picture.
    pub coverage: &'a mut MbCoverage,
}

impl<S: MbSink> Covered<'_, S> {
    /// Ends the picture: zeroes every macroblock the sink never lent
    /// ([`MbCoverage::finish`]).
    pub fn finish(&mut self) {
        self.coverage.finish(&mut self.sink);
    }
}

impl<S: MbSink> MbSink for Covered<'_, S> {
    #[inline]
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_> {
        self.coverage.mark(mb_x, mb_y);
        self.sink.lend(mb_x, mb_y)
    }
}

/// Slice visitor that reconstructs pixels.
pub struct Reconstructor<'a, R: ReferenceFetcher, S: MbSink> {
    /// Reference pixel source.
    pub refs: &'a R,
    /// Reconstructed pixel destination.
    pub sink: &'a mut S,
}

/// Forms the prediction of the macroblock at (`mb_x`, `mb_y`) straight
/// into its lent rows; a bidirectional one averages the backward
/// prediction in from a stack scratch block.
fn predict_mb(
    refs: &impl ReferenceFetcher,
    mb_x: u32,
    mb_y: u32,
    motion: &MbMotion,
    dst: &mut MbDst<'_>,
) {
    let ((which, mv), second) = match *motion {
        MbMotion::Intra => unreachable!("intra macroblocks are not predicted"),
        MbMotion::Forward(f) => ((RefPick::Forward, f), None),
        MbMotion::Backward(b) => ((RefPick::Backward, b), None),
        MbMotion::Bi(f, b) => ((RefPick::Forward, f), Some((RefPick::Backward, b))),
    };
    let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
    let (cx, cy) = (px / 2, py / 2);
    let (ys, cs) = (dst.y_stride, dst.c_stride);
    let cmv = mv.chroma_420();
    predict_strided(refs, which, PlanePick::Y, px, py, 16, mv, dst.y, ys);
    predict_strided(refs, which, PlanePick::Cb, cx, cy, 8, cmv, dst.cb, cs);
    predict_strided(refs, which, PlanePick::Cr, cx, cy, 8, cmv, dst.cr, cs);
    if let Some((which, mv)) = second {
        let cmv: MotionVector = mv.chroma_420();
        let mut other = [0u8; 256];
        predict_strided(refs, which, PlanePick::Y, px, py, 16, mv, &mut other, 16);
        average(&other, 16, dst.y, ys, 16);
        predict_strided(refs, which, PlanePick::Cb, cx, cy, 8, cmv, &mut other, 8);
        average(&other, 8, dst.cb, cs, 8);
        predict_strided(refs, which, PlanePick::Cr, cx, cy, 8, cmv, &mut other, 8);
        average(&other, 8, dst.cr, cs, 8);
    }
}

/// Adds an 8×8 residual onto the prediction at (`bx`, `by`) of a
/// macroblock's rows, saturating to `[0, 255]`. Dispatches through
/// [`crate::kernels`]; bit-exact across kernel sets.
fn add_residual(dst: &mut [u8], stride: usize, bx: usize, by: usize, residual: &[i32; 64]) {
    (crate::kernels::active().add_residual)(&mut dst[by * stride + bx..], stride, residual)
}

/// Writes an 8×8 intra block (no prediction) at (`bx`, `by`) of a
/// macroblock's rows, clamping samples to `[0, 255]`. Dispatches through
/// [`crate::kernels`].
fn set_block(dst: &mut [u8], stride: usize, bx: usize, by: usize, samples: &[i32; 64]) {
    (crate::kernels::active().set_block)(&mut dst[by * stride + bx..], stride, samples)
}

/// Offsets of the six blocks within their plane's macroblock.
const BLOCK_OFFSETS: [(usize, usize); 6] = [(0, 0), (8, 0), (0, 8), (8, 8), (0, 0), (0, 0)];

impl<R: ReferenceFetcher, S: MbSink> SliceVisitor for Reconstructor<'_, R, S> {
    type Coeffs = MbCoeffs;

    fn skipped(
        &mut self,
        ctx: &SliceContext<'_>,
        start_addr: u32,
        count: u32,
        motion: &MbMotion,
    ) -> Result<()> {
        let mbw = ctx.mb_width();
        for addr in start_addr..start_addr + count {
            let (mb_x, mb_y) = (addr % mbw, addr / mbw);
            let mut dst = self.sink.lend(mb_x, mb_y);
            predict_mb(self.refs, mb_x, mb_y, motion, &mut dst);
        }
        Ok(())
    }

    fn macroblock(
        &mut self,
        _ctx: &SliceContext<'_>,
        meta: &MbMeta,
        coeffs: &mut MbCoeffs,
    ) -> Result<()> {
        let mut dst = self.sink.lend(meta.x, meta.y);
        let intra = meta.flags.intra;
        if !intra {
            predict_mb(self.refs, meta.x, meta.y, &meta.motion, &mut dst);
        } else if meta.cbp != 0b111111 {
            // No parser produces this (4:2:0 intra macroblocks code all six
            // blocks), but a block with neither prediction nor samples must
            // not keep what the stale destination held.
            dst.zero();
        }
        let mut spatial = [0i32; 64];
        for (i, &(bx, by)) in BLOCK_OFFSETS.iter().enumerate() {
            if meta.cbp & (1 << (5 - i)) == 0 {
                continue;
            }
            coeffs.idct_into(i, &mut spatial);
            let (rows, stride) = match i {
                0..=3 => (&mut *dst.y, dst.y_stride),
                4 => (&mut *dst.cb, dst.c_stride),
                _ => (&mut *dst.cr, dst.c_stride),
            };
            if intra {
                set_block(rows, stride, bx, by, &spatial);
            } else {
                add_residual(rows, stride, bx, by, &spatial);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills a lent macroblock: luma `y`, chroma `cb` / `cr`.
    fn paint(dst: MbDst<'_>, y: u8, cb: u8, cr: u8) {
        for r in 0..16 {
            dst.y[r * dst.y_stride..][..16].fill(y);
        }
        for r in 0..8 {
            dst.cb[r * dst.c_stride..][..8].fill(cb);
            dst.cr[r * dst.c_stride..][..8].fill(cr);
        }
    }

    #[test]
    fn frame_sink_lends_the_macroblock_rows() {
        let mut frame = Frame::black(32, 32);
        let mut sink = FrameSink { frame: &mut frame };
        let dst = sink.lend(1, 1);
        assert_eq!((dst.y_stride, dst.c_stride), (32, 16));
        paint(dst, 200, 90, 30);
        assert_eq!(frame.y.get(16, 16), 200);
        assert_eq!(frame.y.get(31, 31), 200);
        assert_eq!(frame.y.get(15, 15), 0);
        assert_eq!(frame.cb.get(8, 8), 90);
        assert_eq!(frame.cr.get(15, 15), 30);
        assert_eq!(frame.cb.get(7, 7), 128);
    }

    #[test]
    fn frame_bands_lend_what_the_frame_lends() {
        let mut whole = Frame::zeroed(48, 64);
        let mut banded = Frame::zeroed(48, 64);
        let mbs = [(0, 0, 10), (2, 1, 20), (1, 2, 30), (2, 3, 40)];
        for (x, y, v) in mbs {
            paint(FrameSink { frame: &mut whole }.lend(x, y), v, v + 1, v + 2);
        }
        let mut bands = banded.disjoint_mb_row_bands(&[1, 3]);
        for (x, y, v) in mbs {
            let band = bands
                .iter_mut()
                .find(|b| (b.mb_y0()..b.mb_y1()).contains(&(y as usize)))
                .unwrap();
            paint(band.lend(x, y), v, v + 1, v + 2);
        }
        drop(bands);
        assert_eq!(whole, banded);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn frame_bands_reject_rows_they_do_not_own() {
        let mut f = Frame::zeroed(32, 64);
        let mut bands = f.disjoint_mb_row_bands(&[2]);
        bands[0].lend(0, 2);
    }

    /// The coverage invariant on a stale destination: what was lent keeps
    /// what the reconstructor wrote, everything else reads zero.
    #[test]
    fn coverage_zeroes_exactly_the_unlent_macroblocks() {
        // 5×14 = 70 macroblocks: the bitmap spills into a second word.
        let (mbw, mbh) = (5u32, 14u32);
        let mut frame = Frame::zeroed(mbw as usize * 16, mbh as usize * 16);
        for plane in [&mut frame.y, &mut frame.cb, &mut frame.cr] {
            plane.fill(0xA5);
        }
        let lent = [(0, 0), (4, 0), (2, 6), (3, 12), (4, 12), (0, 13), (4, 13)];
        let mut coverage = MbCoverage::default();
        coverage.begin(0, 0, mbw, mbh);
        let mut sink = Covered {
            sink: FrameSink { frame: &mut frame },
            coverage: &mut coverage,
        };
        for (x, y) in lent {
            paint(sink.lend(x, y), 7, 8, 9);
        }
        coverage.finish(&mut FrameSink { frame: &mut frame });
        for y in 0..frame.height() {
            for x in 0..frame.width() {
                let was_lent = lent.contains(&(x as u32 / 16, y as u32 / 16));
                let want = if was_lent { (7, 8, 9) } else { (0, 0, 0) };
                let got = (
                    frame.y.get(x, y),
                    frame.cb.get(x / 2, y / 2),
                    frame.cr.get(x / 2, y / 2),
                );
                assert_eq!(got, want, "sample ({x},{y})");
            }
        }
        // A second picture starts from nothing lent, whatever the first did.
        coverage.begin(0, 0, mbw, mbh);
        coverage.finish(&mut FrameSink { frame: &mut frame });
        assert_eq!(frame, Frame::zeroed(mbw as usize * 16, mbh as usize * 16));
    }

    #[test]
    fn coverage_is_relative_to_its_rectangle() {
        // A band covering macroblock rows 2..4 of a 3-wide picture.
        let mut frame = Frame::zeroed(48, 64);
        frame.y.fill(0xA5);
        let mut coverage = MbCoverage::default();
        coverage.begin(0, 2, 3, 2);
        let mut bands = frame.disjoint_mb_row_bands(&[2]);
        let mut sink = Covered {
            sink: bands.pop().unwrap(),
            coverage: &mut coverage,
        };
        paint(sink.lend(1, 3), 7, 8, 9);
        sink.finish();
        drop((sink, bands));
        assert_eq!(frame.y.get(16, 48), 7);
        assert_eq!(frame.y.get(15, 48), 0, "the band's unlent macroblocks");
        assert_eq!(frame.y.get(47, 32), 0);
        assert_eq!(frame.y.get(47, 31), 0xA5, "rows outside the rectangle");
    }

    #[test]
    fn coverage_is_identity_transparent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut used = MbCoverage::default();
        used.begin(1, 2, 30, 40);
        let hash = |c: &MbCoverage| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&used), hash(&MbCoverage::default()));
        assert!(used.clone().bits.is_empty(), "clones start empty");
    }

    #[test]
    fn add_residual_saturates() {
        let mut buf = [250u8; 256];
        let mut res = [0i32; 64];
        res[0] = 100;
        res[1] = -255;
        add_residual(&mut buf, 16, 0, 0, &res);
        assert_eq!(buf[0], 255);
        assert_eq!(buf[1], 0);
        assert_eq!(buf[2], 250);
    }

    #[test]
    fn set_block_clamps() {
        let mut buf = [0u8; 256];
        let mut s = [0i32; 64];
        s[0] = 300;
        s[1] = -4;
        s[2] = 128;
        set_block(&mut buf, 16, 8, 8, &s);
        assert_eq!(buf[8 * 16 + 8], 255);
        assert_eq!(buf[8 * 16 + 9], 0);
        assert_eq!(buf[8 * 16 + 10], 128);
    }
}
