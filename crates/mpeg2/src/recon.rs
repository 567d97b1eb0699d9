//! Macroblock reconstruction: IDCT of the already-dequantised coefficient
//! workspace, motion compensation and pixel assembly.
//!
//! [`Reconstructor`] implements [`SliceVisitor`] generically over a
//! [`ReferenceFetcher`] (where reference pixels come from) and an
//! [`MbSink`] (where reconstructed pixels go), so the same code drives the
//! sequential decoder (whole frames on both sides) and the tile decoder in
//! `tiledec-core` (tile-plus-halo in, tile out).

use crate::block::MbCoeffs;
use crate::frame::Frame;
use crate::motion::{average_into, predict, PlanePick, RefPick, ReferenceFetcher};
use crate::slice::{MbMeta, MbMotion, SliceContext, SliceVisitor};
use crate::types::MotionVector;
use crate::Result;

/// Receives reconstructed macroblock pixels.
pub trait MbSink {
    /// Stores a reconstructed macroblock at macroblock coordinates
    /// (`mb_x`, `mb_y`): a 16×16 luma block and two 8×8 chroma blocks.
    fn write_mb(&mut self, mb_x: u32, mb_y: u32, y: &[u8; 256], cb: &[u8; 64], cr: &[u8; 64]);
}

/// [`MbSink`] writing into a whole frame.
pub struct FrameSink<'a> {
    /// Destination frame (picture-sized).
    pub frame: &'a mut Frame,
}

impl MbSink for FrameSink<'_> {
    fn write_mb(&mut self, mb_x: u32, mb_y: u32, y: &[u8; 256], cb: &[u8; 64], cr: &[u8; 64]) {
        let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
        self.frame.y.insert(px, py, 16, 16, y);
        self.frame.cb.insert(px / 2, py / 2, 8, 8, cb);
        self.frame.cr.insert(px / 2, py / 2, 8, 8, cr);
    }
}

/// [`MbSink`] writing into a mutable row band of a frame.
///
/// Used by `tiledec-core`'s parallel reconstruction: each worker holds a
/// disjoint band of the target frame (borrow-checker-enforced via
/// [`Frame::disjoint_mb_row_bands`]), so bands accept writes concurrently
/// with no locking. Macroblocks outside the band panic — the band
/// partitioner must route every slice to the band owning its rows.
impl MbSink for crate::frame::FrameBandMut<'_> {
    fn write_mb(&mut self, mb_x: u32, mb_y: u32, y: &[u8; 256], cb: &[u8; 64], cr: &[u8; 64]) {
        let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
        self.y.insert(px, py, 16, 16, y);
        self.cb.insert(px / 2, py / 2, 8, 8, cb);
        self.cr.insert(px / 2, py / 2, 8, 8, cr);
    }
}

/// Slice visitor that reconstructs pixels.
pub struct Reconstructor<'a, R: ReferenceFetcher, S: MbSink> {
    /// Reference pixel source.
    pub refs: &'a R,
    /// Reconstructed pixel destination.
    pub sink: &'a mut S,
}

impl<R: ReferenceFetcher, S: MbSink> Reconstructor<'_, R, S> {
    fn predict_mb(
        &self,
        mb_x: u32,
        mb_y: u32,
        motion: &MbMotion,
        y: &mut [u8; 256],
        cb: &mut [u8; 64],
        cr: &mut [u8; 64],
    ) {
        let preds: &[(RefPick, MotionVector)] = match motion {
            MbMotion::Intra => unreachable!("intra macroblocks are not predicted"),
            MbMotion::Forward(f) => &[(RefPick::Forward, *f)],
            MbMotion::Backward(b) => &[(RefPick::Backward, *b)],
            MbMotion::Bi(f, b) => &[(RefPick::Forward, *f), (RefPick::Backward, *b)],
        };
        let (px, py) = (mb_x as usize * 16, mb_y as usize * 16);
        let mut second = [0u8; 256];
        for (n, (which, mv)) in preds.iter().enumerate() {
            let cmv = mv.chroma_420();
            for (plane, x, y, size, mv, dst) in [
                (PlanePick::Y, px, py, 16, *mv, &mut y[..]),
                (PlanePick::Cb, px / 2, py / 2, 8, cmv, &mut cb[..]),
                (PlanePick::Cr, px / 2, py / 2, 8, cmv, &mut cr[..]),
            ] {
                if n == 0 {
                    predict(self.refs, *which, plane, x, y, size, mv, dst);
                } else {
                    let second = &mut second[..size * size];
                    predict(self.refs, *which, plane, x, y, size, mv, second);
                    average_into(dst, second);
                }
            }
        }
    }
}

/// Adds an 8×8 residual onto a prediction sub-block inside a macroblock
/// pixel buffer of width `stride`, saturating to `[0, 255]`. Dispatches
/// through [`crate::kernels`]; bit-exact across kernel sets.
fn add_residual(dst: &mut [u8], stride: usize, bx: usize, by: usize, residual: &[i32; 64]) {
    (crate::kernels::active().add_residual)(&mut dst[by * stride + bx..], stride, residual)
}

/// Writes an 8×8 intra block (no prediction) into a macroblock buffer,
/// clamping samples to `[0, 255]`. Dispatches through [`crate::kernels`].
fn set_block(dst: &mut [u8], stride: usize, bx: usize, by: usize, samples: &[i32; 64]) {
    (crate::kernels::active().set_block)(&mut dst[by * stride + bx..], stride, samples)
}

/// Offsets of the six blocks within their plane's macroblock buffer.
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
            let mut y = [0u8; 256];
            let mut cb = [0u8; 64];
            let mut cr = [0u8; 64];
            self.predict_mb(mb_x, mb_y, motion, &mut y, &mut cb, &mut cr);
            self.sink.write_mb(mb_x, mb_y, &y, &cb, &cr);
        }
        Ok(())
    }

    fn macroblock(
        &mut self,
        _ctx: &SliceContext<'_>,
        meta: &MbMeta,
        coeffs: &mut MbCoeffs,
    ) -> Result<()> {
        let mut y = [0u8; 256];
        let mut cb = [0u8; 64];
        let mut cr = [0u8; 64];
        let intra = meta.flags.intra;
        if !intra {
            self.predict_mb(meta.x, meta.y, &meta.motion, &mut y, &mut cb, &mut cr);
        }
        let mut spatial = [0i32; 64];
        for (i, &(bx, by)) in BLOCK_OFFSETS.iter().enumerate() {
            if meta.cbp & (1 << (5 - i)) == 0 {
                continue;
            }
            coeffs.idct_into(i, &mut spatial);
            let (dst, stride): (&mut [u8], _) = match i {
                0..=3 => (&mut y, 16),
                4 => (&mut cb, 8),
                _ => (&mut cr, 8),
            };
            if intra {
                set_block(dst, stride, bx, by, &spatial);
            } else {
                add_residual(dst, stride, bx, by, &spatial);
            }
        }
        self.sink.write_mb(meta.x, meta.y, &y, &cb, &cr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sink_places_macroblocks() {
        let mut frame = Frame::black(32, 32);
        let mut sink = FrameSink { frame: &mut frame };
        let y = [200u8; 256];
        let cb = [90u8; 64];
        let cr = [30u8; 64];
        sink.write_mb(1, 1, &y, &cb, &cr);
        assert_eq!(frame.y.get(16, 16), 200);
        assert_eq!(frame.y.get(31, 31), 200);
        assert_eq!(frame.y.get(15, 15), 0);
        assert_eq!(frame.cb.get(8, 8), 90);
        assert_eq!(frame.cr.get(15, 15), 30);
        assert_eq!(frame.cb.get(7, 7), 128);
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
