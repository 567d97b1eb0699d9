//! Prediction formation: half-pel frame motion compensation (§7.6).
//!
//! Prediction fetches go through the [`ReferenceFetcher`] trait so the same
//! reconstruction code serves both the sequential decoder (which owns whole
//! reference frames) and the tile decoder in `tiledec-core` (which owns a
//! tile plus a halo of remote macroblocks delivered by MEI exchange).

use crate::frame::Frame;
use crate::types::MotionVector;

/// Which reference frame a prediction reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefPick {
    /// The past I/P reference.
    Forward,
    /// The future I/P reference (B pictures only).
    Backward,
}

/// Which plane a fetch addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanePick {
    /// Luma plane.
    Y,
    /// Blue-difference chroma plane.
    Cb,
    /// Red-difference chroma plane.
    Cr,
}

/// Source of reference pixels for motion compensation.
///
/// `x0`/`y0` may be negative only in the sense of pointing outside a tile's
/// owned region — implementations with halo storage translate them; the
/// region is always inside the *picture* for conforming streams.
pub trait ReferenceFetcher {
    /// Copies a `w × h` region at (`x0`, `y0`) of the chosen plane of the
    /// chosen reference into `out` (tightly packed, stride `w`).
    #[allow(clippy::too_many_arguments)] // region + routing; a struct would obscure the hot path
    fn fetch(
        &self,
        which: RefPick,
        plane: PlanePick,
        x0: i32,
        y0: i32,
        w: usize,
        h: usize,
        out: &mut [u8],
    );

    /// Zero-copy fast path: borrows the `w × h` region at (`x0`, `y0`)
    /// directly from backing storage when it is fully interior (no edge
    /// clamping, no halo translation), returning the slice starting at the
    /// region's top-left pixel and the storage row stride. Returning
    /// `None` (the default) makes [`predict_strided`] fall back to a [`fetch`]
    /// copy; implementations must only return regions whose pixels are
    /// identical to what `fetch` would have produced.
    ///
    /// [`fetch`]: ReferenceFetcher::fetch
    fn region(
        &self,
        which: RefPick,
        plane: PlanePick,
        x0: i32,
        y0: i32,
        w: usize,
        h: usize,
    ) -> Option<(&[u8], usize)> {
        let _ = (which, plane, x0, y0, w, h);
        None
    }
}

/// [`ReferenceFetcher`] over two whole frames, used by the sequential
/// decoder and the encoder.
pub struct FrameRefs<'a> {
    /// Forward (past) reference.
    pub fwd: &'a Frame,
    /// Backward (future) reference; same as `fwd` for P pictures.
    pub bwd: &'a Frame,
}

impl ReferenceFetcher for FrameRefs<'_> {
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
        let frame = match which {
            RefPick::Forward => self.fwd,
            RefPick::Backward => self.bwd,
        };
        let p = match plane {
            PlanePick::Y => &frame.y,
            PlanePick::Cb => &frame.cb,
            PlanePick::Cr => &frame.cr,
        };
        // Conforming streams never reference outside the picture; for
        // robustness against corrupt input the region is clamped to the
        // plane instead of panicking (deterministic edge extension).
        // `fetch_clamped` gathers across storage-tile boundaries when the
        // plane is macroblock-tiled (at most four contiguous tiles for a
        // 17×17 half-pel footprint) and degenerates to row copies on
        // row-major planes.
        p.fetch_clamped(x0, y0, w, h, out);
    }

    fn region(
        &self,
        which: RefPick,
        plane: PlanePick,
        x0: i32,
        y0: i32,
        w: usize,
        h: usize,
    ) -> Option<(&[u8], usize)> {
        let frame = match which {
            RefPick::Forward => self.fwd,
            RefPick::Backward => self.bwd,
        };
        let p = match plane {
            PlanePick::Y => &frame.y,
            PlanePick::Cb => &frame.cb,
            PlanePick::Cr => &frame.cr,
        };
        // Borrow only when fully interior — the same coordinates `fetch`
        // would copy without clamping — and, on a tiled plane, only when
        // the footprint sits inside one storage tile (aligned full-pel
        // fetches such as zero-motion skips); anything else gathers.
        p.region_at(x0, y0, w, h)
    }
}

/// Forms a motion-compensated prediction for a `size × size` block whose
/// top-left pixel in the *current* picture is (`dst_x`, `dst_y`), using a
/// motion vector in half-pel units. Writes the prediction into `out`, rows
/// `out_stride` apart with `out[0]` the block's top-left sample — the rows
/// an [`MbSink`](crate::recon::MbSink) lent, or a packed scratch block
/// with `out_stride == size`.
#[allow(clippy::too_many_arguments)] // mirrors ReferenceFetcher::fetch
pub fn predict_strided(
    fetch: &impl ReferenceFetcher,
    which: RefPick,
    plane: PlanePick,
    dst_x: usize,
    dst_y: usize,
    size: usize,
    mv: MotionVector,
    out: &mut [u8],
    out_stride: usize,
) {
    let half_x = (mv.x & 1) as usize;
    let half_y = (mv.y & 1) as usize;
    // Arithmetic shift floors, which is what §7.6.4 wants.
    let src_x = dst_x as i32 + (mv.x >> 1) as i32;
    let src_y = dst_y as i32 + (mv.y >> 1) as i32;
    let fw = size + half_x;
    let fh = size + half_y;
    let k = crate::kernels::active();
    let kernel = match (half_x, half_y) {
        (0, 0) => k.mc_copy_strided,
        (1, 0) => k.mc_avg_h_strided,
        (0, 1) => k.mc_avg_v_strided,
        _ => k.mc_avg_hv_strided,
    };
    // Zero-copy fast path: interpolate straight out of the reference
    // plane when the fetcher can lend the region.
    if let Some((src, stride)) = fetch.region(which, plane, src_x, src_y, fw, fh) {
        return kernel(src, stride, out, out_stride, size);
    }
    // Straddle/clamp gather path: footprints that cross a storage-tile
    // boundary (or the picture edge) are gathered into this stack scratch
    // — zero steady-state heap traffic, sized for the worst 17×17 luma
    // half-pel footprint.
    let mut tmp = [0u8; 17 * 17];
    let tmp = &mut tmp[..fw * fh];
    fetch.fetch(which, plane, src_x, src_y, fw, fh, tmp);
    kernel(tmp, fw, out, out_stride, size)
}

/// [`predict_strided`] into a tightly packed `size × size` block.
// Stays only because the frozen `benchmark/src/layers.rs` calls it with
// this signature; it goes with the next `benchmark/` PR.
#[allow(clippy::too_many_arguments)] // mirrors ReferenceFetcher::fetch
pub fn predict(
    fetch: &impl ReferenceFetcher,
    which: RefPick,
    plane: PlanePick,
    dst_x: usize,
    dst_y: usize,
    size: usize,
    mv: MotionVector,
    out: &mut [u8],
) {
    predict_strided(fetch, which, plane, dst_x, dst_y, size, mv, out, size)
}

/// Averages a backward prediction (`bwd`, rows `bwd_stride` apart) into
/// the forward prediction already in `fwd`, a `size × size` block with
/// rows `fwd_stride` apart (§7.6.7.1: `(f + b) // 2` with rounding away
/// from zero).
pub fn average(bwd: &[u8], bwd_stride: usize, fwd: &mut [u8], fwd_stride: usize, size: usize) {
    (crate::kernels::active().average)(bwd, bwd_stride, fwd, fwd_stride, size)
}

/// The luma pixel rectangle a 16×16 prediction with vector `mv` reads,
/// including the extra half-pel row/column: `(x0, y0, w, h)`.
pub fn luma_footprint(mb_x: u32, mb_y: u32, mv: MotionVector) -> (i32, i32, u32, u32) {
    let x0 = (mb_x * 16) as i32 + (mv.x >> 1) as i32;
    let y0 = (mb_y * 16) as i32 + (mv.y >> 1) as i32;
    let w = 16 + (mv.x & 1) as u32;
    let h = 16 + (mv.y & 1) as u32;
    (x0, y0, w, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_frame(w: usize, h: usize) -> Frame {
        let mut f = Frame::black(w, h);
        for y in 0..h {
            for x in 0..w {
                f.y.set(x, y, ((x * 3 + y * 7) % 251) as u8);
            }
        }
        for y in 0..h / 2 {
            for x in 0..w / 2 {
                f.cb.set(x, y, ((x + y) % 251) as u8);
                f.cr.set(x, y, ((x * 2 + y) % 251) as u8);
            }
        }
        f
    }

    #[test]
    fn full_pel_prediction_copies() {
        let f = gradient_frame(64, 64);
        let refs = FrameRefs { fwd: &f, bwd: &f };
        let mut out = vec![0u8; 256];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            16,
            16,
            16,
            MotionVector::new(-4, 6),
            &mut out,
        );
        // mv (-4, 6) half-pel = (-2, 3) full-pel
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(out[y * 16 + x], f.y.get(16 + x - 2, 16 + y + 3));
            }
        }
    }

    #[test]
    fn half_pel_prediction_rounds_up() {
        let mut f = Frame::black(32, 32);
        f.y.set(0, 0, 10);
        f.y.set(1, 0, 11);
        let refs = FrameRefs { fwd: &f, bwd: &f };
        let mut out = vec![0u8; 256];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            0,
            0,
            16,
            MotionVector::new(1, 0),
            &mut out,
        );
        assert_eq!(out[0], 11); // (10 + 11 + 1) >> 1
    }

    #[test]
    fn quarter_sample_average() {
        let mut f = Frame::black(32, 32);
        f.y.set(0, 0, 1);
        f.y.set(1, 0, 3);
        f.y.set(0, 1, 5);
        f.y.set(1, 1, 6);
        let refs = FrameRefs { fwd: &f, bwd: &f };
        let mut out = vec![0u8; 256];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            0,
            0,
            16,
            MotionVector::new(1, 1),
            &mut out,
        );
        assert_eq!(out[0], (1 + 3 + 5 + 6 + 2) >> 2);
    }

    #[test]
    fn bidirectional_average_rounds_away_from_zero() {
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        a[..3].copy_from_slice(&[10, 20, 255]);
        b[..3].copy_from_slice(&[11, 20, 254]);
        average(&b, 8, &mut a, 8, 8);
        assert_eq!(a[..4], [11, 20, 255, 0]);
    }

    #[test]
    fn chroma_fetch_uses_chroma_plane() {
        let f = gradient_frame(64, 64);
        let refs = FrameRefs { fwd: &f, bwd: &f };
        let mut out = vec![0u8; 64];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Cb,
            8,
            8,
            8,
            MotionVector::ZERO,
            &mut out,
        );
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(out[y * 8 + x], f.cb.get(8 + x, 8 + y));
            }
        }
    }

    #[test]
    fn footprint_covers_half_pel_extension() {
        assert_eq!(luma_footprint(2, 1, MotionVector::ZERO), (32, 16, 16, 16));
        assert_eq!(
            luma_footprint(2, 1, MotionVector::new(-3, 5)),
            (30, 18, 17, 17)
        );
        assert_eq!(
            luma_footprint(0, 0, MotionVector::new(2, -2)),
            (1, -1, 16, 16)
        );
    }

    #[test]
    fn out_of_bounds_fetch_clamps_to_the_edge() {
        // Non-conforming vectors clamp deterministically instead of
        // crashing the decoder.
        let mut f = Frame::black(32, 32);
        f.y.set(31, 31, 99);
        let refs = FrameRefs { fwd: &f, bwd: &f };
        let mut out = vec![0u8; 256];
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            24,
            24,
            16,
            MotionVector::new(20, 0),
            &mut out,
        );
        // Clamped region is the bottom-right 16x16 corner.
        assert_eq!(out[15 * 16 + 15], 99);
    }
}
