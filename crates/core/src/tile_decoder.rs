//! The tile decoder (the paper's "D" nodes).
//!
//! A tile decoder owns one tile's macroblock-aligned rectangle plus a
//! halo margin of reference storage. Per picture it:
//!
//! 1. executes its MEI SEND instructions, extracting reference
//!    macroblocks from its decoded tiles and shipping them to peers —
//!    possible *before* decoding because reference blocks always live in
//!    previously decoded pictures (§4.2);
//! 2. blits the blocks received from peers into the halo margins of its
//!    reference frames, checking them off against its RECV instructions;
//! 3. decodes its sub-picture one partial slice at a time, re-entering
//!    mid-slice from SPH state, with motion compensation reading from the
//!    halo-extended reference planes;
//! 4. emits the finished tile in display order (B pictures immediately,
//!    reference pictures deferred one step, exactly like the sequential
//!    decoder).

use tiledec_bitstream::BitReader;
use tiledec_mpeg2::block::MbCoeffs;
use tiledec_mpeg2::frame::{Frame, FramePool};
use tiledec_mpeg2::motion::{PlanePick, RefPick, ReferenceFetcher};
use tiledec_mpeg2::recon::{Covered, MbCoverage, MbDst, MbSink, Reconstructor};
use tiledec_mpeg2::slice::{
    parse_one_macroblock, skip_motion, AddrMode, SliceContext, SliceVisitor, WalkState,
};
use tiledec_mpeg2::types::{PictureKind, SequenceInfo};
use tiledec_wall::{PixelRect, TileId, WallGeometry};

use crate::mei::{MeiBuffer, MeiInstruction, RefSlot};
use crate::subpicture::{SubPicture, NO_CODED};
use crate::{CoreError, Result};

/// One exchanged reference macroblock (pixels of all three planes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockData {
    /// Macroblock column.
    pub mb_x: u16,
    /// Macroblock row.
    pub mb_y: u16,
    /// Which reference frame the block belongs to.
    pub slot: RefSlot,
    /// 16×16 luma samples.
    pub y: [u8; 256],
    /// 8×8 Cb samples.
    pub cb: [u8; 64],
    /// 8×8 Cr samples.
    pub cr: [u8; 64],
}

/// A tile frame ready for display.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DisplayTile {
    /// Display-order index of the picture.
    pub display_index: u32,
    /// Reconstructed pixels of the tile's macroblock-aligned rectangle.
    pub frame: Frame,
}

/// The tile decoder.
#[derive(Clone, Hash)]
pub struct TileDecoder {
    geom: WallGeometry,
    tile: TileId,
    seq: SequenceInfo,
    /// Macroblock-aligned display rectangle (what this decoder owns).
    own_rect: PixelRect,
    /// Own rectangle expanded by the halo margin (reference storage).
    ext_rect: PixelRect,
    fwd: Option<Frame>,
    bwd: Option<Frame>,
    /// `bwd` awaits its display-order release. Until then its own
    /// rectangle is what the tile will show: peers only write the halo.
    bwd_pending: bool,
    emitted: u32,
    /// Recycled frame allocations (identity-transparent cache: hashes to
    /// nothing, clones empty).
    pool: FramePool,
    /// Which macroblocks of the working frame the current sub-picture has
    /// written (scratch, identity-transparent like the pool).
    coverage: MbCoverage,
}

impl TileDecoder {
    /// Creates a decoder for one tile. `halo_margin` is rounded up to a
    /// macroblock multiple.
    pub fn new(geom: WallGeometry, tile: TileId, seq: SequenceInfo, halo_margin: u32) -> Self {
        let own_rect = geom.tile_mb_rect(tile);
        let margin = halo_margin.div_ceil(16) * 16;
        let x0 = own_rect.x0.saturating_sub(margin);
        let y0 = own_rect.y0.saturating_sub(margin);
        let x1 = (own_rect.x1() + margin).min(seq.mb_width() * 16);
        let y1 = (own_rect.y1() + margin).min(seq.mb_height() * 16);
        let ext_rect = PixelRect {
            x0,
            y0,
            w: x1 - x0,
            h: y1 - y0,
        };
        TileDecoder {
            geom,
            tile,
            seq,
            own_rect,
            ext_rect,
            fwd: None,
            bwd: None,
            bwd_pending: false,
            emitted: 0,
            pool: FramePool::new(),
            coverage: MbCoverage::default(),
        }
    }

    /// The tile this decoder drives.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// The macroblock-aligned rectangle this decoder reconstructs.
    pub fn own_rect(&self) -> PixelRect {
        self.own_rect
    }

    /// Extracts the reference macroblocks this decoder must serve
    /// according to its MEI buffer, grouped by destination tile index.
    pub fn extract_send_blocks(
        &self,
        kind: PictureKind,
        mei: &MeiBuffer,
    ) -> Result<Vec<(usize, Vec<BlockData>)>> {
        // Pre-count per-peer batches so each Vec is sized exactly once.
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for i in mei.sends() {
            if let MeiInstruction::Send { peer, .. } = i {
                *counts.entry(*peer as usize).or_default() += 1;
            }
        }
        let mut by_peer: std::collections::BTreeMap<usize, Vec<BlockData>> = counts
            .into_iter()
            .map(|(peer, n)| (peer, Vec::with_capacity(n)))
            .collect();
        for i in mei.sends() {
            let MeiInstruction::Send {
                mb_x,
                mb_y,
                slot,
                peer,
            } = *i
            else {
                continue;
            };
            let frame = self.reference(kind, slot)?;
            let (px, py) = (mb_x as u32 * 16, mb_y as u32 * 16);
            if !self.own_rect.contains(px, py) {
                return Err(CoreError::Protocol(format!(
                    "tile {:?} asked to serve mb ({mb_x},{mb_y}) outside its rectangle",
                    self.tile
                )));
            }
            let lx = (px - self.ext_rect.x0) as usize;
            let ly = (py - self.ext_rect.y0) as usize;
            let mut block = BlockData {
                mb_x,
                mb_y,
                slot,
                y: [0; 256],
                cb: [0; 64],
                cr: [0; 64],
            };
            frame.y.extract_into(lx, ly, 16, 16, &mut block.y);
            frame.cb.extract_into(lx / 2, ly / 2, 8, 8, &mut block.cb);
            frame.cr.extract_into(lx / 2, ly / 2, 8, 8, &mut block.cr);
            // Key exists from the counting pass, so no allocation here.
            by_peer.entry(peer as usize).or_default().push(block);
        }
        Ok(by_peer.into_iter().collect())
    }

    /// Blits received reference blocks into the halo of the appropriate
    /// reference frame, and verifies each was announced by a RECV
    /// instruction.
    pub fn apply_recv_blocks(
        &mut self,
        kind: PictureKind,
        mei: &MeiBuffer,
        from_tile: usize,
        blocks: &[BlockData],
    ) -> Result<()> {
        for b in blocks {
            let announced = mei.recvs().any(|i| {
                matches!(i, MeiInstruction::Recv { mb_x, mb_y, slot, peer }
                    if *mb_x == b.mb_x && *mb_y == b.mb_y && *slot == b.slot
                        && *peer as usize == from_tile)
            });
            if !announced {
                return Err(CoreError::Protocol(format!(
                    "tile {:?} received unannounced block ({},{}) from {from_tile}",
                    self.tile, b.mb_x, b.mb_y
                )));
            }
            let (px, py) = (b.mb_x as u32 * 16, b.mb_y as u32 * 16);
            if !self.ext_rect.contains(px, py)
                || px + 16 > self.ext_rect.x1()
                || py + 16 > self.ext_rect.y1()
            {
                return Err(CoreError::Protocol(format!(
                    "block ({},{}) outside tile {:?} halo; raise SystemConfig::halo_margin",
                    b.mb_x, b.mb_y, self.tile
                )));
            }
            // A peer must never overwrite pixels this tile decoded and
            // will display (they are cropped out of the reference later).
            if self.own_rect.contains(px, py) {
                return Err(CoreError::Protocol(format!(
                    "block ({},{}) from {from_tile} lies inside tile {:?}'s own rectangle",
                    b.mb_x, b.mb_y, self.tile
                )));
            }
            let lx = (px - self.ext_rect.x0) as usize;
            let ly = (py - self.ext_rect.y0) as usize;
            let frame = self.reference_mut(kind, b.slot)?;
            frame.y.insert(lx, ly, 16, 16, &b.y);
            frame.cb.insert(lx / 2, ly / 2, 8, 8, &b.cb);
            frame.cr.insert(lx / 2, ly / 2, 8, 8, &b.cr);
        }
        Ok(())
    }

    /// Which stored frame a (picture kind, slot) pair refers to.
    fn reference(&self, kind: PictureKind, slot: RefSlot) -> Result<&Frame> {
        let missing = || CoreError::Protocol("reference frame not yet decoded".into());
        match (kind, slot) {
            (PictureKind::P, RefSlot::Forward) => self.bwd.as_ref().ok_or_else(missing),
            (PictureKind::B, RefSlot::Forward) => self.fwd.as_ref().ok_or_else(missing),
            (PictureKind::B, RefSlot::Backward) => self.bwd.as_ref().ok_or_else(missing),
            _ => Err(CoreError::Protocol(format!(
                "no {slot:?} reference in {kind:?} pictures"
            ))),
        }
    }

    fn reference_mut(&mut self, kind: PictureKind, slot: RefSlot) -> Result<&mut Frame> {
        let missing = || CoreError::Protocol("reference frame not yet decoded".into());
        match (kind, slot) {
            (PictureKind::P, RefSlot::Forward) => self.bwd.as_mut().ok_or_else(missing),
            (PictureKind::B, RefSlot::Forward) => self.fwd.as_mut().ok_or_else(missing),
            (PictureKind::B, RefSlot::Backward) => self.bwd.as_mut().ok_or_else(missing),
            _ => Err(CoreError::Protocol(format!(
                "no {slot:?} reference in {kind:?} pictures"
            ))),
        }
    }

    /// Issues software prefetches for every reference macroblock named in
    /// the picture's MEI RECV list, warming the halo blocks the upcoming
    /// pixel pass will read. The MEI buffer enumerates *exactly* the
    /// remote reference blocks this tile's motion compensation needs
    /// (that is what the exchange protocol ships), so it doubles as a
    /// local prefetch schedule — call it right before
    /// [`decode`](TileDecoder::decode). Purely advisory: dispatches
    /// through the active kernel set (`_mm_prefetch` on x86, no-op on
    /// scalar) and never affects output.
    pub fn prefetch_references(&self, kind: PictureKind, mei: &MeiBuffer) {
        for i in mei.recvs() {
            let MeiInstruction::Recv {
                mb_x, mb_y, slot, ..
            } = *i
            else {
                continue;
            };
            let Ok(frame) = self.reference(kind, slot) else {
                continue;
            };
            let (px, py) = (mb_x as u32 * 16, mb_y as u32 * 16);
            if !self.ext_rect.contains(px, py) {
                continue;
            }
            let lx = (px - self.ext_rect.x0) as i32;
            let ly = (py - self.ext_rect.y0) as i32;
            frame.y.prefetch_rect(lx, ly, 16, 16);
            frame.cb.prefetch_rect(lx / 2, ly / 2, 8, 8);
            frame.cr.prefetch_rect(lx / 2, ly / 2, 8, 8);
        }
    }

    /// Decodes a sub-picture. Any blocks required from peers must have
    /// been applied first. Returns the tile that becomes displayable, if
    /// any: B tiles immediately, reference tiles deferred one picture.
    ///
    /// Steady state allocates nothing: working frames come from the
    /// decoder's pool, which [`TileDecoder::recycle`] refills once a
    /// [`DisplayTile`] has been consumed.
    pub fn decode(&mut self, sp: &SubPicture) -> Result<Option<DisplayTile>> {
        let kind = sp.info.kind;
        let ext = self.ext_rect;
        let mut current = self.pool.acquire_stale(ext.w as usize, ext.h as usize);
        self.coverage
            .begin(ext.x0 / 16, ext.y0 / 16, ext.w / 16, ext.h / 16);
        {
            let placeholder = Frame::placeholder();
            let (fwd, bwd): (&Frame, &Frame) = match kind {
                PictureKind::I => (placeholder, placeholder),
                PictureKind::P => {
                    let f = self.bwd.as_ref().ok_or_else(|| {
                        CoreError::Protocol("P sub-picture without reference".into())
                    })?;
                    (f, f)
                }
                PictureKind::B => {
                    let (Some(f), Some(b)) = (self.fwd.as_ref(), self.bwd.as_ref()) else {
                        return Err(CoreError::Protocol(
                            "B sub-picture without references".into(),
                        ));
                    };
                    (f, b)
                }
            };
            let refs = TileRefs {
                fwd,
                bwd,
                ext_rect: self.ext_rect,
            };
            let mut sink = Covered {
                sink: TileSink {
                    frame: &mut current,
                    ext_rect: ext,
                },
                coverage: &mut self.coverage,
            };
            let mut recon = Reconstructor {
                refs: &refs,
                sink: &mut sink,
            };
            let ctx = SliceContext {
                seq: &self.seq,
                pic: &sp.info,
            };
            let mut coeffs = MbCoeffs::default();
            for run in &sp.runs {
                decode_run(run, &ctx, &mut recon, &mut coeffs)?;
            }
            // The frame came out of the pool stale: the halo, and rows
            // the sub-picture did not code, read zero.
            sink.finish();
        }

        // Display-order emission, mirroring the sequential decoder.
        match kind {
            PictureKind::B => {
                let frame = crop(&mut self.pool, self.own_rect, self.ext_rect, &current);
                self.pool.release(current);
                Ok(Some(self.display(frame)))
            }
            _ => Ok(self.push_reference(current)),
        }
    }

    /// Conceals a picture whose sub-picture never arrived (lost work unit
    /// on a lossy channel). The newest reference stands in for the lost
    /// picture — classic temporal concealment — so the reference chain,
    /// and with it every later decode, stays legal; a loss before the
    /// first reference conceals to a black tile. Reference and display
    /// bookkeeping advance exactly as for a decoded reference picture.
    pub fn conceal_picture(&mut self) -> Option<DisplayTile> {
        let (w, h) = (self.ext_rect.w as usize, self.ext_rect.h as usize);
        let current = match self.bwd.as_ref() {
            Some(prev) => self.pool.acquire_crop(prev, 0, 0, w, h),
            None => {
                let mut black = self.pool.acquire_stale(w, h);
                black.y.fill(0);
                black.cb.fill(0);
                black.cr.fill(0);
                black
            }
        };
        self.push_reference(current)
    }

    /// Installs `current` as the newest reference, as the sequential
    /// decoder does: the reference held so far becomes displayable,
    /// `current` is held in its place, and the frame that leaves the
    /// reference window returns to the pool.
    fn push_reference(&mut self, current: Frame) -> Option<DisplayTile> {
        let out = self.flush();
        self.bwd_pending = true;
        let retired = std::mem::replace(&mut self.fwd, self.bwd.replace(current));
        if let Some(old) = retired {
            self.pool.release(old);
        }
        out
    }

    /// Wraps `frame` as the next tile in display order.
    fn display(&mut self, frame: Frame) -> DisplayTile {
        let tile = DisplayTile {
            display_index: self.emitted,
            frame,
        };
        self.emitted += 1;
        tile
    }

    /// Returns a consumed frame's allocation to the decoder's pool so the
    /// steady-state hot path stops allocating. Callers hand back the
    /// [`DisplayTile`] frames they have finished displaying (or encoding
    /// onward); frames of any dimensions are accepted.
    pub fn recycle(&mut self, frame: Frame) {
        self.pool.release(frame);
    }

    /// Releases the held reference tile for display, cropping it out of
    /// the newest reference only now: at end of stream, and whenever a
    /// newer reference takes its place.
    pub fn flush(&mut self) -> Option<DisplayTile> {
        if !std::mem::take(&mut self.bwd_pending) {
            return None;
        }
        let newest = self.bwd.as_ref()?;
        let frame = crop(&mut self.pool, self.own_rect, self.ext_rect, newest);
        Some(self.display(frame))
    }

    /// The wall geometry (for callers wiring decoders together).
    pub fn geometry(&self) -> &WallGeometry {
        &self.geom
    }
}

/// Copies the `own` rectangle out of a frame covering `ext` into a frame
/// from `pool`.
fn crop(pool: &mut FramePool, own: PixelRect, ext: PixelRect, frame: &Frame) -> Frame {
    let dx = (own.x0 - ext.x0) as usize;
    let dy = (own.y0 - ext.y0) as usize;
    pool.acquire_crop(frame, dx, dy, own.w as usize, own.h as usize)
}

/// Decodes one partial-slice run through a visitor.
fn decode_run<V: SliceVisitor>(
    run: &crate::subpicture::PartialSlice,
    ctx: &SliceContext<'_>,
    visitor: &mut V,
    coeffs: &mut V::Coeffs,
) -> Result<()> {
    let mbw = ctx.mb_width();
    // Boundary skips before the coded payload.
    if run.skipped_before > 0 {
        let motion = run
            .skip_motion
            .ok_or_else(|| CoreError::Protocol("skipped_before without skip_motion".into()))?;
        let motion = match motion {
            tiledec_mpeg2::slice::MbMotion::Intra => {
                return Err(CoreError::Protocol("intra skip motion".into()))
            }
            m => m,
        };
        visitor.skipped(
            ctx,
            run.row as u32 * mbw + run.skip_start_col as u32,
            run.skipped_before as u32,
            &motion,
        )?;
    }
    if run.coded_count == 0 {
        if run.skipped_after > 0 || run.first_coded_col != NO_CODED {
            return Err(CoreError::Protocol("malformed empty run".into()));
        }
        return Ok(());
    }

    // Re-enter the slice mid-stream from SPH state.
    let mut st = WalkState {
        pred: run.entry.clone(),
        prev_motion: run
            .skip_motion
            .unwrap_or(tiledec_mpeg2::slice::MbMotion::Intra),
        prev_addr: 0, // overridden by the forced address
    };
    let mut r = BitReader::new(&run.payload);
    r.skip(run.skip_bits as usize)
        .map_err(tiledec_mpeg2::Error::from)?;
    let first_addr = run.row as u32 * mbw + run.first_coded_col as u32;
    for i in 0..run.coded_count {
        let mode = if i == 0 {
            AddrMode::Forced(first_addr)
        } else {
            AddrMode::Continuation
        };
        let meta =
            parse_one_macroblock(&mut r, ctx, &mut st, mode, coeffs).map_err(CoreError::Codec)?;
        if meta.skipped_before > 0 {
            let m = skip_motion(ctx.pic.kind, &meta.entry_prev_motion)?;
            visitor.skipped(
                ctx,
                meta.addr - meta.skipped_before,
                meta.skipped_before,
                &m,
            )?;
        }
        visitor.macroblock(ctx, &meta, coeffs)?;
    }
    // Boundary skips after the payload use the last coded macroblock's
    // prediction, which the walker tracked.
    if run.skipped_after > 0 {
        let m = skip_motion(ctx.pic.kind, &st.prev_motion)?;
        let after_start = (st.prev_addr + 1) as u32;
        visitor.skipped(ctx, after_start, run.skipped_after as u32, &m)?;
    }
    Ok(())
}

/// Reference fetcher over halo-extended tile frames: translates global
/// picture coordinates into the extended rectangle.
struct TileRefs<'a> {
    fwd: &'a Frame,
    bwd: &'a Frame,
    ext_rect: PixelRect,
}

impl ReferenceFetcher for TileRefs<'_> {
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
        let (ex, ey) = match plane {
            PlanePick::Y => (self.ext_rect.x0 as i32, self.ext_rect.y0 as i32),
            _ => (self.ext_rect.x0 as i32 / 2, self.ext_rect.y0 as i32 / 2),
        };
        let lx = x0 - ex;
        let ly = y0 - ey;
        let p = match plane {
            PlanePick::Y => &frame.y,
            PlanePick::Cb => &frame.cb,
            PlanePick::Cr => &frame.cr,
        };
        // MEI pre-calculation guarantees coverage for conforming streams;
        // clamp (deterministically) rather than panic on corrupt input.
        p.fetch_clamped(lx, ly, w, h, out);
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
        // Interior fetches (the vast majority: halo coverage means the
        // whole prediction region sits inside the extended rectangle)
        // lend a slice of the reference plane instead of copying.
        let frame = match which {
            RefPick::Forward => self.fwd,
            RefPick::Backward => self.bwd,
        };
        let (ex, ey) = match plane {
            PlanePick::Y => (self.ext_rect.x0 as i32, self.ext_rect.y0 as i32),
            _ => (self.ext_rect.x0 as i32 / 2, self.ext_rect.y0 as i32 / 2),
        };
        let lx = x0 - ex;
        let ly = y0 - ey;
        let p = match plane {
            PlanePick::Y => &frame.y,
            PlanePick::Cb => &frame.cb,
            PlanePick::Cr => &frame.cr,
        };
        p.region_at(lx, ly, w, h)
    }
}

/// Sink writing macroblocks at global coordinates into a tile-local frame.
struct TileSink<'a> {
    frame: &'a mut Frame,
    ext_rect: PixelRect,
}

impl MbSink for TileSink<'_> {
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_> {
        let px = mb_x * 16;
        let py = mb_y * 16;
        assert!(
            self.ext_rect.contains(px, py),
            "macroblock ({mb_x},{mb_y}) outside this tile's rectangle"
        );
        let lx = (px - self.ext_rect.x0) as usize;
        let ly = (py - self.ext_rect.y0) as usize;
        MbDst {
            y_stride: self.frame.y.stride(),
            c_stride: self.frame.cb.stride(),
            y: self.frame.y.lend_mut(lx, ly, 16, 16),
            cb: self.frame.cb.lend_mut(lx / 2, ly / 2, 8, 8),
            cr: self.frame.cr.lend_mut(lx / 2, ly / 2, 8, 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiledec_mpeg2::types::PictureInfo;

    fn seq(w: u32, h: u32) -> SequenceInfo {
        SequenceInfo {
            width: w,
            height: h,
            frame_rate_code: 5,
            bit_rate_400: 0,
            intra_quant_matrix: [16; 64],
            non_intra_quant_matrix: [16; 64],
        }
    }

    #[test]
    fn halo_rect_is_clamped_to_picture() {
        let geom = WallGeometry::for_video(128, 64, 2, 2, 0).unwrap();
        let d = TileDecoder::new(geom, TileId { col: 0, row: 0 }, seq(128, 64), 64);
        assert_eq!(d.ext_rect.x0, 0);
        assert_eq!(d.ext_rect.y0, 0);
        assert_eq!(d.ext_rect.x1(), 128); // 64 + 64 margin hits the edge
        assert_eq!(d.ext_rect.y1(), 64);
        let d = TileDecoder::new(geom, TileId { col: 1, row: 1 }, seq(128, 64), 16);
        assert_eq!(
            d.ext_rect,
            PixelRect {
                x0: 48,
                y0: 16,
                w: 80,
                h: 48
            }
        );
    }

    #[test]
    fn serving_outside_own_rect_is_rejected() {
        let geom = WallGeometry::for_video(128, 64, 2, 1, 0).unwrap();
        let mut d = TileDecoder::new(geom, TileId { col: 0, row: 0 }, seq(128, 64), 16);
        d.bwd = Some(Frame::zeroed(d.ext_rect.w as usize, d.ext_rect.h as usize));
        let mei = MeiBuffer {
            instructions: vec![MeiInstruction::Send {
                mb_x: 7, // column 7 belongs to tile 1
                mb_y: 0,
                slot: RefSlot::Forward,
                peer: 1,
            }],
        };
        assert!(d.extract_send_blocks(PictureKind::P, &mei).is_err());
    }

    #[test]
    fn unannounced_blocks_are_rejected() {
        let geom = WallGeometry::for_video(128, 64, 2, 1, 0).unwrap();
        let mut d = TileDecoder::new(geom, TileId { col: 0, row: 0 }, seq(128, 64), 16);
        d.bwd = Some(Frame::zeroed(d.ext_rect.w as usize, d.ext_rect.h as usize));
        let block = BlockData {
            mb_x: 4,
            mb_y: 0,
            slot: RefSlot::Forward,
            y: [0; 256],
            cb: [0; 64],
            cr: [0; 64],
        };
        let empty = MeiBuffer::new();
        assert!(d
            .apply_recv_blocks(PictureKind::P, &empty, 1, &[block])
            .is_err());
    }

    #[test]
    fn blocks_inside_the_own_rectangle_are_rejected() {
        // Tile 0 owns columns 0..4 and keeps column 4 as halo. A peer may
        // fill the halo, never the pixels this tile decoded and will
        // crop for display — announced or not.
        let geom = WallGeometry::for_video(128, 64, 2, 1, 0).unwrap();
        let mut d = TileDecoder::new(geom, TileId { col: 0, row: 0 }, seq(128, 64), 16);
        d.bwd = Some(Frame::zeroed(d.ext_rect.w as usize, d.ext_rect.h as usize));
        let block = |mb_x| BlockData {
            mb_x,
            mb_y: 0,
            slot: RefSlot::Forward,
            y: [9; 256],
            cb: [9; 64],
            cr: [9; 64],
        };
        let recv = |mb_x| MeiInstruction::Recv {
            mb_x,
            mb_y: 0,
            slot: RefSlot::Forward,
            peer: 1,
        };
        let mei = MeiBuffer {
            instructions: vec![recv(3), recv(4)],
        };
        d.apply_recv_blocks(PictureKind::P, &mei, 1, &[block(4)])
            .expect("halo block");
        let err = d
            .apply_recv_blocks(PictureKind::P, &mei, 1, &[block(3)])
            .unwrap_err();
        assert!(err.to_string().contains("own rectangle"), "{err}");
        let bwd = d.bwd.as_ref().unwrap();
        assert_eq!((bwd.y.get(64, 0), bwd.y.get(63, 0)), (9, 0));
    }

    #[test]
    fn p_subpicture_without_reference_fails() {
        let geom = WallGeometry::for_video(64, 32, 2, 1, 0).unwrap();
        let mut d = TileDecoder::new(geom, TileId { col: 0, row: 0 }, seq(64, 32), 16);
        let sp = SubPicture {
            picture_id: 0,
            info: PictureInfo::new(PictureKind::P, 0, [[1, 1], [15, 15]]),
            runs: vec![],
        };
        assert!(d.decode(&sp).is_err());
    }

    // Full decode behaviour is proven in tests/parallel.rs against the
    // sequential decoder.
}
